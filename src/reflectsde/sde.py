"""Penalized Euler schemes for reflected equations with jumps.

Drivers are sampled as step paths frozen at grid points; the scheme relaxes
toward the domain between grid points (exactly, via the closed form) and
adds driver and diffusion increments at grid points, with the coefficient
evaluated at the pre-jump value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import ConvexDomain, DomainViolationError, _rows_times
from .path import StepPath
from .penalty import PenalizedPath, _relax_and_step

__all__ = [
    "Grid",
    "Brownian",
    "CompoundPoisson",
    "Drift",
    "JumpSizes",
    "ConstantStart",
    "TablePath",
    "BrownianDrift",
    "DriverSpec",
    "sample_driver",
    "sample_driver_batch",
    "Identity",
    "ConstantMatrix",
    "DiagAffine",
    "PowerDiagonal",
    "Coefficient",
    "euler_penalized",
    "euler_projected",
    "euler_penalized_batch",
    "euler_projected_batch",
    "stochastic_integral",
]


class Grid:
    """Deterministic time grid 0 = t_0 < ... < t_K = q."""

    __slots__ = ("times",)

    def __init__(self, times):
        t = np.asarray(times, dtype=float).copy()
        if t.ndim != 1 or t.shape[0] < 2:
            raise ValueError("grid needs at least two points")
        if t[0] != 0.0 or not np.all(np.diff(t) > 0):
            raise ValueError("grid must start at 0 and increase strictly")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    def __setattr__(self, name, value):
        raise AttributeError("Grid is immutable")

    @classmethod
    def regular(cls, q: float, cells: int) -> "Grid":
        if not (q > 0 and cells >= 1):
            raise ValueError("need q > 0 and at least one cell")
        return cls(np.linspace(0.0, float(q), int(cells) + 1))

    @property
    def q(self) -> float:
        return float(self.times[-1])

    @property
    def cells(self) -> int:
        return self.times.shape[0] - 1

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.times)))

    def coarsen(self, factor: int) -> "Grid":
        """Every ``factor``-th point; shares floats exactly with this grid."""
        factor = int(factor)
        if factor < 1 or self.cells % factor != 0:
            raise ValueError(f"cannot coarsen {self.cells} cells by {factor}")
        return Grid(self.times[::factor])

    def index_of(self, t) -> int:
        t = float(t)
        idx = int(np.searchsorted(self.times, t))
        if idx >= self.times.shape[0] or self.times[idx] != t:
            raise ValueError(f"time {t} is not a grid point")
        return idx

    def covers(self, times) -> bool:
        """True when every given time is exactly a grid point."""
        times = np.asarray(times, dtype=float)
        idx = np.searchsorted(self.times, times)
        idx = np.clip(idx, 0, self.times.shape[0] - 1)
        return bool(np.all(self.times[idx] == times))

    def __repr__(self) -> str:
        return f"Grid(cells={self.cells}, q={self.q}, mesh={self.mesh:g})"


@dataclass(frozen=True)
class JumpSizes:
    """Jump size distribution: tag plus parameters, applied iid per
    coordinate unless the tag is 'constant' (fixed vector)."""

    tag: str
    params: tuple = ()

    def __post_init__(self):
        count = {"normal": 2, "uniform": 2, "exponential": 1}.get(self.tag)
        if count is None and self.tag != "constant":
            raise ValueError(f"unknown jump size tag {self.tag!r}")
        if count is not None and len(self.params) != count:
            raise ValueError(f"{self.tag} jumps take {count} parameter(s)")
        if self.tag in ("normal", "exponential") and not self.params[-1] >= 0:
            raise ValueError(f"{self.tag} jump scale must be nonnegative")

    def sample(self, gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
        if self.tag == "normal":
            loc, scale = self.params
            return gen.normal(loc, scale, size=(count, dim))
        if self.tag == "uniform":
            lo, hi = self.params
            return gen.uniform(lo, hi, size=(count, dim))
        if self.tag == "exponential":
            (scale,) = self.params
            return gen.exponential(scale, size=(count, dim))
        if self.tag == "constant":
            vec = np.atleast_1d(np.asarray(self.params, dtype=float))
            if vec.shape[0] != dim:
                raise ValueError("constant jump vector has wrong dimension")
            return np.tile(vec, (count, 1))

    def second_moment(self, dim: int) -> float:
        """E |xi|^2 of a single jump."""
        if self.tag == "normal":
            loc, scale = self.params
            return dim * (loc**2 + scale**2)
        if self.tag == "uniform":
            lo, hi = self.params
            return dim * (lo * lo + lo * hi + hi * hi) / 3.0
        if self.tag == "exponential":
            (scale,) = self.params
            return dim * 2.0 * scale**2
        if self.tag == "constant":
            vec = np.atleast_1d(np.asarray(self.params, dtype=float))
            return float(vec @ vec)


@dataclass(frozen=True)
class Brownian:
    """Brownian component; ``sigma`` is a scalar, per-coordinate vector,
    or full matrix applied to standard increments."""

    sigma: object = 1.0

    def increments(self, gen, dt: np.ndarray, dim: int) -> np.ndarray:
        z = gen.standard_normal((dt.shape[0], dim)) * np.sqrt(dt)[:, None]
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim == 0:
            return z * float(sigma)
        if sigma.ndim == 1:
            return z * sigma[None, :]
        return z @ sigma.T

    def expected_bracket_rate(self, dim: int) -> float:
        """E d[Z] / dt, coordinates summed."""
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim == 0:
            return dim * float(sigma) ** 2
        if sigma.ndim == 1:
            return float(np.sum(sigma**2))
        return float(np.sum(sigma * sigma))

    def variation_rate(self, dim: int) -> float:
        return 0.0


@dataclass(frozen=True)
class CompoundPoisson:
    """Compound Poisson component with iid jump sizes."""

    rate: float
    jumps: JumpSizes

    def __post_init__(self):
        if not self.rate >= 0:
            raise ValueError("compound Poisson rate must be nonnegative")

    def increments(self, gen, dt: np.ndarray, dim: int) -> np.ndarray:
        counts = gen.poisson(self.rate * dt)
        total = int(counts.sum())
        out = np.zeros((dt.shape[0], dim))
        if total:
            sizes = self.jumps.sample(gen, total, dim)
            cell = np.repeat(np.arange(dt.shape[0]), counts)
            np.add.at(out, cell, sizes)
        return out

    def expected_bracket_rate(self, dim: int) -> float:
        return self.rate * self.jumps.second_moment(dim)

    def variation_rate(self, dim: int) -> float:
        return 0.0


@dataclass(frozen=True)
class Drift:
    """Deterministic drift component with constant rate vector."""

    rate: object

    def increments(self, gen, dt: np.ndarray, dim: int) -> np.ndarray:
        rate = np.broadcast_to(np.asarray(self.rate, dtype=float), (dim,))
        return rate[None, :] * dt[:, None]

    def expected_bracket_rate(self, dim: int) -> float:
        return 0.0

    def variation_rate(self, dim: int) -> float:
        rate = np.broadcast_to(np.asarray(self.rate, dtype=float), (dim,))
        return float(np.sum(np.abs(rate)))


@dataclass(frozen=True)
class ConstantStart:
    """Driver component H frozen at its starting point."""

    x0: object

    def values(self, gen, times: np.ndarray, dim: int) -> np.ndarray:
        x0 = np.broadcast_to(np.asarray(self.x0, dtype=float), (dim,))
        return np.tile(x0, (times.shape[0], 1))


@dataclass(frozen=True)
class TablePath:
    """Deterministic H given as a step path, frozen at grid points."""

    path: StepPath

    def values(self, gen, times: np.ndarray, dim: int) -> np.ndarray:
        if self.path.dim != dim:
            raise ValueError("table path has wrong dimension")
        return np.array(self.path.eval_many(times))


@dataclass(frozen=True)
class BrownianDrift:
    """H = x0 + drift t + sigma B_t sampled at grid points."""

    x0: object
    sigma: object = 1.0
    drift: object = 0.0

    def values(self, gen, times: np.ndarray, dim: int) -> np.ndarray:
        x0 = np.broadcast_to(np.asarray(self.x0, dtype=float), (dim,))
        inc = Brownian(self.sigma).increments(gen, np.diff(times), dim)
        out = np.empty((times.shape[0], dim))
        out[0] = x0
        out[1:] = x0 + np.cumsum(inc, axis=0)
        drift = np.broadcast_to(np.asarray(self.drift, dtype=float), (dim,))
        return out + drift[None, :] * times[:, None]

    def expected_bracket_rate(self, dim: int) -> float:
        return Brownian(self.sigma).expected_bracket_rate(dim)


@dataclass(frozen=True)
class DriverSpec:
    """Joint specification of the free term H and the integrator Z.

    Z is the sum of the listed components.  Component RNG streams are
    keyed by (seed, path index, component index), with H at index 0 and
    the Z components following in order, so adding a component never
    changes the draws of the others.
    """

    dim: int
    h: object
    z_components: tuple = ()

    def expected_bracket(self, q: float) -> float:
        """E [Z]_q, coordinates summed; exact from the component laws."""
        return q * sum(
            c.expected_bracket_rate(self.dim) for c in self.z_components
        )

    def expected_variation(self, q: float) -> float:
        """|V|_q of the deterministic finite-variation part."""
        return q * sum(c.variation_rate(self.dim) for c in self.z_components)

    def fixed_jump_times(self) -> np.ndarray:
        """Deterministic jump times of H (where marginal limits can fail)."""
        if isinstance(self.h, TablePath):
            return np.array(self.h.path.times[1:])
        return np.empty(0)


def _component_gen(seed: int, path_index: int, component: int) -> np.random.Generator:
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(int(path_index), int(component))
    )
    return np.random.Generator(np.random.Philox(ss))


def _draw_path(spec, times, dt, seed, path_index, h_out, z_out) -> None:
    """Write path ``path_index``'s H and Z values at ``times`` into the
    preallocated (K+1, d) rows ``h_out`` and ``z_out``."""
    h_out[...] = spec.h.values(_component_gen(seed, path_index, 0), times, spec.dim)
    z_out[...] = 0.0
    for c, comp in enumerate(spec.z_components, start=1):
        inc = comp.increments(_component_gen(seed, path_index, c), dt, spec.dim)
        z_out[1:] += np.cumsum(inc, axis=0)


def sample_driver(
    spec: DriverSpec, grid: Grid, seed: int, path_index: int = 0
) -> tuple[StepPath, StepPath]:
    """Sample one (H, Z) pair frozen at the grid points.

    Reproducible bit for bit from (seed, path_index); refining the grid
    redraws the increments.
    """
    h_vals, z_vals = np.empty((2, grid.times.shape[0], spec.dim))
    _draw_path(spec, grid.times, np.diff(grid.times), seed, path_index, h_vals, z_vals)
    return (
        StepPath(grid.times, h_vals, grid.q),
        StepPath(grid.times, z_vals, grid.q),
    )


def sample_driver_batch(
    spec: DriverSpec, grid: Grid, seed: int, paths: int, first_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``paths`` drivers as value arrays of shape (M, K+1, d).

    Row i carries path index ``first_index + i`` and is bit-identical to
    the corresponding :func:`sample_driver` output.
    """
    H = np.empty((paths, grid.times.shape[0], spec.dim))
    Z = np.empty_like(H)
    dt = np.diff(grid.times)
    for i in range(paths):
        _draw_path(spec, grid.times, dt, seed, first_index + i, H[i], Z[i])
    return H, Z


class Coefficient:
    """Matrix-valued coefficient x -> f(x) applied to integrator increments."""

    dim: int

    def mat(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contract(self, X: np.ndarray, dZ: np.ndarray) -> np.ndarray:
        """Rows f(X[i]) @ dZ[i]; subclasses vectorize where possible."""
        out = np.empty_like(dZ)
        for i in range(X.shape[0]):
            out[i] = self.mat(X[i]) @ dZ[i]
        return out

    def growth_ratio(self, gen, samples: int = 2000, scale: float = 50.0) -> float:
        """Largest sampled ratio ||f(x)||_F / (1 + |x|); admissible
        coefficients keep this bounded."""
        X = gen.uniform(-scale, scale, size=(samples, self.dim))
        worst = 0.0
        for x in X:
            worst = max(
                worst,
                float(np.linalg.norm(self.mat(x)) / (1.0 + np.linalg.norm(x))),
            )
        return worst


class Identity(Coefficient):
    def __init__(self, dim: int):
        self.dim = int(dim)

    def mat(self, x):
        return np.eye(self.dim)

    def contract(self, X, dZ):
        return dZ.copy()


class ConstantMatrix(Coefficient):
    def __init__(self, matrix):
        A = np.atleast_2d(np.asarray(matrix, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValueError("coefficient matrix must be square")
        self.matrix = A
        self.dim = A.shape[0]

    def mat(self, x):
        return self.matrix.copy()

    def contract(self, X, dZ):
        return _rows_times(dZ, self.matrix)


class DiagAffine(Coefficient):
    """Diagonal Lipschitz coefficient f(x) = diag(a + b |x_i|) with a, b >= 0."""

    def __init__(self, dim: int, base: float, slope: float):
        if base < 0 or slope < 0:
            raise ValueError("need nonnegative base and slope")
        self.dim = int(dim)
        self.base = float(base)
        self.slope = float(slope)

    def diag(self, X):
        return self.base + self.slope * np.abs(X)

    def mat(self, x):
        return np.diag(self.diag(np.asarray(x, dtype=float)))

    def contract(self, X, dZ):
        return self.diag(X) * dZ


class PowerDiagonal(Coefficient):
    """Diagonal Holder coefficient f(x) = diag(min(|x_i|, cap)^alpha).

    For alpha in [1/2, 1) this is not Lipschitz at the origin, yet
    ||f(x) - f(y)||_F^2 <= dim * (|x - y|^2)^alpha: each diagonal entry is
    alpha-Holder with constant 1, and u -> dim * u^alpha is concave,
    vanishes at zero, and has a divergent integral of 1/rho near zero,
    which is the classical pathwise-uniqueness regime in dimension one.
    """

    def __init__(self, dim: int, alpha: float, cap: float = np.inf):
        if not 0.5 <= alpha < 1.0:
            raise ValueError("alpha must lie in [1/2, 1)")
        if not cap > 0:
            raise ValueError("cap must be positive")
        self.dim = int(dim)
        self.alpha = float(alpha)
        self.cap = float(cap)

    def diag(self, X):
        return np.minimum(np.abs(X), self.cap) ** self.alpha

    def mat(self, x):
        return np.diag(self.diag(np.asarray(x, dtype=float)))

    def contract(self, X, dZ):
        return self.diag(X) * dZ

    def modulus_gap(self, x, y) -> float:
        """dim * (|x-y|^2)^alpha - ||f(x)-f(y)||_F^2; nonnegative."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gap2 = float(np.sum((x - y) ** 2))
        fdiff = self.diag(x) - self.diag(y)
        return self.dim * gap2**self.alpha - float(np.sum(fdiff**2))


def _path_values(domain, f, H, Z, grid):
    """Check one path's inputs; H and Z at the grid points as one-row
    (1, K+1, d) batches."""
    if H.dim != domain.dim or Z.dim != domain.dim:
        raise ValueError("driver dimensions must match the domain")
    if f.dim != domain.dim:
        raise ValueError("coefficient dimension must match the domain")
    if not (grid.covers(H.times) and grid.covers(Z.times)):
        raise ValueError("driver breakpoints must be grid points")
    if abs(grid.q - H.q) > 0 or abs(grid.q - Z.q) > 0:
        raise ValueError("driver horizons must equal the grid horizon")
    if not domain.contains(H.values[0]):
        raise DomainViolationError("H must start inside the domain")
    return H.eval_many(grid.times)[None], Z.eval_many(grid.times)[None]


def euler_penalized(
    domain: ConvexDomain,
    f: Coefficient,
    H: StepPath,
    Z: StepPath,
    n: float,
    grid: Grid,
) -> PenalizedPath:
    """One penalized Euler path.

    Between grid points the state relaxes exactly toward its projection at
    rate n; at a grid point the increments of H and of the integral term
    are added, with f evaluated at the pre-jump (relaxed) value.
    """
    if not float(n) > 0:
        raise ValueError("penalization rate must be positive")
    hv, zv = _path_values(domain, f, H, Z, grid)
    n = float(n)
    states, projections, _ = _relax_and_step(
        domain, f, hv, zv, n, grid.times, strict=True
    )
    return PenalizedPath(n, grid.times, states[0], projections[0], grid.q)


def euler_projected(
    domain: ConvexDomain,
    f: Coefficient,
    H: StepPath,
    Z: StepPath,
    grid: Grid,
) -> StepPath:
    """Projected Euler path: same update with projection instead of
    relaxation (the penalized scheme's rate-to-infinity limit)."""
    hv, zv = _path_values(domain, f, H, Z, grid)
    states, _, _ = _relax_and_step(domain, f, hv, zv, np.inf, grid.times, strict=True)
    return StepPath(grid.times, states[0], grid.q)


def _check_batch_inputs(domain, H_vals, Z_vals, grid):
    M, K1, d = H_vals.shape
    if Z_vals.shape != (M, K1, d) or K1 != grid.times.shape[0] or d != domain.dim:
        raise ValueError("driver value arrays do not match the grid/domain")


def euler_penalized_batch(
    domain: ConvexDomain,
    f: Coefficient,
    H_vals: np.ndarray,
    Z_vals: np.ndarray,
    n: float,
    grid: Grid,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized penalized scheme over (M, K+1, d) driver values.

    Returns (states, projections) of the same shape.  Single paths and
    batches run the same kernel, so row i agrees bit for bit with
    :func:`euler_penalized` on the same driver.  A row whose state stops
    being finite or whose projection does not converge is NaN throughout.
    """
    if not float(n) > 0:
        raise ValueError("penalization rate must be positive")
    _check_batch_inputs(domain, H_vals, Z_vals, grid)
    states, projections, failed = _relax_and_step(
        domain, f, H_vals, Z_vals, float(n), grid.times
    )
    states[failed] = projections[failed] = np.nan
    return states, projections


def euler_projected_batch(
    domain: ConvexDomain,
    f: Coefficient,
    H_vals: np.ndarray,
    Z_vals: np.ndarray,
    grid: Grid,
) -> np.ndarray:
    """Vectorized projected scheme over (M, K+1, d) driver values; rows
    agree bit for bit with :func:`euler_projected`, failed rows are NaN."""
    _check_batch_inputs(domain, H_vals, Z_vals, grid)
    states, _, failed = _relax_and_step(domain, f, H_vals, Z_vals, np.inf, grid.times)
    states[failed] = np.nan
    return states


def stochastic_integral(
    f: Coefficient,
    X,
    Z: StepPath,
    grid: Grid,
    t=None,
) -> np.ndarray:
    """Left-endpoint integral of f(X) against Z along the grid up to t.

    X may be a penalized or step path; the integrand uses the pre-jump
    value at each grid point, matching the scheme's update rule.  ``t``
    must be a grid point.
    """
    t = grid.q if t is None else float(t)
    stop = grid.index_of(t)
    zv = Z.eval_many(grid.times[: stop + 1])
    acc = np.zeros(Z.dim)
    for k in range(stop):
        pre = X.left_limit(grid.times[k + 1])
        acc += f.mat(pre) @ (zv[k + 1] - zv[k])
    return acc
