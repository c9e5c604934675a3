"""Convex domains with Euclidean nearest-point projection.

Four shapes: half-space, axis-aligned box, ball, and a finite intersection
of half-spaces (projected iteratively).  Each projects the rows of an
(m, d) array (``project_points``); ``project_point`` is the one-row case,
so a point gets the same bits alone or in any batch.  Every domain carries
a designated strictly interior anchor point together with a validated lower
bound on its distance to the boundary; the a-priori bounds in
:mod:`reflectsde.penalty` are stated relative to that anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12
BOUNDARY_TOL = 1e-9
PROJECTION_TOL = 1e-12
MAX_PROJECTION_SWEEPS = 100_000

__all__ = [
    "UNIT_TOL",
    "BOUNDARY_TOL",
    "PROJECTION_TOL",
    "MAX_PROJECTION_SWEEPS",
    "NumericalError",
    "DomainViolationError",
    "ProjectionResult",
    "ConvexDomain",
    "HalfSpace",
    "Box",
    "Ball",
    "Polyhedron",
    "project",
    "anchor_gap",
    "normal_cone_check",
]


class NumericalError(RuntimeError):
    """Iterative projection failed to reach its tolerance; ``result``, when
    given, is the batch's projections with NaN in the rows that failed."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class DomainViolationError(ValueError):
    """A value required to lie in the closed domain does not."""


def _vec(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a point, got array of shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("point has non-finite coordinates")
    return v


def _rows_times(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Rows X[i] @ A.T, rounded the same way whatever the number of rows:
    a BLAS product rounds one row differently from a batch of them."""
    out = X[:, :1] * A[:, 0]
    for j in range(1, A.shape[1]):
        out = out + X[:, j : j + 1] * A[:, j]
    return out


@dataclass(frozen=True)
class ProjectionResult:
    """Nearest point in the closed domain plus diagnostics.

    ``penetration`` is the Euclidean distance from the input to ``point``
    (zero iff the input already lay in the domain, up to tolerance);
    ``on_boundary`` refers to ``point`` itself.
    """

    point: np.ndarray
    penetration: float
    on_boundary: bool


class ConvexDomain:
    """Closed convex subset of R^d with an interior anchor.

    Subclasses provide ``project_points`` (row-wise nearest points of an
    (m, d) array: exact, or iterative for half-space intersections; the
    single-point ``project_point`` is its one-row case),
    ``boundary_distance`` (distance to the topological boundary, from
    either side), and the active inward normals at a boundary point.
    ``anchor_clearance`` is validated at construction: it must be positive
    and must not exceed the exact boundary distance of the anchor, so a
    conservative value is allowed and every bound built on it stays valid.
    """

    dim: int
    anchor: np.ndarray
    anchor_clearance: float

    def _init_anchor(self, anchor, clearance) -> None:
        if anchor is None:
            anchor = self._default_anchor()
        anchor = _vec(anchor, self.dim)
        exact = self._interior_clearance(anchor)
        if not exact > 0:
            raise ValueError("anchor must be strictly interior to the domain")
        if clearance is None:
            clearance = exact
        clearance = float(clearance)
        if not clearance > 0:
            raise ValueError("anchor_clearance must be positive")
        if clearance > exact + BOUNDARY_TOL:
            raise ValueError(
                f"anchor_clearance {clearance} exceeds the anchor's actual "
                f"boundary distance {exact}"
            )
        anchor.setflags(write=False)
        self.anchor = anchor
        self.anchor_clearance = min(clearance, exact)

    def _default_anchor(self) -> np.ndarray:
        raise NotImplementedError

    def _interior_clearance(self, point: np.ndarray) -> float:
        """Signed distance to the boundary, positive inside."""
        raise NotImplementedError

    def project_points(self, X: np.ndarray) -> np.ndarray:
        """Row-wise projection of an (m, d) array."""
        raise NotImplementedError

    def project_point(self, x) -> np.ndarray:
        """Nearest point of one point: the one-row ``project_points``."""
        return self.project_points(_vec(x, self.dim)[None])[0]

    def boundary_distance(self, x) -> float:
        x = _vec(x, self.dim)
        inside = self._interior_clearance(x)
        if inside >= 0.0:
            return float(inside)
        return float(np.linalg.norm(x - self.project_point(x)))

    def contains(self, x, tol: float = BOUNDARY_TOL) -> bool:
        x = _vec(x, self.dim)
        return bool(np.linalg.norm(x - self.project_point(x)) <= tol)

    def inward_normals(self, b, tol: float = BOUNDARY_TOL) -> np.ndarray:
        """Unit inward normals of the faces active at boundary point ``b``.

        Returns an (m, d) array, empty if ``b`` is not within ``tol`` of the
        boundary.  For smooth pieces there is a single row; at box corners
        and polyhedron edges one row per active face.
        """
        raise NotImplementedError


class HalfSpace(ConvexDomain):
    """Closed half-space ``{x : <normal, x> >= offset}`` with unit normal."""

    def __init__(self, normal, offset: float, anchor=None, anchor_clearance=None):
        n = _vec(normal)
        if abs(np.linalg.norm(n) - 1.0) > UNIT_TOL:
            raise ValueError("half-space normal must have unit length")
        n.setflags(write=False)
        self.normal = n
        self.offset = float(offset)
        self.dim = n.shape[0]
        self._init_anchor(anchor, anchor_clearance)

    def slack(self, x) -> float:
        """Signed margin ``<normal, x> - offset``, positive inside."""
        return float(self.normal @ _vec(x, self.dim) - self.offset)

    def _default_anchor(self) -> np.ndarray:
        return (self.offset + 1.0) * self.normal

    def _interior_clearance(self, point: np.ndarray) -> float:
        return float(self.normal @ point - self.offset)

    def project_points(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        s = _rows_times(X, self.normal[None, :])[:, 0] - self.offset
        return np.where(s[:, None] >= 0.0, X, X - s[:, None] * self.normal)

    def boundary_distance(self, x) -> float:
        return abs(self._interior_clearance(_vec(x, self.dim)))

    def inward_normals(self, b, tol: float = BOUNDARY_TOL) -> np.ndarray:
        if self.boundary_distance(b) <= tol:
            return self.normal[None, :].copy()
        return np.empty((0, self.dim))


class Box(ConvexDomain):
    """Axis-aligned box ``[lower_i, upper_i]`` in each coordinate."""

    def __init__(self, lower, upper, anchor=None, anchor_clearance=None):
        lo = _vec(lower)
        hi = _vec(upper, lo.shape[0])
        if not np.all(lo < hi):
            raise ValueError("box must satisfy lower < upper coordinatewise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.lower = lo
        self.upper = hi
        self.dim = lo.shape[0]
        self._init_anchor(anchor, anchor_clearance)

    def _default_anchor(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def _interior_clearance(self, point: np.ndarray) -> float:
        return float(min(np.min(point - self.lower), np.min(self.upper - point)))

    def project_points(self, X: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(X, dtype=float), self.lower, self.upper)

    def inward_normals(self, b, tol: float = BOUNDARY_TOL) -> np.ndarray:
        b = _vec(b, self.dim)
        if self.boundary_distance(b) > tol:
            return np.empty((0, self.dim))
        rows = []
        for i in range(self.dim):
            if abs(b[i] - self.lower[i]) <= tol:
                e = np.zeros(self.dim)
                e[i] = 1.0
                rows.append(e)
            if abs(self.upper[i] - b[i]) <= tol:
                e = np.zeros(self.dim)
                e[i] = -1.0
                rows.append(e)
        return np.array(rows) if rows else np.empty((0, self.dim))


class Ball(ConvexDomain):
    """Closed Euclidean ball of given center and radius."""

    def __init__(self, center, radius: float, anchor=None, anchor_clearance=None):
        c = _vec(center)
        if not radius > 0:
            raise ValueError("ball radius must be positive")
        c.setflags(write=False)
        self.center = c
        self.radius = float(radius)
        self.dim = c.shape[0]
        self._init_anchor(anchor, anchor_clearance)

    def _default_anchor(self) -> np.ndarray:
        return self.center.copy()

    def _interior_clearance(self, point: np.ndarray) -> float:
        return self.radius - float(np.linalg.norm(point - self.center))

    def project_points(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        V = X - self.center
        r = np.linalg.norm(V, axis=1)
        scaled = self.center + V * (self.radius / np.maximum(r, 1e-300))[:, None]
        return np.where((r > self.radius)[:, None], scaled, X)

    def boundary_distance(self, x) -> float:
        return abs(self._interior_clearance(_vec(x, self.dim)))

    def inward_normals(self, b, tol: float = BOUNDARY_TOL) -> np.ndarray:
        b = _vec(b, self.dim)
        v = self.center - b
        r = np.linalg.norm(v)
        if abs(self.radius - np.linalg.norm(b - self.center)) > tol or r == 0.0:
            return np.empty((0, self.dim))
        return (v / r)[None, :]


class Polyhedron(ConvexDomain):
    """Finite intersection of half-spaces.

    No closed-form nearest point exists in general, so projection runs
    Dykstra's cyclic corrections over the faces, batched over rows: each
    row keeps its own corrections and stops once a sweep moves it at most
    ``PROJECTION_TOL``; a row still moving after ``MAX_PROJECTION_SWEEPS``
    sweeps makes the batch raise ``NumericalError``, carrying the result
    with NaN in that row.  The anchor is required (it certifies
    the interior is nonempty) and its clearance is checked against the
    exact value min_i(<n_i, anchor> - c_i).
    """

    def __init__(self, halfspaces, anchor, anchor_clearance=None):
        faces = tuple(halfspaces)
        if not faces:
            raise ValueError("polyhedron needs at least one half-space")
        if not all(isinstance(h, HalfSpace) for h in faces):
            raise ValueError("polyhedron faces must be HalfSpace instances")
        dim = faces[0].dim
        if any(h.dim != dim for h in faces):
            raise ValueError("all faces must share one dimension")
        self.faces = faces
        self.dim = dim
        self._normals = np.array([h.normal for h in faces])
        self._offsets = np.array([h.offset for h in faces])
        if anchor is None:
            raise ValueError("polyhedron requires an explicit interior anchor")
        self._init_anchor(anchor, anchor_clearance)

    def _interior_clearance(self, point: np.ndarray) -> float:
        return float(np.min(self._normals @ point - self._offsets))

    def _slacks(self, X: np.ndarray) -> np.ndarray:
        """Face margins of the rows of X, positive inside, (m, faces)."""
        return _rows_times(X, self._normals) - self._offsets

    def project_points(self, X: np.ndarray) -> np.ndarray:
        out = np.array(X, dtype=float)
        rows = np.flatnonzero(self._slacks(out).min(axis=1) < 0.0)
        point = out[rows]
        corrections = np.zeros((len(self.faces),) + point.shape)
        for _ in range(MAX_PROJECTION_SWEEPS):
            if not rows.size:
                break
            previous = point
            for i, normal in enumerate(self._normals[:, None]):
                shifted = point + corrections[i]
                s = _rows_times(shifted, normal) - self._offsets[i]
                point = shifted - np.minimum(s, 0.0) * normal
                corrections[i] = shifted - point
            step = np.linalg.norm(point - previous, axis=1)
            done = step <= PROJECTION_TOL
            if np.count_nonzero(done):
                out[rows[done]] = point[done]
                rows, point, step = rows[~done], point[~done], step[~done]
                corrections = corrections[:, ~done]
        if rows.size:
            out[rows] = np.nan
            raise NumericalError(
                f"cyclic projection of {rows.size} point(s) did not converge in "
                f"{MAX_PROJECTION_SWEEPS} sweeps (largest last displacement "
                f"{step.max():.3e})",
                out,
            )
        return out

    def inward_normals(self, b, tol: float = BOUNDARY_TOL) -> np.ndarray:
        b = _vec(b, self.dim)
        slacks = self._slacks(b[None])[0]
        if np.min(slacks) < -tol:
            return np.empty((0, self.dim))
        active = np.abs(slacks) <= tol
        return self._normals[active].copy()


def project(domain: ConvexDomain, x) -> ProjectionResult:
    """Nearest point of ``x`` in the domain, with penetration distance."""
    x = _vec(x, domain.dim)
    p = domain.project_point(x)
    penetration = float(np.linalg.norm(x - p))
    return ProjectionResult(
        point=p,
        penetration=penetration,
        on_boundary=domain.boundary_distance(p) <= BOUNDARY_TOL,
    )


def anchor_gap(domain: ConvexDomain, x) -> float:
    """Slack of the anchor inequality for the displacement to the projection.

    For any point x, ``<x - anchor, x - P(x)> / clearance - |x - P(x)|`` is
    nonnegative: a ball of radius ``clearance`` around the anchor sits
    inside the domain, so the displacement to the nearest point makes an
    acute enough angle with the offset from the anchor.  Returned as a
    signed quantity so tests can assert it never dips below -1e-9.
    """
    x = _vec(x, domain.dim)
    p = domain.project_point(x)
    displacement = x - p
    dist = float(np.linalg.norm(displacement))
    inner = float((x - domain.anchor) @ displacement)
    return inner / domain.anchor_clearance - dist


def normal_cone_check(domain: ConvexDomain, b, direction, samples, tol: float = BOUNDARY_TOL) -> bool:
    """Variational test that ``-direction`` points out of the domain at ``b``.

    ``direction`` lies in the inward normal cone at boundary point ``b``
    exactly when ``<y - b, direction> >= 0`` for every y in the domain;
    this checks the inequality (within ``tol`` scaled by |y - b|) against
    the supplied domain points.  Raises if ``b`` is not on the boundary or
    a sample is outside the domain.
    """
    b = _vec(b, domain.dim)
    if not domain.contains(b, tol=max(tol, BOUNDARY_TOL)):
        raise DomainViolationError("cone base point is not in the domain")
    if domain.boundary_distance(b) > max(tol, BOUNDARY_TOL):
        raise DomainViolationError("cone base point is not on the boundary")
    d = _vec(direction, domain.dim)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    d = d / norm
    for y in samples:
        y = _vec(y, domain.dim)
        if not domain.contains(y, tol=max(tol, BOUNDARY_TOL)):
            raise ValueError("cone test sample lies outside the domain")
        if (y - b) @ d < -tol * max(1.0, float(np.linalg.norm(y - b))):
            return False
    return True
