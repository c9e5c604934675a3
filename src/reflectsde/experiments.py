"""Config-driven experiment runners shared by the CLI and the test suite.

Every runner takes a plain dict (already merged with any command-line
overrides), validates it, and returns an ExperimentReport plus named
artifacts (paths, tables).  Runners are deterministic functions of the
config, including all seeds, so reruns reproduce outputs byte for byte.
"""

from __future__ import annotations

import hashlib
import inspect
import json

import numpy as np

from .domain import Ball, Box, ConvexDomain, HalfSpace, Polyhedron
from .path import StepPath
from .penalty import SUP_FACTOR, PenalizedPath, penalty_bounds, solve_penalized
from .penalty import _penalty_variation, _relaxed, _sup_deviation
from .skorokhod import solve_skorokhod, verify_solution
from .sde import (
    Brownian,
    BrownianDrift,
    CompoundPoisson,
    ConstantMatrix,
    ConstantStart,
    DiagAffine,
    Drift,
    DriverSpec,
    Grid,
    Identity,
    JumpSizes,
    PowerDiagonal,
    TablePath,
    euler_penalized_batch,
    euler_projected_batch,
    sample_driver_batch,
)
from .stats import (
    ExperimentReport,
    ks_statistic,
    oscillation_diagnostic,
    reference_cdf,
)

__all__ = [
    "ConfigError",
    "BUILTIN_CONFIGS",
    "builtin_config",
    "config_digest",
    "build_domain",
    "build_driver",
    "build_coefficient",
    "build_grid",
    "run_skorokhod",
    "run_penalize",
    "run_simulate",
    "run_converge",
    "rbm_benchmark",
    "oscillation_benchmark",
    "refinement_study",
    "tail_bound_terms",
    "tail_structure_study",
]


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


def config_digest(cfg: dict) -> str:
    """Hash of the canonical JSON form of a config."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class _Section:
    """Context in which a ValueError or TypeError from building or checking
    a config section becomes a ConfigError naming the section; a
    ConfigError passes unchanged."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (TypeError, ValueError)) and kind is not ConfigError:
            raise ConfigError(f"{self.name}: {exc}") from exc


def _row(n, mesh, M, statistic, value, threshold=float("nan"), passed=True) -> dict:
    """One row of a convergence table."""
    keys = ("n", "mesh", "M", "statistic", "value", "threshold", "pass")
    return dict(zip(keys, (n, mesh, M, statistic, value, threshold, bool(passed))))


def _require(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return cfg[key]


def build_domain(cfg: dict) -> ConvexDomain:
    variant = _require(cfg, "variant", "domain")
    anchor = cfg.get("anchor")
    clearance = cfg.get("anchor_clearance")
    try:
        if variant == "halfline":
            return HalfSpace(
                [1.0], 0.0, anchor=[1.0] if anchor is None else anchor,
                anchor_clearance=clearance,
            )
        if variant == "halfspace":
            return HalfSpace(
                _require(cfg, "normal", "halfspace"),
                _require(cfg, "offset", "halfspace"),
                anchor=anchor,
                anchor_clearance=clearance,
            )
        if variant == "box":
            return Box(
                _require(cfg, "lower", "box"),
                _require(cfg, "upper", "box"),
                anchor=anchor,
                anchor_clearance=clearance,
            )
        if variant == "ball":
            return Ball(
                _require(cfg, "center", "ball"),
                _require(cfg, "radius", "ball"),
                anchor=anchor,
                anchor_clearance=clearance,
            )
        if variant == "polyhedron":
            faces = [
                HalfSpace(f["normal"], f["offset"])
                for f in _require(cfg, "faces", "polyhedron")
            ]
            if anchor is None:
                raise ConfigError("polyhedron: anchor is required")
            return Polyhedron(faces, anchor=anchor, anchor_clearance=clearance)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"domain: {exc}") from exc
    raise ConfigError(f"domain: unknown variant {variant!r}")


def _build_h(cfg: dict):
    kind = _require(cfg, "kind", "driver.h")
    with _Section("driver.h"):
        if kind == "constant":
            return ConstantStart(_require(cfg, "x0", "driver.h"))
        if kind == "brownian":
            return BrownianDrift(
                _require(cfg, "x0", "driver.h"),
                sigma=cfg.get("sigma", 1.0),
                drift=cfg.get("drift", 0.0),
            )
        if kind == "table":
            return TablePath(
                StepPath(
                    _require(cfg, "times", "driver.h"),
                    _require(cfg, "values", "driver.h"),
                    q=cfg.get("q"),
                )
            )
    raise ConfigError(f"driver.h: unknown kind {kind!r}")


def _build_z_component(cfg: dict):
    kind = _require(cfg, "kind", "driver.z")
    with _Section("driver.z"):
        if kind == "brownian":
            return Brownian(sigma=cfg.get("sigma", 1.0))
        if kind == "compound_poisson":
            jumps = _require(cfg, "jumps", "driver.z")
            return CompoundPoisson(
                rate=float(_require(cfg, "rate", "driver.z")),
                jumps=JumpSizes(
                    tag=_require(jumps, "tag", "driver.z.jumps"),
                    params=tuple(jumps.get("params", ())),
                ),
            )
        if kind == "drift":
            return Drift(rate=_require(cfg, "rate", "driver.z"))
    raise ConfigError(f"driver.z: unknown kind {kind!r}")


def build_driver(cfg: dict) -> DriverSpec:
    with _Section("driver"):
        dim = int(_require(cfg, "dim", "driver"))
    h = _build_h(_require(cfg, "h", "driver"))
    z = tuple(_build_z_component(c) for c in cfg.get("z", []))
    with _Section("driver"):
        return DriverSpec(dim=dim, h=h, z_components=z)


def build_coefficient(cfg: dict, dim: int):
    kind = _require(cfg, "kind", "coefficient")
    with _Section("coefficient"):
        if kind == "identity":
            return Identity(dim)
        if kind == "constant":
            return ConstantMatrix(_require(cfg, "matrix", "coefficient"))
        if kind == "diag_affine":
            return DiagAffine(
                dim,
                base=float(_require(cfg, "base", "coefficient")),
                slope=float(_require(cfg, "slope", "coefficient")),
            )
        if kind == "power_diag":
            return PowerDiagonal(
                dim,
                alpha=float(_require(cfg, "alpha", "coefficient")),
                cap=float(cfg.get("cap", np.inf)),
            )
    raise ConfigError(f"coefficient: unknown kind {kind!r}")


def build_grid(cfg: dict) -> Grid:
    with _Section("grid"):
        return Grid.regular(
            float(_require(cfg, "q", "grid")), int(_require(cfg, "cells", "grid"))
        )


def _build_input_path(cfg: dict) -> StepPath:
    spec = _require(cfg, "path", "experiment")
    with _Section("path"):
        return StepPath(
            _require(spec, "times", "path"),
            _require(spec, "values", "path"),
            q=spec.get("q"),
        )


def run_skorokhod(cfg: dict):
    """Reflect a configured step driver and verify the solution."""
    domain = build_domain(_require(cfg, "domain", "skorokhod"))
    driver = _build_input_path(cfg)
    with _Section("skorokhod"):
        solution = solve_skorokhod(domain, driver)
    tol = float(cfg.get("tol", 1e-9))
    report_data = verify_solution(domain, solution, tol=tol)
    report = ExperimentReport(params={"experiment": "skorokhod", "tol": tol})
    report.add_entry(
        "decomposition_residual",
        report_data.decomposition_residual,
        tol,
        report_data.decomposition_ok,
        driver.times.shape[0],
        "deterministic",
    )
    report.add_entry(
        "containment_residual",
        report_data.containment_residual,
        tol,
        report_data.containment_ok,
        driver.times.shape[0],
        "deterministic",
    )
    report.add_entry(
        "support_residual",
        report_data.support_residual,
        tol,
        report_data.support_ok,
        report_data.jumps_checked,
        "deterministic",
    )
    report.add_entry(
        "normal_residual",
        report_data.normal_residual,
        tol,
        report_data.normal_ok,
        report_data.jumps_checked,
        "deterministic",
    )
    artifacts = {"x": solution.x, "k": solution.k}
    return report, artifacts


def run_penalize(cfg: dict):
    """Solve the penalized equation for one or more rates."""
    domain = build_domain(_require(cfg, "domain", "penalize"))
    driver = _build_input_path(cfg)
    rates = cfg.get("n_list", [cfg.get("n", 100.0)])
    if not rates:
        raise ConfigError("penalize: empty rate sweep")
    report = ExperimentReport(params={"experiment": "penalize", "n_list": list(map(float, rates))})
    artifacts = {}
    rows = []
    delta = cfg.get("delta")
    for n in map(float, rates):
        with _Section("penalize"):
            sol = solve_penalized(domain, driver, n)
        artifacts[f"penalized_n{n:g}"] = sol
        rows.append(_row(n, 0.0, 1, "penalty_variation", sol.penalty_variation()))
    if delta is not None:
        bounds = penalty_bounds(domain, driver, float(delta))
        report.params["delta"] = float(delta)
        report.add_entry(
            "modulus_precondition",
            bounds.modulus,
            bounds.clearance / 2.0,
            bounds.precondition_ok,
            1,
            "deterministic",
        )
        for key, sol in artifacts.items():
            for name, value, bound in (
                ("sup_bound", sol.sup_deviation(domain.anchor), bounds.bound_sup),
                ("variation_bound", sol.penalty_variation(), bounds.bound_var),
            ):
                entry = (f"{name}[{key}]", value, bound, value <= bound + 1e-9)
                report.add_entry(*entry, 1, "deterministic")
    report.tables["rates"] = rows
    return report, artifacts


def run_simulate(cfg: dict):
    """Run the penalized Euler scheme over sampled drivers."""
    domain = build_domain(_require(cfg, "domain", "simulate"))
    spec = build_driver(_require(cfg, "driver", "simulate"))
    if spec.dim != domain.dim:
        raise ConfigError("simulate: driver and domain dimensions differ")
    grid = build_grid(_require(cfg, "grid", "simulate"))
    f = build_coefficient(cfg.get("coefficient", {"kind": "identity"}), spec.dim)
    if f.dim != domain.dim:
        raise ConfigError(
            f"simulate: coefficient dimension {f.dim} does not match "
            f"domain {domain.dim}"
        )
    n = float(cfg.get("n", 1e4))
    if not n > 0:
        raise ConfigError("simulate: n must be positive")
    paths = int(cfg.get("paths", 100))
    if paths < 1:
        raise ConfigError("simulate: need at least one path")
    seed = int(cfg.get("seed", 0))
    keep = min(int(cfg.get("keep_paths", 5)), paths)
    max_failures = int(cfg.get("max_numerical_failures", 0))

    # overflowing draws leave non-finite rows, counted as failures below
    with np.errstate(over="ignore"):
        H, Z = sample_driver_batch(spec, grid, seed, paths)
    with _Section("simulate: driver.h start"):
        inside = all(domain.contains(x0) for x0 in np.unique(H[:, 0], axis=0))
    if not inside:
        raise ConfigError("simulate: driver.h must start inside the domain")
    states, projections = euler_penalized_batch(domain, f, H, Z, n, grid)
    kept = {
        f"path_{i}": PenalizedPath(n, grid.times, states[i], projections[i], grid.q)
        for i in range(keep)
        if not np.isnan(states[i, 0, 0])
    }
    # failed rows are NaN; a finite gap above about 1e154 overflows it
    with np.errstate(over="ignore"):
        variations = _penalty_variation(
            states, projections, n, grid.times, grid.q, grid.q
        )
    finals = _relaxed(states[:, -1], projections[:, -1], n, 0.0)
    ok = np.isfinite(variations)
    failures = []
    for i in np.flatnonzero(~ok):
        reason = "penalty variation not finite"
        if np.isnan(states[i, 0, 0]):
            reason = "state not finite or projection did not converge"
            if not (np.isfinite(H[i]).all() and np.isfinite(Z[i]).all()):
                reason = "driver values not finite"
        failures.append({"path": int(i), "error": reason})

    report = ExperimentReport(
        params={
            "experiment": "simulate",
            "n": n,
            "paths": paths,
            "seed": seed,
            "cells": grid.cells,
            "q": grid.q,
            "numerical_failures": failures,
        }
    )
    report.add_entry(
        "numerical_failures",
        len(failures),
        max_failures,
        len(failures) <= max_failures,
        paths,
        f"seed={seed}",
    )
    if ok.any():
        # finite finals can sum past the float range: that statistic is null
        with np.errstate(over="ignore"):
            for j, column in enumerate(finals[ok].T, start=1):
                report.params[f"final_mean_{j}"] = _finite_or_none(np.mean(column))
                report.params[f"final_std_{j}"] = _finite_or_none(np.std(column))
        report.params["mean_penalty_variation"] = float(np.mean(variations[ok]))
    return report, kept


def _finite_or_none(value):
    return float(value) if np.isfinite(value) else None


def rbm_benchmark(
    seed: int,
    paths: int = 10_000,
    n: float = 2.0**12,
    cells: int = 2**10,
    q: float = 1.0,
    ks_threshold: float = 0.05,
    mean_sigmas: float = 3.0,
):
    """Reflected Brownian motion marginal benchmark on the half-line.

    Unit Brownian integrator, unit coefficient, start at the boundary.
    At t = 1 the reflected law is half-normal; checks the KS distance of
    the simulated marginal and the absolute-value mean against it.
    """
    domain = HalfSpace([1.0], 0.0, anchor=[1.0])
    spec = DriverSpec(dim=1, h=ConstantStart(0.0), z_components=(Brownian(1.0),))
    grid = Grid.regular(q, cells)
    H, Z = sample_driver_batch(spec, grid, seed, paths)
    states, _ = euler_penalized_batch(domain, Identity(1), H, Z, n, grid)
    finals = states[:, -1, 0]

    ks = ks_statistic(finals, reference_cdf("half_normal", scale=np.sqrt(q)))
    target = np.sqrt(2.0 * q / np.pi)
    abs_mean = float(np.mean(np.abs(finals)))
    se = float(np.std(np.abs(finals), ddof=1) / np.sqrt(paths))
    mean_err = abs(abs_mean - target)

    report = ExperimentReport(
        params={
            "experiment": "converge",
            "benchmark": "rbm",
            "seed": seed,
            "paths": paths,
            "n": n,
            "cells": cells,
            "q": q,
        }
    )
    rows = report.tables["convergence"] = []
    for name, value, threshold, passed in (
        ("ks_half_normal", ks, ks_threshold, ks < ks_threshold),
        ("abs_mean_error", mean_err, mean_sigmas * se, mean_err <= mean_sigmas * se),
    ):
        report.add_entry(name, value, threshold, passed, paths, f"seed={seed}")
        rows.append(_row(n, q / cells, paths, name, value, threshold, passed))
    return report


def oscillation_benchmark(
    seed: int,
    paths: int = 400,
    cells: int = 2**8,
    n: float = 256.0,
    q: float = 1.0,
    rate: float = 2.0,
    deltas=(0.4, 0.2, 0.1, 0.05),
    epsilons=(0.05, 0.1, 0.2),
):
    """Interlaced-modulus tails for a compound Poisson benchmark.

    The tails must be nonincreasing as delta shrinks, within twice the
    binomial band for the configured sample size.
    """
    domain = HalfSpace([1.0], 0.0, anchor=[1.0])
    spec = DriverSpec(
        dim=1,
        h=ConstantStart(0.5),
        z_components=(CompoundPoisson(rate, JumpSizes("normal", (0.0, 0.6))),),
    )
    grid = Grid.regular(q, cells)
    H, Z = sample_driver_batch(spec, grid, seed, paths)
    states, _ = euler_penalized_batch(domain, Identity(1), H, Z, n, grid)
    # penalized paths enter moduli through their breakpoint states
    xs = [StepPath(grid.times, s, grid.q) for s in states]
    zs = [StepPath(grid.times, z, grid.q) for z in Z]
    table = oscillation_diagnostic(xs, zs, deltas, epsilons, q)
    report = ExperimentReport(
        params={
            "experiment": "converge",
            "benchmark": "cp-oscillation",
            "seed": seed,
            "paths": paths,
            "n": n,
            "cells": cells,
            "rate": rate,
        }
    )
    band = 2.0 / np.sqrt(paths)
    report.add_entry(
        "oscillation_monotone",
        0.0 if table.monotone_within() else 1.0,
        0.5,
        table.monotone_within(),
        paths,
        f"seed={seed}",
    )
    report.tables["oscillation"] = [
        _row(n, q / cells, paths, f"tail[eps={eps:g},delta={delta:g}]", float(p), band)
        for eps, tails in zip(table.epsilons, table.probabilities)
        for delta, p in zip(table.deltas, tails)
    ]
    report.params["band"] = band
    return report


def refinement_study(
    seed: int,
    paths: int = 200,
    q: float = 1.0,
    levels=((1e2, 2**4), (1e4, 2**6), (1e6, 2**8)),
    reference_factor: int = 4,
):
    """Joint rate/mesh refinement against a fine projected reference.

    All schemes consume restrictions of one finest-grid driver per path
    (shared increments); the reference is the projected scheme on a grid
    ``reference_factor`` times finer than the finest level.  Reports the
    median sup distance per level, which must decrease strictly.
    """
    domain = HalfSpace([1.0], 0.0, anchor=[1.0])
    spec = DriverSpec(dim=1, h=ConstantStart(0.5), z_components=(Brownian(1.0),))
    f = DiagAffine(1, base=0.5, slope=0.25)
    finest_cells = max(int(c) for _, c in levels) * reference_factor
    fine = Grid.regular(q, finest_cells)
    H_fine, Z_fine = sample_driver_batch(spec, fine, seed, paths)
    ref_vals = euler_projected_batch(domain, f, H_fine, Z_fine, fine)

    rows = []
    medians = []
    for n, cells in levels:
        factor = finest_cells // int(cells)
        coarse = fine.coarsen(factor)
        Hc = H_fine[:, ::factor]
        Zc = Z_fine[:, ::factor]
        states, projections = euler_penalized_batch(domain, f, Hc, Zc, float(n), coarse)
        # evaluate the penalized path at every fine grid point: fine point
        # k * factor + j lies in coarse cell k
        cell = np.arange(coarse.cells).repeat(factor)
        elapsed = fine.times[:-1] - coarse.times[cell]
        inner = _relaxed(states[:, cell], projections[:, cell], float(n), elapsed)
        vals = np.hstack([inner[:, :, 0], states[:, -1:, 0]])
        med = float(np.median(np.max(np.abs(vals - ref_vals[:, :, 0]), axis=1)))
        medians.append(med)
        rows.append(_row(float(n), q / cells, paths, "median_sup_distance", med))

    report = ExperimentReport(
        params={
            "experiment": "converge",
            "benchmark": "strong-refinement",
            "seed": seed,
            "paths": paths,
            "levels": [[float(n), int(c)] for n, c in levels],
        }
    )
    decreasing = all(m2 < m1 for m1, m2 in zip(medians, medians[1:]))
    report.add_entry(
        "median_sup_strictly_decreasing",
        0.0 if decreasing else 1.0,
        0.5,
        decreasing,
        paths,
        f"seed={seed}",
    )
    report.tables["convergence"] = rows
    return report


def tail_bound_terms(
    eta: float,
    delta: float,
    q: float,
    clearance: float,
    h_sup_samples: np.ndarray,
    h_modulus_samples: np.ndarray,
    expected_energy: float,
    c_one: float,
):
    """Right-hand side of the deviation and variation tail bounds.

    C1 doubles the sup-bound multiplier 2 sqrt(7) ([q/delta] + 1); the H
    deviation term uses the threshold eta / C1, and the driver-energy term
    carries C2 = 4 C(1).  Returns (rhs_deviation, rhs_variation).
    """
    r = int(np.floor(q / delta)) + 1
    c_prime = SUP_FACTOR * r
    c1 = 2.0 * c_prime
    c2 = 4.0 * c_one
    p_modulus = float(np.mean(h_modulus_samples >= clearance / 2.0))
    p_dev = float(np.mean(h_sup_samples >= eta / c1))
    base = p_modulus + p_dev + c2 * expected_energy / eta**2
    base7 = 7.0 * p_modulus + p_dev + c2 * expected_energy / eta**2
    return base, base7


def tail_structure_study(
    seed: int,
    calibration_seed: int = 31337,
    paths: int = 10_000,
    q: float = 1.0,
    cells: int = 2**8,
    n_list=(16.0, 256.0, 4096.0),
    etas=(0.5, 1.0, 2.0, 4.0),
    delta: float = 0.25,
    headroom: float = 1.2,
):
    """Structure check of the deviation/variation tail bounds.

    Benchmark: half-line, H frozen at the anchor, unit Brownian
    integrator, unit coefficient.  C(1) is calibrated as ``headroom``
    times the largest observed ratio on the calibration seed and then
    frozen; the bounds must hold on the fresh seed for every (form, n,
    eta) cell.  With H at the anchor the modulus and H-deviation terms
    vanish, so the bound reduces to the driver-energy term.
    """
    domain = HalfSpace([1.0], 0.0, anchor=[1.0])
    spec = DriverSpec(dim=1, h=ConstantStart(1.0), z_components=(Brownian(1.0),))
    grid = Grid.regular(q, cells)
    clearance = domain.anchor_clearance
    expected_energy = spec.expected_bracket(q) + spec.expected_variation(q) ** 2

    def empirical_tails(run_seed):
        H, Z = sample_driver_batch(spec, grid, run_seed, paths)
        out = {}
        for n in n_list:
            X, P = euler_penalized_batch(domain, Identity(1), H, Z, float(n), grid)
            batch = (X, P, float(n), grid.times, grid.q)
            sup_dev = _sup_deviation(*batch, domain.anchor)
            out[n] = (sup_dev, _penalty_variation(*batch, grid.q))
        return out

    r = int(np.floor(q / delta)) + 1
    c1 = 2.0 * SUP_FACTOR * r

    cal = empirical_tails(calibration_seed)
    worst = 0.0
    for n in n_list:
        sup_dev, variation = cal[n]
        for eta in etas:
            lhs_dev = float(np.mean(sup_dev >= eta))
            lhs_var = float(np.mean(variation >= eta**2))
            # with H at the anchor both H terms vanish; the energy term
            # must carry each inequality alone
            needed = max(lhs_dev, lhs_var) * eta**2 / (4.0 * expected_energy)
            worst = max(worst, needed)
    c_one = headroom * worst

    fresh = empirical_tails(seed)
    report = ExperimentReport(
        params={
            "experiment": "converge",
            "benchmark": "tail-structure",
            "seed": seed,
            "calibration_seed": calibration_seed,
            "paths": paths,
            "cells": cells,
            "delta": delta,
            "c_one": c_one,
            "c1_threshold_divisor": c1,
            "expected_energy": expected_energy,
        }
    )
    rows = []
    for n in n_list:
        sup_dev, variation = fresh[n]
        for eta in etas:
            rhs = 4.0 * c_one * expected_energy / eta**2
            for form, lhs in (
                ("deviation", float(np.mean(sup_dev >= eta))),
                ("variation", float(np.mean(variation >= eta**2))),
            ):
                passed = lhs <= rhs + 1e-12
                report.add_entry(
                    f"tail[{form},n={n:g},eta={eta:g}]",
                    lhs,
                    rhs,
                    passed,
                    paths,
                    f"seed={seed}",
                )
                stat = f"tail_{form}[eta={eta:g}]"
                rows.append(_row(float(n), q / cells, paths, stat, lhs, rhs, passed))
    report.tables["tails"] = rows
    return report


# The convergence studies by benchmark tag.  A study's keyword defaults are
# the one table of its parameters: the built-in configs copy them, and
# run_converge casts config values to their types.
_STUDIES = {
    "rbm": rbm_benchmark,
    "cp-oscillation": oscillation_benchmark,
    "strong-refinement": refinement_study,
    "tail-structure": tail_structure_study,
}


def _study_defaults(benchmark: str) -> dict:
    params = inspect.signature(_STUDIES[benchmark]).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


def _converge_config(benchmark: str) -> dict:
    cfg = {"experiment": "converge", "benchmark": benchmark, "seed": 20260817}
    return json.loads(json.dumps({**cfg, **_study_defaults(benchmark)}))


def _coerce(default, value):
    """Cast a config value to the type of the study default it replaces,
    element by element for lists (pairs position by position)."""
    if not isinstance(default, tuple):
        return type(default)(value)
    if isinstance(default[0], tuple):
        return tuple(tuple(map(_coerce, default[0], v)) for v in value)
    return tuple(_coerce(default[0], v) for v in value)


BUILTIN_CONFIGS = {
    "rbm-benchmark": _converge_config("rbm"),
    "cp-oscillation": _converge_config("cp-oscillation"),
    "strong-refinement": _converge_config("strong-refinement"),
    "tail-structure": _converge_config("tail-structure"),
    "halfline-threejump": {
        "experiment": "skorokhod",
        "domain": {"variant": "halfline"},
        "path": {
            "times": [0.0, 0.25, 0.5, 0.75],
            "values": [[0.5], [-0.75], [1.0], [-0.25]],
            "q": 1.0,
        },
        "tol": 1e-9,
    },
}


def builtin_config(name: str) -> dict:
    if name not in BUILTIN_CONFIGS:
        known = ", ".join(sorted(BUILTIN_CONFIGS))
        raise ConfigError(f"unknown builtin config {name!r} (available: {known})")
    return json.loads(json.dumps(BUILTIN_CONFIGS[name]))


def run_converge(cfg: dict):
    """Run a convergence study by its tag; keys of the config override the
    study's defaults."""
    benchmark = _require(cfg, "benchmark", "converge")
    if not isinstance(benchmark, str) or benchmark not in _STUDIES:
        raise ConfigError(f"converge: unknown benchmark {benchmark!r}")
    with _Section("converge"):
        seed = int(cfg.get("seed", 0))
        params = {
            key: _coerce(default, cfg[key])
            for key, default in _study_defaults(benchmark).items()
            if key in cfg
        }
    if params.get("paths", 1) < 1:
        raise ConfigError("converge: need at least one path")
    return _STUDIES[benchmark](seed, **params), {}
