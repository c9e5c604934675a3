"""Config-driven experiment runners shared by the CLI and the test suite.

Every runner takes a plain dict (already merged with any command-line
overrides) and first walks it against its command's table in
``_COMMANDS``, which gives each key of each section its type and default:
an unknown key, a value of the wrong type or a number that is not finite
is a ConfigError before anything runs.  The builders pass the checked
values to the constructors, which keep their own range checks.  A runner
returns an ExperimentReport plus named artifacts (paths, tables); it is a
deterministic function of the config, seeds included, so reruns
reproduce outputs byte for byte.
"""

from __future__ import annotations

import hashlib
import inspect
import json

import numpy as np

from .domain import Ball, Box, ConvexDomain, HalfSpace, Polyhedron
from .path import StepPath, _median
from .penalty import SUP_FACTOR, PenalizedPath, penalty_bounds, solve_penalized
from .penalty import _each, _Gaps, _Keep, _rate, _SupDistance
from .skorokhod import solve_skorokhod, verify_solution
from .sde import Brownian, BrownianDrift, CompoundPoisson, ConstantMatrix, ConstantStart
from .sde import DiagAffine, Drift, DriverSpec, Grid, Identity, JumpSizes, PowerDiagonal
from .sde import TablePath, euler_penalized_batch, euler_projected_batch
from .sde import sample_driver_batch
from .stats import ExperimentReport, _nonempty, ks_statistic, oscillation_diagnostic
from .stats import reference_cdf

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
    "tail_structure_study",
]


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


def config_digest(cfg: dict) -> str:
    """Hash of the canonical JSON form of a config."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class _Section:
    """Context in which a ValueError, TypeError or ZeroDivisionError from
    building or checking a config section becomes a ConfigError naming the
    section; a ConfigError passes unchanged."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        invalid = (TypeError, ValueError, ZeroDivisionError)
        if isinstance(exc, invalid) and kind is not ConfigError:
            raise ConfigError(f"{self.name}: {exc}") from exc


# The config schema: one table per section, mapping each key to its entry.
# - A default (float, int, str, or a tuple: a list typed by its first
#   element, pairs position by position) makes the key optional, of that type.
# - A type (float, int, str, _Numbers) or a section makes it required.
# - [entry] is a list of entries, empty when the key is absent.
# - _Optional(entry), absent or null, is not passed on to the constructor.


class _Numbers:
    """A number or a list of them, nested to any depth, passed on as given."""


class _Optional:
    def __init__(self, entry):
        self.entry = entry


class _Tagged:
    """A section whose table is chosen by the value of its tag key; with a
    default tag, an absent section holds that tag's defaults.  Each tag
    names a pair: the constructor of what it builds, and its table."""

    def __init__(self, tag: str, default=None, **entries):
        self.tag, self.default, self.entries = tag, default, entries
        self.tables = {t: table for t, (_, table) in entries.items()}

    def build(self, checked: dict, section: str, *args):
        """What a checked section builds: its tag's constructor called with
        ``args`` and the other keys, any error named by ``section``."""
        rest = {k: v for k, v in checked.items() if k != self.tag}
        with _Section(section):
            return self.entries[checked[self.tag]][0](*args, **rest)


_ANCHORED = {"anchor": _Optional(_Numbers), "anchor_clearance": _Optional(float)}
_FACE = {"normal": _Numbers, "offset": float}
_DOMAIN = _Tagged(
    "variant",
    halfline=(lambda **args: HalfSpace([1.0], 0.0, **args), _ANCHORED),
    halfspace=(HalfSpace, {**_FACE, **_ANCHORED}),
    box=(Box, {"lower": _Numbers, "upper": _Numbers, **_ANCHORED}),
    ball=(Ball, {"center": _Numbers, "radius": float, **_ANCHORED}),
    polyhedron=(
        lambda faces, **args: Polyhedron([HalfSpace(**f) for f in faces], **args),
        {**_ANCHORED, "faces": [_FACE], "anchor": _Numbers},
    ),
)
_PATH = {"times": _Numbers, "values": _Numbers, "q": _Optional(float)}
_SIGMA = {"sigma": _Optional(_Numbers)}
_H = _Tagged(
    "kind",
    constant=(ConstantStart, {"x0": _Numbers}),
    brownian=(BrownianDrift, {"x0": _Numbers, **_SIGMA, "drift": _Optional(_Numbers)}),
    table=(lambda **path: TablePath(StepPath(**path)), _PATH),
)
_Z = _Tagged(
    "kind",
    brownian=(Brownian, _SIGMA),
    compound_poisson=(
        lambda rate, jumps: CompoundPoisson(rate, JumpSizes(**jumps)),
        {"rate": float, "jumps": {"tag": str, "params": [float]}},
    ),
    drift=(Drift, {"rate": _Numbers}),
)
_COEFFICIENT = _Tagged(
    "kind",
    "identity",
    identity=(Identity, {}),
    constant=(lambda dim, matrix: ConstantMatrix(matrix), {"matrix": _Numbers}),
    diag_affine=(DiagAffine, {"base": float, "slope": float}),
    power_diag=(PowerDiagonal, {"alpha": float, "cap": _Optional(float)}),
)
_SEED = {"seed": 0}
_SKOROKHOD = {"domain": _DOMAIN, "path": _PATH, "tol": 1e-9}
_PENALIZE = {
    "domain": _DOMAIN,
    "path": _PATH,
    "n": _Optional(float),
    "n_list": (100.0,),
    "delta": _Optional(float),
}
_SIMULATE = {
    "domain": _DOMAIN,
    "driver": {"dim": int, "h": _H, "z": [_Z]},
    "grid": {"q": float, "cells": int},
    "coefficient": _COEFFICIENT,
    "n": 1e4,
    "paths": 100,
    **_SEED,
    "keep_paths": 5,
    "max_numerical_failures": 0,
}


def _path(parts) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in parts)[1:]


def _wrong(root: str, parts, kind, value) -> ConfigError:
    """A value of the wrong type.  One that should hold a section is named
    by its own path, as the section's constructor errors are; any other by
    the section it lies in and its key path there, or by the command."""
    got = {bool: "a boolean", str: "a string", dict: "an object", list: "a list"}
    got = got.get(type(value), "null" if value is None else repr(value))
    inner = kind[0] if isinstance(kind, list) else kind
    if isinstance(inner, (dict, _Tagged)):
        noun = "a list" if isinstance(kind, list) else "an object"
        return ConfigError(f"{_path(parts) or root}: expected {noun}, got {got}")
    if len(parts) > 1 and isinstance(parts[1], str):
        root, parts = parts[0], parts[1:]
    nouns = {int: "an integer", str: "a string", _Numbers: "a number or a list of them"}
    noun = f"a list of {len(kind)} entries" if isinstance(kind, tuple) else "a list"
    if not isinstance(kind, (list, tuple)):
        noun = nouns.get(kind, "a number")
    return ConfigError(f"{root}: {_path(parts)} must be {noun}, got {got}")


def _kind(entry):
    """The type a table entry gives its key: a default's own type."""
    if isinstance(entry, tuple):
        first = entry[0]
        return [tuple(map(type, first)) if isinstance(first, tuple) else type(first)]
    return type(entry) if isinstance(entry, (float, int, str)) else entry


def _walk(kind, value, root: str, parts=()):
    """``value`` checked against a table entry's type: numbers cast to it,
    lists made tuples, sections walked with their defaults filled in.  An
    unknown key, a missing required one, a value of the wrong type or a
    number that is not finite raises a ConfigError."""
    where = _path(parts) or root
    if isinstance(kind, (dict, _Tagged)) and not isinstance(value, dict):
        raise _wrong(root, parts, kind, value)
    if isinstance(kind, _Tagged):
        tag = value.get(kind.tag, kind.default)
        if tag is None:
            raise ConfigError(f"{where}: missing required key {kind.tag!r}")
        if not isinstance(tag, str) or tag not in kind.tables:
            raise ConfigError(f"{where}: unknown {kind.tag} {tag!r}")
        rest = {k: v for k, v in value.items() if k != kind.tag}
        return {kind.tag: tag, **_walk(kind.tables[tag], rest, root, parts)}
    if isinstance(kind, dict):
        checked = {}
        for key, entry in kind.items():
            if isinstance(entry, _Optional):
                if value.get(key) is not None:
                    checked[key] = _walk(entry.entry, value[key], root, (*parts, key))
            elif key in value:
                checked[key] = _walk(_kind(entry), value[key], root, (*parts, key))
            elif isinstance(entry, (float, int, str, tuple)):
                checked[key] = entry
            elif isinstance(entry, list):
                checked[key] = ()
            elif isinstance(entry, _Tagged) and entry.default:
                checked[key] = _walk(entry, {}, root, (*parts, key))
            else:
                raise ConfigError(f"{where}: missing required key {key!r}")
        # after the known keys, so that a non-finite number is named first
        for key in value:
            if key not in kind:
                raise ConfigError(f"{root}: {_path((*parts, key))}: unknown key")
        return checked
    if isinstance(kind, (list, tuple)):
        fixed = isinstance(kind, tuple)
        if not isinstance(value, (list, tuple)) or fixed and len(value) != len(kind):
            raise _wrong(root, parts, kind, value)
        kinds = kind if fixed else kind * len(value)
        pairs = enumerate(zip(kinds, value))
        return tuple(_walk(k, v, root, (*parts, i)) for i, (k, v) in pairs)
    if kind is _Numbers and isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _walk(_Numbers, item, root, (*parts, i))
        return value
    if not (isinstance(value, str) if kind is str else type(value) in (int, float)):
        raise _wrong(root, parts, kind, value)
    # NaN, an infinity (JSON reads 1e400 as one), or an integer past the floats
    if kind is not str and not abs(value) <= np.finfo(float).max:
        raise ConfigError(f"{root}: {where} must be finite, got {value}")
    if kind is int and not float(value).is_integer():
        raise _wrong(root, parts, kind, value)
    return kind(value) if kind in (int, float) else value


def _checked(command: str, cfg):
    """A command's config checked against its table, with every default
    filled in; the runners read nothing else."""
    declared = cfg.get("experiment", command) if isinstance(cfg, dict) else command
    if declared != command:
        raise ConfigError(f"config is for experiment {declared!r}, not {command!r}")
    if isinstance(cfg, dict):
        cfg = {k: v for k, v in cfg.items() if k != "experiment"}
    return _walk(_COMMANDS[command], cfg, command)


def _row(n, mesh, M, statistic, value, threshold=None, passed=True) -> dict:
    """One row of a convergence table; a row without a threshold has
    ``None`` there, which the report writes as JSON ``null``."""
    keys = ("n", "mesh", "M", "statistic", "value", "threshold", "pass")
    return dict(zip(keys, (n, mesh, M, statistic, value, threshold, bool(passed))))


def build_domain(cfg: dict) -> ConvexDomain:
    """The domain of a checked ``domain`` section."""
    return _DOMAIN.build(cfg, "domain")


def build_driver(cfg: dict) -> DriverSpec:
    """The driver of a checked ``driver`` section."""
    with _Section("driver"):
        h = _H.build(cfg["h"], "driver.h")
        z = tuple(_Z.build(part, "driver.z") for part in cfg["z"])
        return DriverSpec(dim=cfg["dim"], h=h, z_components=z)


def build_coefficient(cfg: dict, dim: int):
    """The coefficient of a checked ``coefficient`` section in dimension ``dim``."""
    return _COEFFICIENT.build(cfg, "coefficient", dim)


def build_grid(cfg: dict) -> Grid:
    """The grid of a checked ``grid`` section."""
    with _Section("grid"):
        return Grid.regular(**cfg)


def _build_input_path(cfg: dict) -> StepPath:
    with _Section("path"):
        return StepPath(**cfg)


def run_skorokhod(cfg: dict):
    """Reflect a configured step driver and verify the solution."""
    cfg = _checked("skorokhod", cfg)
    domain = build_domain(cfg["domain"])
    driver = _build_input_path(cfg["path"])
    tol = cfg["tol"]
    if not tol > 0.0:
        raise ConfigError(f"skorokhod: tol must be positive, got {tol}")
    with _Section("skorokhod"):
        solution = solve_skorokhod(domain, driver)
    with np.errstate(over="raise", invalid="raise"):
        check = verify_solution(domain, solution, tol=tol)
    report = ExperimentReport(params={"experiment": "skorokhod", "tol": tol})
    states, jumps = driver.times.shape[0], check.jumps_checked
    for name, residual, threshold, ok, size in (
        ("decomposition", check.decomposition_residual, tol, check.decomposition_ok, states),
        ("containment", check.containment_residual, tol, check.containment_ok, states),
        ("support", check.support_residual, check.boundary_tol, check.support_ok, jumps),
        ("normal", check.normal_residual, check.boundary_tol, check.normal_ok, jumps),
    ):
        report.add_entry(f"{name}_residual", residual, threshold, ok, size, "deterministic")
    return report, {"x": solution.x, "k": solution.k}


def run_penalize(cfg: dict):
    """Solve the penalized equation for one or more rates."""
    checked = _checked("penalize", cfg)
    if "n" in checked and "n_list" in cfg:
        raise ConfigError("penalize: n and n_list both given; give one of them")
    domain = build_domain(checked["domain"])
    driver = _build_input_path(checked["path"])
    rates = [checked["n"]] if "n" in checked else list(checked["n_list"])
    if not rates:
        raise ConfigError("penalize: empty rate sweep")
    # each rate writes an artifact of its own, and a report entry per bound
    names = [f"penalized_n{n:g}" for n in rates]
    for i, name in enumerate(names):
        if name in names[:i]:
            twin = rates[names.index(name)]
            clash = f"rates {twin!r} and {rates[i]!r} both name {name}"
            raise ConfigError(f"penalize: {clash}")
    report = ExperimentReport(params={"experiment": "penalize", "n_list": rates})
    artifacts, rows = {}, []
    delta = checked.get("delta")
    # arithmetic that leaves the float range fails as a numerical error
    with _Section("penalize"), np.errstate(over="raise", invalid="raise"):
        for name, n in zip(names, rates):
            sol = artifacts[name] = solve_penalized(domain, driver, n)
            rows.append(_row(n, 0.0, 1, "penalty_variation", sol.penalty_variation()))
        if delta is not None:
            bounds = penalty_bounds(domain, driver, delta)
            report.params["delta"] = delta
            check = (bounds.modulus, bounds.clearance / 2.0, bounds.precondition_ok)
            report.add_entry("modulus_precondition", *check, 1, "deterministic")
            # each rate's variation is computed once, for its table row
            for (key, sol), row in zip(artifacts.items(), rows):
                for name, value, bound in (
                    ("sup_bound", sol.sup_deviation(domain.anchor), bounds.bound_sup),
                    ("variation_bound", row["value"], bounds.bound_var),
                ):
                    entry = (f"{name}[{key}]", value, bound, value <= bound + 1e-9)
                    report.add_entry(*entry, 1, "deterministic")
    report.tables["rates"] = rows
    return report, artifacts


def run_simulate(cfg: dict):
    """Run the penalized Euler scheme over sampled drivers."""
    cfg = _checked("simulate", cfg)
    domain = build_domain(cfg["domain"])
    spec = build_driver(cfg["driver"])
    if spec.dim != domain.dim:
        raise ConfigError("simulate: driver and domain dimensions differ")
    grid = build_grid(cfg["grid"])
    f = build_coefficient(cfg["coefficient"], spec.dim)
    if f.dim != domain.dim:
        mismatch = f"coefficient dimension {f.dim} does not match domain {domain.dim}"
        raise ConfigError(f"simulate: {mismatch}")
    with _Section("simulate"):
        n = _rate(cfg["n"])
    paths, seed, keep, max_failures = (
        cfg[key] for key in ("paths", "seed", "keep_paths", "max_numerical_failures")
    )
    if paths < 1:
        raise ConfigError("simulate: need at least one path")
    for key, count in (("keep_paths", keep), ("max_numerical_failures", max_failures)):
        if count < 0:
            raise ConfigError(f"simulate: {key} must be nonnegative, got {count}")
    keep = min(keep, paths)
    # overflowing draws (inf, or inf - inf) leave non-finite rows, counted as failures below
    with _Section("simulate"):
        with np.errstate(over="ignore", invalid="ignore"):
            H, Z = sample_driver_batch(spec, grid, seed, paths)
    # every kind of H starts each row at its one start point
    with _Section("simulate: driver.h start"):
        inside = domain.contains(H[0, 0])
    if not inside:
        raise ConfigError("simulate: driver.h must start inside the domain")
    # the first keep rows' histories, the gap column and the finals
    history = _Keep(None, grid.cells + 1, keep, domain.dim)
    gaps = _Gaps(n, grid.times, grid.q, paths)
    visit = _each(history, gaps)
    finals = euler_penalized_batch(domain, f, H, Z, n, grid, [grid.cells], visit)[0][:, 0]
    finite = ~np.isnan(finals[:, 0])  # a failed row is NaN throughout
    rows = [i for i in range(keep) if finite[i]]
    states, projections = history.states[rows], history.projections[rows]
    batch = PenalizedPath._batch(n, grid.times, states, projections, grid.q)
    kept = {f"path_{i}": path for i, path in zip(rows, batch)}
    # a gap past the float range, or gaps summing past it, overflow the variation
    with np.errstate(over="ignore"):
        variations = gaps.variation(grid.q)
    ok = finite & np.isfinite(variations)
    failures = []
    for i in np.flatnonzero(~ok):
        reason = "penalty variation not finite"
        if not finite[i]:
            reason = "state not finite or projection not certified"
            if not (np.isfinite(H[i]).all() and np.isfinite(Z[i]).all()):
                reason = "driver values not finite"
        failures.append({"path": int(i), "error": reason})

    run = {"n": n, "paths": paths, "seed": seed, "cells": grid.cells, "q": grid.q}
    report = ExperimentReport(
        params={"experiment": "simulate", **run, "numerical_failures": failures}
    )
    count = len(failures)
    entry = ("numerical_failures", count, max_failures, count <= max_failures)
    report.add_entry(*entry, paths, f"seed={seed}")
    if ok.any():
        # finite finals and variations can sum past the float range: that statistic is null
        with np.errstate(over="ignore"):
            for j, column in enumerate(finals[ok].T, start=1):
                report.params[f"final_mean_{j}"] = _finite_or_none(np.mean(column))
                report.params[f"final_std_{j}"] = _finite_or_none(np.std(column))
            mean_variation = _finite_or_none(np.mean(variations[ok]))
        report.params["mean_penalty_variation"] = mean_variation
    return report, kept


def _finite_or_none(value):
    return float(value) if np.isfinite(value) else None


def _study_report(benchmark: str, **params) -> ExperimentReport:
    return ExperimentReport(
        params={"experiment": "converge", "benchmark": benchmark, **params}
    )


def _add_check(report, name: str, holds, paths: int, seed: int) -> None:
    """A pass/fail entry: value 0 when the check holds, else 1, against 1/2."""
    report.add_entry(name, 0.0 if holds else 1.0, 0.5, holds, paths, f"seed={seed}")


# the domain of every converge study
_HALFLINE = HalfSpace([1.0], 0.0, anchor=[1.0])


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
    spec = DriverSpec(dim=1, h=ConstantStart(0.0), z_components=(Brownian(1.0),))
    grid = Grid.regular(q, cells)
    H, Z = sample_driver_batch(spec, grid, seed, paths)
    states, _ = euler_penalized_batch(_HALFLINE, Identity(1), H, Z, n, grid, at=[grid.cells])
    finals = states[:, 0, 0]

    ks = ks_statistic(finals, reference_cdf("half_normal", scale=np.sqrt(q)))
    target = np.sqrt(2.0 * q / np.pi)
    abs_mean = float(np.mean(np.abs(finals)))
    se = float(np.std(np.abs(finals), ddof=1) / np.sqrt(paths))
    mean_err = abs(abs_mean - target)

    report = _study_report("rbm", seed=seed, paths=paths, n=n, cells=cells, q=q)
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
    _nonempty(deltas=deltas, epsilons=epsilons)
    jumps = CompoundPoisson(rate, JumpSizes("normal", (0.0, 0.6)))
    spec = DriverSpec(dim=1, h=ConstantStart(0.5), z_components=(jumps,))
    grid = Grid.regular(q, cells)
    H, Z = sample_driver_batch(spec, grid, seed, paths)
    # the moduli read the states alone, a failed row as NaN; one batch, one breakpoint array
    kept = _Keep(None, grid.cells + 1, paths, 1, projections=False)
    finals, _ = euler_penalized_batch(_HALFLINE, Identity(1), H, Z, n, grid, [grid.cells], kept)
    kept.states[np.isnan(finals[:, 0, 0])] = np.nan
    steps = StepPath._batch(grid.times, np.concatenate((kept.states, Z)), grid.q)
    xs, zs = steps[:paths], steps[paths:]
    table = oscillation_diagnostic(xs, zs, deltas, epsilons, q)
    params = dict(seed=seed, paths=paths, n=n, cells=cells, rate=rate)
    report = _study_report("cp-oscillation", **params)
    band = 2.0 / np.sqrt(paths)
    _add_check(report, "oscillation_monotone", table.monotone_within(), paths, seed)
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
    median sup distance per level, which must decrease strictly.  Each row
    reduces as the kernel steps; a failed row or an overflow fails the run.
    """
    _nonempty(levels=[n for n, _ in levels])  # the ladder of a level's rates
    spec = DriverSpec(dim=1, h=ConstantStart(0.5), z_components=(Brownian(1.0),))
    f = DiagAffine(1, base=0.5, slope=0.25)
    finest_cells = max(int(c) for _, c in levels) * reference_factor
    fine = Grid.regular(q, finest_cells)
    H_fine, Z_fine = sample_driver_batch(spec, fine, seed, paths)
    reference = euler_projected_batch(_HALFLINE, f, H_fine, Z_fine, fine).transpose(1, 0, 2)

    rows, medians = [], []
    for n, cells in levels:
        n, factor = float(n), finest_cells // int(cells)
        coarse = fine.coarsen(factor)
        sup = _SupDistance(reference, n, coarse.times, q, fine.times)
        H, Z = H_fine[:, ::factor], Z_fine[:, ::factor]
        finals, _ = euler_penalized_batch(_HALFLINE, f, H, Z, n, coarse, [coarse.cells], sup)
        if np.isnan(finals).any() or not np.isfinite(sup.sup).all():
            raise FloatingPointError("a path failed, or its sup distance overflowed")
        med = float(_median(sup.sup))
        medians.append(med)
        rows.append(_row(n, q / cells, paths, "median_sup_distance", med))

    ladder = [[float(n), int(c)] for n, c in levels]
    report = _study_report("strong-refinement", seed=seed, paths=paths, levels=ladder)
    decreasing = all(m2 < m1 for m1, m2 in zip(medians, medians[1:]))
    _add_check(report, "median_sup_strictly_decreasing", decreasing, paths, seed)
    report.tables["convergence"] = rows
    return report


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
    _nonempty(n_list=n_list, etas=etas)
    spec = DriverSpec(dim=1, h=ConstantStart(1.0), z_components=(Brownian(1.0),))
    grid = Grid.regular(q, cells)
    expected_energy = spec.expected_bracket(q) + spec.expected_variation(q) ** 2
    # the bounds are 4 C(1) times the energy over eta^2, in Python floats,
    # which overflow without raising
    if not np.isfinite(4.0 * expected_energy):
        raise FloatingPointError("overflow encountered in the expected driver energy")

    def tails(run_seed):
        """(rates, etas, 2) fractions: sup deviation >= eta, variation >= eta^2."""
        H, Z = sample_driver_batch(spec, grid, run_seed, paths)
        out = np.empty((len(n_list), len(etas), 2))
        for i, n in enumerate(map(float, n_list)):
            sup = _SupDistance(_HALFLINE.anchor, n, grid.times, grid.q)
            gaps = _Gaps(n, grid.times, grid.q, paths)
            visit = _each(sup, gaps)
            X, _ = euler_penalized_batch(_HALFLINE, Identity(1), H, Z, n, grid, [grid.cells], visit)
            with np.errstate(over="ignore"):
                both = np.array([sup.sup, gaps.variation(grid.q)])
            # a failed row is NaN; the kernel ignores overflow, so a finite
            # row's overflowed functional fails the run here
            both[:, np.isnan(X[:, 0, 0])] = np.nan
            if np.isinf(both).any():
                raise FloatingPointError("overflow encountered in a sup distance or variation")
            for j, eta in enumerate(etas):
                out[i, j] = np.mean(both[0] >= eta), np.mean(both[1] >= eta**2)
        return out

    c1 = 2.0 * SUP_FACTOR * (int(np.floor(q / delta)) + 1)

    # with H at the anchor both H terms vanish; the energy term must carry
    # each inequality alone
    squares = np.array([eta**2 for eta in etas])
    needed = tails(calibration_seed).max(axis=2) * squares / (4.0 * expected_energy)
    c_one = headroom * float(needed.max())

    fresh = tails(seed)
    params = dict(seed=seed, calibration_seed=calibration_seed, paths=paths)
    params.update(cells=cells, delta=delta, c_one=c_one, c1_threshold_divisor=c1)
    report = _study_report("tail-structure", **params, expected_energy=expected_energy)
    rows = []
    for (i, j, k), lhs in np.ndenumerate(fresh):
        n, eta, lhs = n_list[i], etas[j], float(lhs)
        form = ("deviation", "variation")[k]
        rhs = 4.0 * c_one * expected_energy / eta**2
        passed = lhs <= rhs + 1e-12
        entry = (f"tail[{form},n={n:g},eta={eta:g}]", lhs, rhs, passed)
        report.add_entry(*entry, paths, f"seed={seed}")
        stat = f"tail_{form}[eta={eta:g}]"
        rows.append(_row(float(n), q / cells, paths, stat, lhs, rhs, passed))
    report.tables["tails"] = rows
    return report


# The convergence studies by benchmark tag.  A study's keyword defaults are
# the one table of its parameters: the built-in configs copy them, and the
# converge table is built from them.
_STUDIES = {
    "rbm": rbm_benchmark,
    "cp-oscillation": oscillation_benchmark,
    "strong-refinement": refinement_study,
    "tail-structure": tail_structure_study,
}


def _study_defaults(benchmark: str) -> dict:
    params = inspect.signature(_STUDIES[benchmark]).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


_COMMANDS = {
    "skorokhod": _SKOROKHOD,
    "penalize": _PENALIZE,
    "simulate": _SIMULATE,
    "converge": _Tagged(
        "benchmark",
        **{b: (s, {**_SEED, **_study_defaults(b)}) for b, s in _STUDIES.items()},
    ),
}


def _converge_config(benchmark: str) -> dict:
    cfg = {"experiment": "converge", "benchmark": benchmark, "seed": 20260817}
    return json.loads(json.dumps({**cfg, **_study_defaults(benchmark)}))


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
        "tol": _SKOROKHOD["tol"],
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
    params = _checked("converge", cfg)
    if params["paths"] < 1:
        raise ConfigError("converge: need at least one path")
    # a study rejects parameters it cannot run with by ValueError; one
    # whose arithmetic leaves the float range fails as a numerical error
    with np.errstate(over="raise", invalid="raise"):
        return _COMMANDS["converge"].build(params, "converge"), {}
