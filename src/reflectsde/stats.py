"""Distributional diagnostics for simulated path families."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .path import StepPath, modulus_bar, upcrossings_of_values
from .penalty import PenalizedPath

__all__ = [
    "ks_statistic",
    "reference_cdf",
    "energy_distance",
    "STightnessReport",
    "s_tightness_witness",
    "OscillationTable",
    "oscillation_diagnostic",
    "MarginalCell",
    "MarginalReport",
    "marginal_convergence",
    "StatEntry",
    "ExperimentReport",
]

MIN_KS_SAMPLES = 100
# pairs per block of the d > 1 energy distance: bounds its temporaries
_PAIRS_PER_BLOCK = 10_000_000
_SQRT2 = math.sqrt(2.0)


def ks_statistic(samples, cdf) -> float:
    """Exact one-sample Kolmogorov-Smirnov statistic.

    sup_x |F_hat(x) - F(x)| over the sorted sample, comparing the CDF to
    both one-sided empirical steps.  Requires at least 100 samples so the
    statistic is meaningful at the tolerances used here.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    m = x.shape[0]
    if m < MIN_KS_SAMPLES:
        raise ValueError(f"need at least {MIN_KS_SAMPLES} samples, got {m}")
    F = np.asarray(cdf(x), dtype=float)
    hi = np.arange(1, m + 1) / m
    lo = np.arange(0, m) / m
    return float(np.max(np.maximum(hi - F, F - lo)))


def reference_cdf(tag: str, **params):
    """CDF callables of the benchmark laws, on scalars or arrays.

    ``half_normal`` (``scale``): erf(z / sqrt 2) for z = x / scale >= 0,
    and 0 below; ``normal`` (``loc``, ``scale``): erfc(-z / sqrt 2) / 2 for
    z = (x - loc) / scale; ``uniform`` (``lo``, ``hi``): (x - lo) / (hi - lo)
    clipped to [0, 1].  The error functions are the standard library's,
    applied elementwise.  A scale that is not positive, or ``hi <= lo``,
    raises ``ValueError``; a NaN argument gives NaN.
    """
    if tag == "half_normal":
        scale = float(params.get("scale", 1.0))
        if not scale > 0:
            raise ValueError(f"half-normal scale must be positive, got {scale}")

        def half_normal(x):
            z = np.asarray(x, dtype=float) / scale
            return _elementwise(math.erf, np.maximum(z, 0.0) / _SQRT2)

        return half_normal
    if tag == "normal":
        loc = float(params.get("loc", 0.0))
        scale = float(params.get("scale", 1.0))
        if not scale > 0:
            raise ValueError(f"normal scale must be positive, got {scale}")

        def normal(x):
            z = (np.asarray(x, dtype=float) - loc) / scale
            return 0.5 * _elementwise(math.erfc, -z / _SQRT2)

        return normal
    if tag == "uniform":
        lo = float(params.get("lo", 0.0))
        hi = float(params.get("hi", 1.0))
        if not hi > lo:
            raise ValueError(f"uniform law needs lo < hi, got [{lo}, {hi}]")

        def uniform(x):
            return np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)

        return uniform
    raise ValueError(f"unknown reference law {tag!r}")


def _elementwise(func, z: np.ndarray):
    """A float function of one float over an array; a scalar for 0-d input."""
    return np.asarray(np.frompyfunc(func, 1, 1)(z), dtype=float)[()]


def energy_distance(first, second) -> float:
    """Squared energy distance between two samples (V-statistic form).

    2 E|X - Y| - E|X - X'| - E|Y - Y'| over all pairs of the samples,
    including each point with itself; clipped at zero, and exactly zero
    for identical samples.  Works in any dimension; both samples must be
    nonempty.  Samples of dimension one (1-D or shape (n, 1)) are centred
    at their pooled median and sorted, and each mean is read from prefix
    sums, in O((m + n) log(m + n)) time and O(m + n) memory.  Otherwise
    the pairs are summed in blocks of about 10^7, in O(m n d) time.
    """
    a = np.asarray(first, dtype=float)
    b = np.asarray(second, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("energy distance needs two nonempty samples")
    if a.shape[1] == 1 and b.shape[1] == 1:
        # shifting both samples keeps every distance; centring them keeps
        # the prefix sums, and so their rounding, at the scale of the spread
        center = np.median(np.concatenate((a[:, 0], b[:, 0])))
        a, b = np.sort(a[:, 0] - center), np.sort(b[:, 0] - center)
        mean_dist = _mean_abs_sorted
    else:
        mean_dist = _mean_pair_distance
    return max(2.0 * mean_dist(a, b) - mean_dist(a, a) - mean_dist(b, b), 0.0)


def _mean_abs_sorted(u: np.ndarray, v: np.ndarray) -> float:
    """Mean |u_i - v_j| over all pairs of sorted 1-D samples.  With k the
    count of v at or below u_i and P the prefix sums of v, row i sums to
    u_i k - P[k] + (P[n] - P[k]) - u_i (n - k)."""
    prefix = np.concatenate(([0.0], np.cumsum(v)))
    k = np.searchsorted(v, u, side="right")
    below = prefix[k]
    rows = u * k - below + (prefix[-1] - below) - u * (v.shape[0] - k)
    return float(np.sum(rows)) / (u.shape[0] * v.shape[0])


def _mean_pair_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Mean Euclidean distance over all pairs of rows, in row blocks."""
    total = 0.0
    block = max(1, _PAIRS_PER_BLOCK // v.shape[0])
    for start in range(0, u.shape[0], block):
        diff = u[start : start + block, None, :] - v[None, :, :]
        total += float(np.sum(np.sqrt(np.sum(diff * diff, axis=2))))
    return total / (u.shape[0] * v.shape[0])


def _skeleton(path) -> np.ndarray:
    """Values witnessing every extremum and crossing of a path: its step
    values, or a penalized path's breakpoint and segment-end values."""
    if isinstance(path, PenalizedPath):
        return path.skeleton_values()
    return path.values


@dataclass(frozen=True)
class STightnessReport:
    """Uniform witnesses for relative compactness of a path family:
    one sup-norm ceiling and finitely many level-crossing counts."""

    sup_norms: np.ndarray
    sup_ceiling: float
    counts: np.ndarray  # (paths, levels)
    count_ceilings: np.ndarray
    levels: tuple

    @property
    def sup_ok(self) -> bool:
        return bool(np.all(self.sup_norms <= self.sup_ceiling))

    @property
    def counts_ok(self) -> bool:
        return bool(np.all(self.counts <= self.count_ceilings[None, :]))

    @property
    def ok(self) -> bool:
        return self.sup_ok and self.counts_ok


def s_tightness_witness(
    paths,
    levels,
    sup_ceiling: float,
    count_ceilings,
) -> STightnessReport:
    """Evaluate sup norms and strict up-crossing counts over a family.

    ``levels`` is a sequence of (coord, a, b) with a < b; crossings are
    counted on exact path skeletons (step values, or breakpoint plus
    segment-end values for penalized paths, which are coordinatewise
    monotone between those witnesses).
    """
    levels = tuple(levels)
    count_ceilings = np.asarray(count_ceilings, dtype=float)
    if count_ceilings.shape[0] != len(levels):
        raise ValueError("one ceiling per level pair required")
    sups = np.empty(len(paths))
    counts = np.empty((len(paths), len(levels)), dtype=int)
    for i, p in enumerate(paths):
        sk = _skeleton(p)
        sups[i] = np.max(np.linalg.norm(sk, axis=1))
        for j, (coord, a, b) in enumerate(levels):
            counts[i, j] = upcrossings_of_values(sk[:, coord], a, b)
    return STightnessReport(
        sup_norms=sups,
        sup_ceiling=float(sup_ceiling),
        counts=counts,
        count_ceilings=count_ceilings,
        levels=levels,
    )


@dataclass(frozen=True)
class OscillationTable:
    """Empirical tail of the interlaced pair modulus across delta."""

    deltas: np.ndarray
    epsilons: np.ndarray
    probabilities: np.ndarray  # (epsilons, deltas), deltas descending
    sample_size: int

    def monotone_within(self, band: float | None = None) -> bool:
        """Tails must not grow as delta shrinks, up to the noise band
        (default 2/sqrt(sample size))."""
        band = 2.0 / np.sqrt(self.sample_size) if band is None else float(band)
        p = self.probabilities
        return bool(np.all(p[:, 1:] <= p[:, :-1] + band))


def _as_step(path) -> StepPath:
    """Penalized paths enter moduli through their breakpoint states."""
    if isinstance(path, PenalizedPath):
        return StepPath(path.times, path.states, path.q)
    return path


def oscillation_diagnostic(
    x_paths,
    z_paths,
    deltas,
    epsilons,
    q=None,
) -> OscillationTable:
    """Tail probabilities of the interlaced modulus of (x, z) pairs.

    For each delta (sorted descending) and epsilon, the fraction of pairs
    with modulus above epsilon.  The modulus is pathwise nondecreasing in
    delta, so the empirical tails are nonincreasing as delta shrinks up to
    ties; `monotone_within` allows the stated sampling band on top.
    """
    if len(x_paths) != len(z_paths) or not x_paths:
        raise ValueError("need matching nonempty path families")
    deltas = np.sort(np.asarray(deltas, dtype=float))[::-1]
    epsilons = np.asarray(epsilons, dtype=float)
    M = len(x_paths)
    mods = np.empty((M, deltas.shape[0]))
    for i, (xp, zp) in enumerate(zip(x_paths, z_paths)):
        xs = _as_step(xp)
        zs = _as_step(zp)
        for j, d in enumerate(deltas):
            mods[i, j] = modulus_bar(xs, zs, d, q)
    probs = np.empty((epsilons.shape[0], deltas.shape[0]))
    for e, eps in enumerate(epsilons):
        probs[e] = np.mean(mods > eps, axis=0)
    return OscillationTable(
        deltas=deltas,
        epsilons=epsilons,
        probabilities=probs,
        sample_size=M,
    )


@dataclass(frozen=True)
class MarginalCell:
    """One scheme setting and its sampled marginals keyed by time."""

    n: float
    mesh: float
    samples: dict


@dataclass(frozen=True)
class MarginalReport:
    rows: tuple
    monotone: dict

    def passed(self) -> bool:
        return all(self.monotone.values())


def marginal_convergence(
    cells,
    t_list,
    reference,
    forbidden_times=(),
    statistic: str = "ks",
    band: float = 0.0,
) -> MarginalReport:
    """Distance of sampled marginals to a reference law along a sweep.

    ``reference`` maps t to a CDF callable (statistic 'ks') or to a
    reference sample array (statistic 'energy').  Times listed in
    ``forbidden_times`` are rejected: at a deterministic driver jump the
    marginals converge to the wrong one-sided limit, so asking for them is
    an error, not a failure.  ``band`` is slack allowed on the monotone
    flag (sampling noise of the statistic).
    """
    t_list = [float(t) for t in t_list]
    for t in t_list:
        for bad in np.atleast_1d(np.asarray(forbidden_times, dtype=float)):
            if t == float(bad):
                raise ValueError(
                    f"t = {t} is a fixed jump time of the driver; marginal "
                    "limits fail there (evaluate left or right of it instead)"
                )
    rows = []
    values = {t: [] for t in t_list}
    for cell in cells:
        for t in t_list:
            sample = np.asarray(cell.samples[t], dtype=float)
            ref = reference(t)
            if statistic == "ks":
                value = ks_statistic(sample, ref)
            elif statistic == "energy":
                value = energy_distance(sample, ref)
            else:
                raise ValueError(f"unknown statistic {statistic!r}")
            rows.append(
                {
                    "n": cell.n,
                    "mesh": cell.mesh,
                    "t": t,
                    "statistic": statistic,
                    "value": value,
                }
            )
            values[t].append(value)
    monotone = {
        t: bool(np.all(np.diff(values[t]) <= band + 1e-12)) for t in t_list
    }
    return MarginalReport(rows=tuple(rows), monotone=monotone)


@dataclass(frozen=True)
class StatEntry:
    """One named check inside an experiment report."""

    name: str
    value: float
    threshold: float
    passed: bool
    sample_size: int
    repro: str


@dataclass
class ExperimentReport:
    """Parameters, per-check entries, and tabular results of one run."""

    params: dict
    entries: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)

    def add_entry(self, name, value, threshold, passed, sample_size, repro):
        self.entries.append(
            StatEntry(
                name=name,
                value=float(value),
                threshold=float(threshold),
                passed=bool(passed),
                sample_size=int(sample_size),
                repro=str(repro),
            )
        )

    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> str:
        return json.dumps(
            {
                "params": self.params,
                "entries": [e.__dict__ for e in self.entries],
                "tables": self.tables,
                "all_passed": self.all_passed(),
            },
            indent=2,
            sort_keys=True,
        )

    def table_csv(self, name: str) -> str:
        """Render a convergence table as n,mesh,M,statistic,value,threshold,pass;
        a missing threshold is written as nan."""
        rows = self.tables[name]
        lines = ["n,mesh,M,statistic,value,threshold,pass"]
        for r in rows:
            threshold = float("nan") if r["threshold"] is None else r["threshold"]
            lines.append(
                f"{r['n']},{r['mesh']},{r['M']},{r['statistic']},"
                f"{r['value']!r},{threshold!r},{r['pass']}"
            )
        return "\n".join(lines) + "\n"
