"""Independent reference outputs for each benchmark workload.

Written from the package's documented behaviour, not from its code, and
importing only numpy and the standard library, so an optimisation of the
package cannot change the reference it is checked against.  Where the
package iterates (Dykstra's projection, pairwise energy sums, the
run-based interlaced modulus) the reference uses a different, exact
method: closed-form projection onto the polygon's edges, sorted prefix
sums, and a dense maximum over index triples.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import (
    ENERGY_LADDER,
    ENERGY_PATHS,
    WEDGE_CONFIG,
    component_stream,
    halfnormal_draws,
)


def _brownian(seed, paths, dt, dim, component=1):
    """(M, K+1, dim) Brownian driver values, started at zero."""
    out = np.zeros((paths, dt.shape[0] + 1, dim))
    scale = np.sqrt(dt)[:, None]
    for i in range(paths):
        inc = component_stream(seed, i, component).standard_normal((dt.shape[0], dim)) * scale
        out[i, 1:] = np.cumsum(inc, axis=0)
    return out


def _compound_poisson_increments(gen, dt, dim, rate, loc, scale):
    counts = gen.poisson(rate * dt)
    out = np.zeros((dt.shape[0], dim))
    total = int(counts.sum())
    if total:
        sizes = gen.normal(loc, scale, size=(total, dim))
        np.add.at(out, np.repeat(np.arange(dt.shape[0]), counts), sizes)
    return out


def _penalized(project, coefficient, x0, Z, n, times):
    """Penalized Euler scheme over (M, K+1, d) driver values with H
    constant: relax toward the projection at rate n across a cell, then add
    f(pre) dZ.  Returns (states, projections)."""
    M, K1, d = Z.shape
    states = np.empty((M, K1, d))
    proj = np.empty_like(states)
    states[:, 0] = x0
    proj[:, 0] = project(states[:, 0])
    for k in range(K1 - 1):
        decay = np.exp(-n * (times[k + 1] - times[k]))
        pre = proj[:, k] + (states[:, k] - proj[:, k]) * decay
        states[:, k + 1] = pre + coefficient(pre, Z[:, k + 1] - Z[:, k])
        proj[:, k + 1] = project(states[:, k + 1])
    return states, proj


def _halfline(X):
    return np.maximum(X, 0.0)


def _identity(pre, dz):
    return dz


def _entry(name, value, threshold, passed, sample_size, repro):
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "passed": bool(passed),
        "sample_size": int(sample_size),
        "repro": repro,
    }


def _report(params, entries, tables):
    return {
        "params": params,
        "entries": entries,
        "tables": tables,
        "all_passed": all(e["passed"] for e in entries),
    }


def _exit_code(report):
    return 0 if report["all_passed"] else 3


def rbm(seed: int) -> dict:
    """``converge --config rbm-benchmark``: reflected unit Brownian motion
    on the half-line, KS and |X|-mean checks against the half-normal law."""
    M, K, n, q = 10_000, 1024, 2.0**12, 1.0
    times = np.linspace(0.0, q, K + 1)
    Z = _brownian(seed, M, np.diff(times), 1)
    states, _ = _penalized(_halfline, _identity, 0.0, Z, n, times)
    finals = states[:, -1, 0]

    x = np.sort(finals)
    cdf = np.array([math.erf(v / math.sqrt(2.0 * q)) if v > 0 else 0.0 for v in x])
    hi = np.arange(1, M + 1) / M
    lo = np.arange(0, M) / M
    ks = float(np.max(np.maximum(hi - cdf, cdf - lo)))
    abs_mean = float(np.mean(np.abs(finals)))
    se = float(np.std(np.abs(finals), ddof=1) / np.sqrt(M))
    err = abs(abs_mean - math.sqrt(2.0 * q / math.pi))
    repro = f"seed={seed}"
    checks = [("ks_half_normal", ks, 0.05, ks < 0.05), ("abs_mean_error", err, 3.0 * se, err <= 3.0 * se)]
    report = _report(
        {"experiment": "converge", "benchmark": "rbm", "seed": seed, "paths": M, "n": n, "cells": K, "q": q},
        [_entry(name, v, t, ok, M, repro) for name, v, t, ok in checks],
        {
            "convergence": [
                {"n": n, "mesh": q / K, "M": M, "statistic": name, "value": v, "threshold": t, "pass": bool(ok)}
                for name, v, t, ok in checks
            ]
        },
    )
    return {"exit": _exit_code(report), "report": report, "files": {"manifest.json", "report.json", "convergence.csv"}}


def _interlaced_modulus(times, f, g, deltas):
    """sup of min(|f_j - f_i|, |g_k - g_j|) over i < j < k with
    times[k] - times[i+1] < delta, for each delta: a dense O(m^2) maximum
    over (i, j) with the best k taken from a running maximum."""
    m = times.shape[0]
    A = np.triu(np.abs(f[None, :] - f[:, None]), 1)  # A[i, j], j > i
    B = np.triu(np.abs(g[None, :] - g[:, None]), 1)  # B[j, k], k > j
    C = np.maximum.accumulate(B, axis=1)  # C[j, K] = max over j < k <= K
    after = np.append(times[1:], np.inf)  # times[i+1]
    out = []
    for delta in deltas:
        last = np.searchsorted(times, after + delta, side="left") - 1
        last = np.minimum(last, m - 1)
        out.append(float(np.max(np.minimum(A, C[:, last].T))))
    return out


def cp_oscillation(seed: int) -> dict:
    """``converge --config cp-oscillation``: interlaced-modulus tails of
    penalized compound-Poisson paths on the half-line."""
    M, K, n, q, rate = 400, 256, 256.0, 1.0, 2.0
    deltas = (0.4, 0.2, 0.1, 0.05)
    epsilons = (0.05, 0.1, 0.2)
    times = np.linspace(0.0, q, K + 1)
    dt = np.diff(times)
    Z = np.zeros((M, K + 1, 1))
    for i in range(M):
        inc = _compound_poisson_increments(component_stream(seed, i, 1), dt, 1, rate, 0.0, 0.6)
        Z[i, 1:] = np.cumsum(inc, axis=0)
    states, _ = _penalized(_halfline, _identity, 0.5, Z, n, times)
    mods = np.array([_interlaced_modulus(times, states[i, :, 0], Z[i, :, 0], deltas) for i in range(M)])
    probs = np.array([np.mean(mods > eps, axis=0) for eps in epsilons])
    band = 2.0 / math.sqrt(M)
    monotone = bool(np.all(probs[:, 1:] <= probs[:, :-1] + band))
    report = _report(
        {
            "experiment": "converge",
            "benchmark": "cp-oscillation",
            "seed": seed,
            "paths": M,
            "n": n,
            "cells": K,
            "rate": rate,
            "band": band,
        },
        [_entry("oscillation_monotone", 0.0 if monotone else 1.0, 0.5, monotone, M, f"seed={seed}")],
        {
            "oscillation": [
                {
                    "n": n,
                    "mesh": q / K,
                    "M": M,
                    "statistic": f"tail[eps={eps:g},delta={delta:g}]",
                    "value": float(probs[e, d]),
                    "threshold": band,
                    "pass": True,
                }
                for e, eps in enumerate(epsilons)
                for d, delta in enumerate(deltas)
            ]
        },
    )
    return {"exit": _exit_code(report), "report": report, "files": {"manifest.json", "report.json", "oscillation.csv"}}


def _polygon_projector(normals, offsets):
    """Exact Euclidean projection onto a triangle {x : normals @ x >= offsets}:
    points inside stay; a point outside goes to the nearest point of the
    three edges, each edge running between its face's intersections with
    the other two faces."""
    if normals.shape != (3, 2):
        raise ValueError("the reference projector handles triangles only")
    corners = {}
    for a in range(3):
        for b in range(a + 1, 3):
            corners[a, b] = corners[b, a] = np.linalg.solve(normals[[a, b]], offsets[[a, b]])
    edges = [(corners[i, (i + 1) % 3], corners[i, (i + 2) % 3]) for i in range(3)]

    def project(X):
        out = X.copy()
        outside = np.min(X @ normals.T - offsets, axis=1) < 0.0
        if outside.any():
            P = X[outside]
            best = np.full(P.shape[0], np.inf)
            nearest = np.empty_like(P)
            for a, b in edges:
                ab = b - a
                t = np.clip(((P - a) @ ab) / (ab @ ab), 0.0, 1.0)
                cand = a + t[:, None] * ab
                dist = np.sum((P - cand) ** 2, axis=1)
                closer = dist < best
                best[closer] = dist[closer]
                nearest[closer] = cand[closer]
            out[outside] = nearest
        return out

    return project


def simulate_wedge(seed: int) -> dict:
    """``simulate`` with WEDGE_CONFIG: penalized Euler paths in the wedge,
    summary statistics and one CSV artifact per kept path."""
    cfg = WEDGE_CONFIG
    M, K, n, q = cfg["paths"], cfg["grid"]["cells"], cfg["n"], cfg["grid"]["q"]
    normals = np.array([f["normal"] for f in cfg["domain"]["faces"]], dtype=float)
    offsets = np.array([f["offset"] for f in cfg["domain"]["faces"]], dtype=float)
    brownian, drift, poisson = cfg["driver"]["z"]
    base, slope = cfg["coefficient"]["base"], cfg["coefficient"]["slope"]
    times = np.linspace(0.0, q, K + 1)
    dt = np.diff(times)

    Z = _brownian(seed, M, dt, 2)
    drift_inc = np.asarray(drift["rate"], dtype=float)[None, :] * dt[:, None]
    for i in range(M):
        Z[i, 1:] += np.cumsum(drift_inc, axis=0)
        inc = _compound_poisson_increments(
            component_stream(seed, i, 3), dt, 2, poisson["rate"], *poisson["jumps"]["params"]
        )
        Z[i, 1:] += np.cumsum(inc, axis=0)

    states, proj = _penalized(
        _polygon_projector(normals, offsets),
        lambda pre, dz: (base + slope * np.abs(pre)) * dz,
        np.asarray(cfg["driver"]["h"]["x0"], dtype=float),
        Z,
        n,
        times,
    )
    # value at each breakpoint from the closed form, decay exp(0) = 1
    values = proj + (states - proj) * 1.0
    finals = values[:, -1]
    spans = np.diff(times)
    variation = np.sum(np.linalg.norm(states - proj, axis=2)[:, :-1] * (1.0 - np.exp(-n * spans)), axis=1)

    params = {"experiment": "simulate", "n": n, "paths": M, "seed": seed, "cells": K, "q": q, "numerical_failures": []}
    for j in range(2):
        params[f"final_mean_{j + 1}"] = float(np.mean(finals[:, j]))
        params[f"final_std_{j + 1}"] = float(np.std(finals[:, j]))
    params["mean_penalty_variation"] = float(np.mean(variation))
    report = _report(params, [_entry("numerical_failures", 0, 0, True, M, f"seed={seed}")], {})
    keep = min(cfg["keep_paths"], M)
    artifacts = {f"path_{i}.csv": values[i] for i in range(keep)}
    return {
        "exit": _exit_code(report),
        "report": report,
        "files": {"manifest.json", "report.json", *artifacts},
        "times": times,
        "artifacts": artifacts,
    }


def _mean_abs_diff(a, b_sorted, b_prefix):
    """Mean of |a_i - b_j| over all pairs, from sorted b and its prefix sums."""
    below = np.searchsorted(b_sorted, a, side="right")
    sum_below = b_prefix[below]
    total = b_prefix[-1]
    nb = b_sorted.shape[0]
    per_a = a * below - sum_below + (total - sum_below) - a * (nb - below)
    return float(np.sum(per_a)) / (a.shape[0] * nb)


def energy_distance_1d(a, b) -> float:
    """Squared energy distance 2E|X-Y| - E|X-X'| - E|Y-Y'| (V-statistic),
    by sorted prefix sums in O((m + r) log(m + r))."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sa, sb = np.sort(a), np.sort(b)
    pa = np.concatenate(([0.0], np.cumsum(sa)))
    pb = np.concatenate(([0.0], np.cumsum(sb)))
    ab = _mean_abs_diff(sa, sb, pb)
    aa = _mean_abs_diff(sa, sa, pa)
    bb = _mean_abs_diff(sb, sb, pb)
    return max(2.0 * ab - aa - bb, 0.0)


def marginal_energy(seed: int) -> dict:
    """Library pipeline: reflected Brownian marginals at t = 1 along the
    (n, K) ladder, energy distance to exact half-normal draws."""
    draws = halfnormal_draws(seed)
    rows = []
    for n, K in ENERGY_LADDER:
        times = np.linspace(0.0, 1.0, K + 1)
        Z = _brownian(seed, ENERGY_PATHS, np.diff(times), 1)
        states, _ = _penalized(_halfline, _identity, 0.0, Z, n, times)
        value = energy_distance_1d(states[:, -1, 0], draws)
        rows.append({"n": n, "mesh": 1.0 / K, "t": 1.0, "statistic": "energy", "value": value})
    return {"exit": 0, "rows": rows}


REFERENCES = {
    "rbm": rbm,
    "cp-oscillation": cp_oscillation,
    "simulate-wedge": simulate_wedge,
    "marginal-energy": marginal_energy,
}
