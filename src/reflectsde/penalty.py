"""Closed-form solutions of the penalized reflection equation.

For a step driver the penalized dynamics relax exponentially toward the
projection of the current state between jumps, at rate ``n``:

    x(t) = p_j + (x_j - p_j) * exp(-n (t - t_j))   on [t_j, t_{j+1}),

with p_j the projection of the breakpoint state x_j.  The formula is exact
because the projection of every point on the segment from x_j to p_j is
p_j itself, so the pull direction is frozen within a segment.

The same relax-and-step recurrence, batched over paths and with an
optional integrator term, is the one kernel every solver and Euler scheme
of the package runs (``_relax_and_step``); reflection is its n = inf case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .domain import ConvexDomain, DomainViolationError, NumericalError
from .path import StepPath, modulus_prime

__all__ = [
    "PenalizedPath",
    "solve_penalized",
    "PenaltyBounds",
    "penalty_bounds",
]

SUP_FACTOR = 2.0 * np.sqrt(7.0)
VARIATION_FACTOR = 55.0


class PenalizedPath:
    """Piecewise-exponential path from the penalized equation.

    Stores breakpoint states, their projections, and the rate ``n``;
    everything else (values, left limits, variation of the penalty term)
    is evaluated from the closed form.  Immutable.
    """

    __slots__ = ("n", "times", "states", "projections", "q")

    def __init__(self, n, times, states, projections, q):
        n = _rate(n)
        t = np.asarray(times, dtype=float).copy()
        s = np.asarray(states, dtype=float).copy()
        p = np.asarray(projections, dtype=float).copy()
        if s.ndim == 1:
            s = s[:, None]
        if p.ndim == 1:
            p = p[:, None]
        if t.ndim != 1 or s.shape != p.shape or s.shape[0] != t.shape[0]:
            raise ValueError("times, states, projections shapes disagree")
        if t[0] != 0.0 or (t.shape[0] > 1 and not np.all(np.diff(t) > 0)):
            raise ValueError("breakpoints must start at 0 and increase")
        q = float(q)
        if q < t[-1] or q <= 0.0:
            raise ValueError("bad horizon")
        for arr in (t, s, p):
            arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "projections", p)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("PenalizedPath is immutable")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def _check_time(self, t) -> float:
        t = float(t)
        if not 0.0 <= t <= self.q:
            raise ValueError(f"time {t} outside [0, {self.q}]")
        return t

    def _rows(self):
        """This path as the one-row batch of the closed-form functions."""
        return self.states[None], self.projections[None], self.n, self.times, self.q

    def _from(self, j, t) -> np.ndarray:
        """Value at time(s) t relaxed from breakpoint(s) j."""
        return _relaxed(self.states[j], self.projections[j], self.n, t - self.times[j])

    def eval(self, t) -> np.ndarray:
        t = self._check_time(t)
        return self._from(int(np.searchsorted(self.times, t, side="right")) - 1, t)

    def eval_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < 0.0 or ts.max() > self.q):
            raise ValueError("evaluation times outside the horizon")
        return self._from(np.searchsorted(self.times, ts, side="right") - 1, ts)

    def left_limit(self, t) -> np.ndarray:
        t = self._check_time(t)
        if t == 0.0:
            return self.states[0].copy()
        j = max(int(np.searchsorted(self.times, t, side="left")) - 1, 0)
        return self._from(j, t)

    def segment_end_values(self) -> np.ndarray:
        """Value approached at the right end of each segment (the last one
        evaluated at the horizon)."""
        return _segment_ends(*self._rows())[0]

    def skeleton_values(self) -> np.ndarray:
        """Breakpoint and segment-end values interleaved in time order.

        Each coordinate of the path is monotone within a segment, so any
        coordinatewise extremum or crossing of the continuous path is
        witnessed by this (2m, d) array.
        """
        out = np.repeat(self.states, 2, axis=0)
        out[1::2] = self.segment_end_values()
        return out

    def sup_deviation(self, point) -> float:
        """Supremum over [0, q] of the distance to a fixed point; exact,
        since the norm is convex and segments are line-segment images."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return float(_sup_deviation(*self._rows(), point)[0])

    def penalty_variation(self, t=None) -> float:
        """Euclidean variation of the penalty term up to t.

        Equals n * integral of |x(s) - P(x(s))| ds; within a segment the
        pull spans |x_j - p_j| (1 - exp(-n dt)) in norm, and the direction
        is constant, so the sum over segments is exact.
        """
        t = self.q if t is None else self._check_time(t)
        return float(_penalty_variation(*self._rows(), t)[0])

    def to_step(self, times) -> StepPath:
        """Sample onto the given breakpoints as a step path."""
        times = np.asarray(times, dtype=float)
        return StepPath(times, self.eval_many(times), self.q)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "q": self.q,
                "segments": [
                    {
                        "t": float(t),
                        "state": [float(v) for v in s],
                        "projection": [float(v) for v in p],
                    }
                    for t, s, p in zip(self.times, self.states, self.projections)
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PenalizedPath":
        raw = json.loads(text)
        segs = raw["segments"]
        return cls(
            raw["n"],
            np.array([s["t"] for s in segs]),
            np.array([s["state"] for s in segs]),
            np.array([s["projection"] for s in segs]),
            raw["q"],
        )

    def __repr__(self) -> str:
        return (
            f"PenalizedPath(n={self.n}, dim={self.dim}, "
            f"breakpoints={self.times.shape[0]}, q={self.q})"
        )


# The closed form over rows: (M, K+1, d) breakpoint states and projections
# on one breakpoint array ``times`` and horizon q.  PenalizedPath is the
# one-row case, and a row gets the same bits alone or in any batch.


def _rate(n) -> float:
    """A penalization rate as a float: finite and positive, since the
    projected schemes, not the relaxation, are the n = inf limit."""
    n = float(n)
    if not 0.0 < n < np.inf:
        raise ValueError("penalization rate must be finite and positive")
    return n


def _relaxed(states, projections, n, elapsed):
    """P + (X - P) exp(-n elapsed): the value reached from states X with
    projections P after ``elapsed`` time (broadcast against X[..., 0])."""
    decay = np.exp(-n * np.asarray(elapsed))[..., None]
    return projections + (states - projections) * decay


def _segment_ends(states, projections, n, times, q):
    """Values approached at the right end of each segment, the last one at
    the horizon; with the breakpoint states they form the path's skeleton."""
    return _relaxed(states, projections, n, np.append(times[1:], q) - times)


def _sup_deviation(states, projections, n, times, q, point):
    """Per-row supremum over [0, q] of the distance to ``point``, attained
    on the skeleton since the norm is convex."""
    ends = _segment_ends(states, projections, n, times, q)
    sups = [np.max(np.linalg.norm(X - point, axis=2), axis=1) for X in (states, ends)]
    return np.maximum(*sups)


def _penalty_variation(states, projections, n, times, q, t):
    """Per-row Euclidean variation of the penalty term up to t: each
    segment starting before t adds |x_j - p_j| (1 - exp(-n span)).  The
    sum runs over a C-ordered (M, m) array, which numpy sums row by row in
    the order it sums one path; a column-ordered one drifts in the last bit,
    so the gaps of time-major batches are copied to C order first."""
    m = int(np.searchsorted(times, t))
    spans = (np.minimum(np.append(times[1:], q), t) - times)[:m]
    gaps = np.linalg.norm(states[:, :m] - projections[:, :m], axis=2)
    gaps = np.ascontiguousarray(gaps)
    return np.sum(gaps * (1.0 - np.exp(-n * spans)), axis=1)


def _project_live(domain, X, failed):
    """Projections of the rows of X.

    A row that is not finite, or that has no certified projection (NaN in
    the result a NumericalError carries), is marked in ``failed`` and
    gets NaN; a failed row is not projected again.
    """
    fresh = not failed.any() and np.isfinite(X).all()
    if not fresh:
        failed |= ~np.isfinite(X).all(axis=1)
    live = slice(None) if fresh else np.flatnonzero(~failed)
    try:
        P = domain.project_points(X[live])
    except NumericalError as exc:
        if exc.result is None:
            raise
        P = exc.result
        failed[live] |= np.isnan(P[:, 0])
    if fresh:
        return P
    out = np.full_like(X, np.nan)
    out[live] = P
    return out


def _relax_and_step(domain, f, H, Z, n, times):
    """The relax-and-step recurrence behind every solver in the package.

    Over rows of (M, K+1, d) values H of the free term and Z of the
    integrator (None for none) on the breakpoints ``times``, starting
    from x_0 = H_0:

        pre_k   = P(x_k) + (x_k - P(x_k)) exp(-n (t_{k+1} - t_k)),
        x_{k+1} = pre_k + (H_{k+1} - H_k) + f(pre_k) (Z_{k+1} - Z_k).

    At n = inf the relaxation is the projection itself, pre_k = P(x_k).
    The coefficient enters only through ``f.contract``.  Returns (states,
    projections, failed) with ``failed`` a per-row mask; see
    :func:`_project_live` for when a row fails.  That is the one failure
    rule of the package: the batch schemes return a failed row as NaN,
    and the single-path solvers, which run their path as a one-row batch
    (:func:`_solve_row`), raise NumericalError.

    Each step reads grid point k of every row.  Time-major inputs (the
    views :func:`sample_driver_batch` returns) give contiguous (M, d)
    slabs; C-ordered ones are read at a stride, and a deterministic free
    term may be a read-only view broadcast along rows.  The states and
    projections are written as time-major (K+1, M, d) buffers and
    returned as (M, K+1, d) views of them, not C-contiguous arrays.
    """
    M, K1, d = H.shape
    H = H.transpose(1, 0, 2)
    Z = None if Z is None else Z.transpose(1, 0, 2)
    states = np.empty((K1, M, d))
    projections = np.empty_like(states)
    failed = np.zeros(M, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        x = states[0] = H[0]
        p = projections[0] = _project_live(domain, x, failed)
        for k in range(K1 - 1):
            pre = p
            if n != np.inf:
                pre = _relaxed(x, p, n, times[k + 1] - times[k])
            x = pre + (H[k + 1] - H[k])
            if Z is not None:
                x += f.contract(pre, Z[k + 1] - Z[k])
            p = _project_live(domain, x, failed)
            states[k + 1] = x
            projections[k + 1] = p
    return states.transpose(1, 0, 2), projections.transpose(1, 0, 2), failed


def _check_driver(domain, driver: StepPath) -> None:
    """A step driver fit for a solver: of the domain's dimension, and
    starting inside the closed domain."""
    if driver.dim != domain.dim:
        raise ValueError(
            f"driver dimension {driver.dim} does not match domain {domain.dim}"
        )
    if not domain.contains(driver.values[0]):
        raise DomainViolationError("driver must start inside the domain")


def _solve_row(domain, f, h, z, n, times):
    """:func:`_relax_and_step` on one path of (K+1, d) values, as its
    (K+1, d) states and projections; a failed row raises NumericalError."""
    states, projections, failed = _relax_and_step(
        domain, f, h[None], None if z is None else z[None], n, times
    )
    if failed[0]:
        raise NumericalError("state not finite or projection not certified")
    return states[0], projections[0]


def solve_penalized(domain: ConvexDomain, driver: StepPath, n: float) -> PenalizedPath:
    """Solve the penalized equation exactly for a step driver.

    Between driver jumps the state relaxes toward its projection at rate
    ``n``; at a jump the driver increment is added to the left limit.  The
    driver must start inside the closed domain.  A state that leaves the
    float range, or has no certified projection, raises NumericalError.
    """
    n = _rate(n)
    _check_driver(domain, driver)
    states, projections = _solve_row(domain, None, driver.values, None, n, driver.times)
    return PenalizedPath(n, driver.times, states, projections, driver.q)


@dataclass(frozen=True)
class PenaltyBounds:
    """A-priori bounds for penalized solutions, relative to the anchor.

    Valid for every rate n whenever ``precondition_ok``: the driver's
    partition modulus at scale delta stays below half the anchor clearance.
    ``bound_sup`` dominates sup |x - anchor|, ``bound_var`` dominates the
    penalty variation, both uniformly in n.
    """

    precondition_ok: bool
    modulus: float
    clearance: float
    sup_deviation: float
    cells: int
    bound_sup: float
    bound_var: float


def penalty_bounds(
    domain: ConvexDomain,
    driver: StepPath,
    delta: float,
    q=None,
    anchor=None,
) -> PenaltyBounds:
    """Evaluate the a-priori sup and variation bounds for a driver.

    ``cells`` is floor(q / delta) + 1; the sup bound scales linearly in it
    and the variation bound cubically, each driven by the driver's largest
    distance from the reference interior point (the domain anchor unless
    ``anchor`` overrides it).
    """
    q = driver.q if q is None else float(q)
    if not 0.0 < q <= driver.q:
        raise ValueError(f"q must lie in (0, {driver.q}]")
    delta = float(delta)
    if not 0.0 < delta <= q:
        raise ValueError("delta must lie in (0, q]")
    if anchor is None:
        anchor = domain.anchor
        clearance = domain.anchor_clearance
    else:
        anchor = np.atleast_1d(np.asarray(anchor, dtype=float))
        if not domain.contains(anchor):
            raise ValueError("bound anchor must lie inside the domain")
        clearance = domain.boundary_distance(anchor)
        if not clearance > 0:
            raise ValueError("bound anchor must be strictly interior")
    mod = modulus_prime(driver, delta, q)
    keep = driver.times <= q
    sup_dev = float(
        np.max(np.linalg.norm(driver.values[keep] - anchor, axis=1))
    )
    cells = int(np.floor(q / delta)) + 1
    return PenaltyBounds(
        precondition_ok=bool(mod < float(clearance) / 2.0),
        modulus=mod,
        clearance=float(clearance),
        sup_deviation=sup_dev,
        cells=cells,
        bound_sup=SUP_FACTOR * cells * sup_dev,
        bound_var=VARIATION_FACTOR * cells**3 * sup_dev**2 / clearance,
    )
