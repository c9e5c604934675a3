"""Closed-form solutions of the penalized reflection equation.

For a step driver the penalized dynamics relax exponentially toward the
projection of the current state between jumps, at rate ``n``:

    x(t) = p_j + (x_j - p_j) * exp(-n (t - t_j))   on [t_j, t_{j+1}),

with p_j the projection of the breakpoint state x_j.  The formula is exact
because the projection of every point on the segment from x_j to p_j is
p_j itself, so the pull direction is frozen within a segment.  A
``PenalizedPath`` is the breakpoint core of ``path`` with this formula as
the value held from each breakpoint; it writes its CSV as the step path of
its values at its own breakpoints, and its JSON as its states and
projections.

The same relax-and-step recurrence, batched over paths and with an
optional integrator term, is the one kernel every solver and Euler scheme
of the package runs (``_relax_and_step``); reflection is its n = inf case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .domain import ConvexDomain, DomainViolationError, NumericalError
from .path import StepPath, _Breakpoints, _rows_of, modulus_prime

__all__ = [
    "PenalizedPath",
    "solve_penalized",
    "PenaltyBounds",
    "penalty_bounds",
]

SUP_FACTOR = 2.0 * np.sqrt(7.0)
VARIATION_FACTOR = 55.0


class PenalizedPath(_Breakpoints):
    """Piecewise-exponential path from the penalized equation.

    Stores breakpoint states (its ``values``, also named ``states``), their
    projections, and the rate ``n``; everything else (values between
    breakpoints, left limits, variation of the penalty term) is evaluated
    from the closed form.  Immutable.
    """

    __slots__ = ("n", "projections")

    def __init__(self, n, times, states, projections, q):
        n = _rate(n)
        super().__init__(times, states, q)
        p = _rows_of(projections, self.times.shape[0])
        if p.shape != self.values.shape:
            raise ValueError(f"projections {p.shape} do not match the states")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "projections", p)

    @property
    def states(self) -> np.ndarray:
        return self.values

    def _rows(self):
        """This path as the one-row batch of the closed-form functions."""
        return self.values[None], self.projections[None], self.n, self.times, self.q

    def _held(self, j, t) -> np.ndarray:
        return _relaxed_from(self.values, self.projections, self.n, self.times, j, t)

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
        out = np.repeat(self.values, 2, axis=0)
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

    def to_csv_string(self) -> str:
        """The CSV of the path sampled at its own breakpoints."""
        return self.to_step(self.times).to_csv_string()

    def to_json(self) -> str:
        """The rate, horizon and each breakpoint's state and projection."""
        rows = zip(self.times.tolist(), self.values.tolist(), self.projections.tolist())
        segments = [{"t": t, "state": s, "projection": p} for t, s, p in rows]
        return json.dumps({"n": self.n, "q": self.q, "segments": segments})

    @classmethod
    def from_json(cls, text: str) -> "PenalizedPath":
        raw = json.loads(text)
        keys = ("t", "state", "projection")
        columns = ([seg[key] for seg in raw["segments"]] for key in keys)
        return cls(raw["n"], *columns, raw["q"])

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
    return _pulled(states, projections, np.exp(-n * np.asarray(elapsed))[..., None])


def _pulled(states, projections, decay, out=None):
    """P + (X - P) decay, written into ``out`` when given."""
    out = np.multiply(np.subtract(states, projections, out=out), decay, out=out)
    return np.add(projections, out, out=out)


def _relaxed_from(states, projections, n, times, j, t):
    """Values at times t relaxed from breakpoints j, of one path's (m, d)
    states and projections or of rows of (M, m, d) ones."""
    return _relaxed(states[..., j, :], projections[..., j, :], n, t - times[j])


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
    gets NaN; a failed row is not projected again.  Rows of X are the
    kernel's states, and a failed row's projection holds NaN, so its state
    is not finite at any later step: when all of X is finite no row has
    failed, and ``failed`` needs no scan.
    """
    fresh = np.isfinite(X).all()
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


def _kept_indices(at, K1):
    """The grid indices a run keeps: all K1 of them for None, else ``at``
    as strictly increasing integers in [0, K1)."""
    if at is None:
        return np.arange(K1)
    idx = np.asarray(at)
    if idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu":
        raise ValueError(f"at must be a nonempty list of grid indices, got {at!r}")
    if idx[0] < 0 or idx[-1] >= K1 or np.any(idx[1:] <= idx[:-1]):
        raise ValueError(f"at must increase strictly within [0, {K1 - 1}], got {at!r}")
    return idx


def _relax_and_step(domain, f, H, Z, n, times, at=None):
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

    ``at`` lists the grid indices whose states and projections are kept,
    strictly increasing in [0, K]; None keeps all K+1.  A kept state is
    written into its own output slab; any other lives in one of two
    reused (M, d) scratch slabs until the next step has read it, and the
    relaxation and the integrator increment each reuse one slab, so the
    run holds O(M d) memory beyond the kept slabs.  Which points are kept
    does not change a bit of the ones that are.

    What does not depend on the rows is computed before the loop: the
    decay factors of all steps in one ``np.exp`` (the same bits as one
    scalar exp per step), and the increments of a free term that has one
    row or is broadcast along rows, differenced on that row.

    Each step reads grid point k of every row.  Time-major inputs (the
    views :func:`sample_driver_batch` returns) give contiguous (M, d)
    slabs; C-ordered ones are read at a stride, and a deterministic free
    term may be a read-only view broadcast along rows.  The kept states
    and projections are written as time-major (len(at), M, d) buffers and
    returned as (M, len(at), d) views of them, not C-contiguous arrays.
    """
    M, K1, d = H.shape
    one_h = M == 1 or (M > 1 and H.strides[0] == 0)
    H = H.transpose(1, 0, 2)
    Z = None if Z is None else Z.transpose(1, 0, 2)
    at = _kept_indices(at, K1)
    states = np.empty((at.shape[0], M, d))
    projections = np.empty_like(states)
    slot = np.full(K1, -1)
    slot[at] = np.arange(at.shape[0])
    slot = slot.tolist()
    scratch = np.empty((2, M, d)) if at.shape[0] < K1 else None
    relaxed = None if n == np.inf else np.empty((M, d))
    dZ = None if Z is None else np.empty((M, d))
    failed = np.zeros(M, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        # the per-step constants; every row has the free term's increments
        # when it has one row or stride 0 along rows
        decay = None if relaxed is None else np.exp(-n * (times[1:] - times[:-1]))
        dH = np.diff(H[:, 0], axis=0) if one_h else None
        for k in range(K1):
            # x_k goes to its kept slab, else to the scratch slab x_{k-1} is
            # not in: at n = inf pre_{k-1} is P(x_{k-1}), which a domain may
            # return as x_{k-1} itself, and it is read while x_k is written
            kept = slot[k]
            slab = states[kept] if kept >= 0 else scratch[k % 2]
            if k == 0:
                slab[...] = H[0]
            else:
                pre = p
                if decay is not None:
                    pre = _pulled(x, p, decay[k - 1], out=relaxed)
                if dH is None:
                    np.subtract(H[k], H[k - 1], out=slab)
                    np.add(pre, slab, out=slab)
                else:
                    np.add(pre, dH[k - 1], out=slab)
                if Z is not None:
                    slab += f.contract(pre, np.subtract(Z[k], Z[k - 1], out=dZ))
            x = slab
            p = _project_live(domain, x, failed)
            if kept >= 0:
                projections[kept] = p
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
