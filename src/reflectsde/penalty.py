"""Closed-form solutions of the penalized reflection equation.

For a step driver the penalized dynamics relax exponentially toward the
projection of the current state between jumps, at rate ``n``:

    x(t) = p_j + (x_j - p_j) * exp(-n (t - t_j))   on [t_j, t_{j+1}),

with p_j the projection of the breakpoint state x_j.  The formula is exact
because the projection of every point on the segment from x_j to p_j is
p_j itself, so the pull direction is frozen within a segment.  A
``PenalizedPath`` is the breakpoint core of ``path`` with this formula as
the value held from each breakpoint.  Where no time has elapsed the
formula gives the stored state x_j itself, not fl(p_j + (x_j - p_j)), so a
path takes its states at its own breakpoints bit for bit: its CSV holds
its states, and the moduli read them as a step path's values.  Its JSON
holds its states and projections.

The same relax-and-step recurrence, batched over paths and with an
optional integrator term, is the one kernel every solver and Euler scheme
of the package runs (``_relax_and_step``); reflection is its n = inf case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .domain import ConvexDomain, DomainViolationError, NumericalError, _lengths
from .path import StepPath, _Breakpoints, _paths, _segment, modulus_prime

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
    projections, all finite, and the rate ``n``; everything else (values
    between breakpoints, left limits, variation of the penalty term) is
    evaluated from the closed form.  Immutable.
    """

    __slots__ = ("n", "projections")

    def __init__(self, n, times, states, projections, q):
        n = _rate(n)
        self._hold(n=n, **_paths(times, [states], q, projections=[projections])[0])

    @classmethod
    def _batch(cls, n, times, states, projections, q) -> list:
        """One path per (m, d) block of (M, m, d) ``states`` and
        ``projections``, equal to ``cls(n, times, states[i],
        projections[i], q)``, with the checks and copies made once for the
        batch (:func:`path._paths`)."""
        n = _rate(n)
        paths = _paths(times, states, q, projections=projections)
        return [object.__new__(cls)._hold(n=n, **fields) for fields in paths]

    @property
    def states(self) -> np.ndarray:
        return self.values

    def _held(self, j, t) -> np.ndarray:
        return _relaxed(self.values[j], self.projections[j], self.n, t - self.times[j])

    def segment_end_values(self) -> np.ndarray:
        """Value approached at the right end of each segment (the last one
        evaluated at the horizon)."""
        spans = np.append(self.times[1:], self.q) - self.times
        return _relaxed(self.values, self.projections, self.n, spans)

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
        sup = _SupDistance(point, self.n, self.times, self.q)
        return float(_replay(sup, self.values[None], self.projections[None]).sup[0])

    def penalty_variation(self, t=None) -> float:
        """Euclidean variation of the penalty term up to t.

        Equals n * integral of |x(s) - P(x(s))| ds; within a segment the
        pull spans |x_j - p_j| (1 - exp(-n dt)) in norm, and the direction
        is constant, so the sum over segments is exact.
        """
        t = self.q if t is None else self._check_time(t)
        gaps = _Gaps(self.n, self.times, self.q, 1)
        return float(_replay(gaps, self.values[None], self.projections[None]).variation(t)[0])

    def to_csv_string(self) -> str:
        """The CSV of the step path of this path's states on its own
        breakpoints, where the path's values are its states."""
        return StepPath.to_csv_string(self)

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
    projections P after ``elapsed`` time (broadcast against X[..., 0]).
    Where no time has elapsed it is X itself, bit for bit; the formula
    there gives fl(P + fl(X - P)), which can miss X."""
    elapsed = np.asarray(elapsed)[..., None]
    pulled = _pulled(states, projections, np.exp(-n * elapsed))
    return np.where(elapsed == 0.0, states, pulled)


def _pulled(states, projections, decay, out=None):
    """P + (X - P) decay, written into ``out`` when given."""
    out = np.multiply(np.subtract(states, projections, out=out), decay, out=out)
    return np.add(projections, out, out=out)


def _project_live(domain, X, failed):
    """Projections of the rows of X, one step of :func:`_relax_and_step`'s
    failure rule.

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
        X[failed] = np.nan  # held as NaN: a raw NaN's sign bit would depend on the batch
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


def _relax_and_step(domain, f, H, Z, n, times, visit):
    """The relax-and-step recurrence behind every solver in the package.

    Over rows of (M, K+1, d) values H of the free term and Z of the
    integrator (None for none) on the breakpoints ``times``, starting
    from x_0 = H_0:

        pre_k   = P(x_k) + (x_k - P(x_k)) exp(-n (t_{k+1} - t_k)),
        x_{k+1} = pre_k + (H_{k+1} - H_k) + f(pre_k) (Z_{k+1} - Z_k).

    At n = inf the relaxation is the projection itself, pre_k = P(x_k).
    The coefficient enters only through ``f.contract``.  Returns the
    per-row mask ``failed``, by the one failure rule of the package: a row
    fails when a state or a projection is not finite, or a projection is
    not certified.  The batch schemes return a failed row as NaN
    throughout; the single-path solvers, which run their path as a
    one-row batch (:func:`_solve_row`), raise NumericalError.  Each step
    checks its states and certificates (:func:`_project_live`); a
    projection that is not finite makes the next state so, as it enters
    ``pre`` additively (NaN even where the decay underflows to 0), so only
    the last one is checked, after the loop.

    The kernel keeps nothing.  After each projection it calls ``visit(k,
    x_k, p_k)`` with the (M, d) slabs at grid index k, and the visitor
    keeps or reduces what the run needs (:class:`_Keep`, :class:`_SupDistance`,
    :class:`_Gaps`).  The slabs are scratch that later steps overwrite, so a
    visitor copies what it keeps.  It sees a failing row raw before it
    fails and NaN from then on, which its caller masks by ``failed``, under
    the kernel's ``np.errstate(over="ignore", invalid="ignore")``.  The
    relaxation and the integrator increment reuse one slab each, so a run
    holds O(M d) memory besides its visitor's.

    The decay factors of all steps are one ``np.exp`` before the loop (the
    same bits as one scalar exp per step), and so are the increments of a
    free term that has one row or is broadcast along rows.  Each step reads
    grid point k of every row: a contiguous (M, d) slab of time-major
    inputs (as :func:`sample_driver_batch` returns them), a strided one of
    C-ordered inputs or of a free term broadcast along rows.
    """
    M, K1, d = H.shape
    one_h = M == 1 or (M > 1 and H.strides[0] == 0)
    H = H.transpose(1, 0, 2)
    Z = None if Z is None else Z.transpose(1, 0, 2)
    scratch = np.empty((2, M, d))
    relaxed = None if n == np.inf else np.empty((M, d))
    dZ = None if Z is None else np.empty((M, d))
    failed = np.zeros(M, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        # the per-step constants; every row has the free term's increments
        # when it has one row or stride 0 along rows
        decay = None if relaxed is None else np.exp(-n * (times[1:] - times[:-1]))
        dH = np.diff(H[:, 0], axis=0) if one_h else None
        for k in range(K1):
            # x_k goes to the scratch slab x_{k-1} is not in: at n = inf
            # pre_{k-1} is P(x_{k-1}), which a domain may return as x_{k-1}
            # itself, and it is read while x_k is written
            slab = scratch[k % 2]
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
            visit(k, x, p)
    failed |= ~np.isfinite(p).all(axis=1)
    return failed


# Visitors of the kernel.  The reducing ones also take k = slice(None) with
# the whole (m, M, d) history, as :func:`_replay` feeds it, so a row reduces
# to the same bits as it steps, from its history and as a one-row PenalizedPath.


def _each(*visits):
    """One visitor that calls each of ``visits`` in turn."""

    def visit(k, x, p):
        for each in visits:
            each(k, x, p)

    return visit


def _replay(visit, states, projections):
    """``visit`` fed the whole (M, m, d) ``states`` and ``projections``."""
    visit(slice(None), states.transpose(1, 0, 2), projections.transpose(1, 0, 2))
    return visit


class _Keep:
    """Visitor copying the states, and unless ``projections`` is false the
    projections, of the first ``rows`` rows at the strictly increasing grid
    indices ``at`` in [0, K1) (None for all) into time-major buffers, of
    which ``states`` and ``projections`` (or None) are (rows, len(at), d) views."""

    def __init__(self, at, K1, rows, d, projections=True):
        idx = np.arange(K1) if at is None else np.asarray(at)
        if idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu":
            raise ValueError(f"at must be a nonempty list of grid indices, got {at!r}")
        if idx[0] < 0 or idx[-1] >= K1 or np.any(idx[1:] <= idx[:-1]):
            raise ValueError(f"at must increase strictly within [0, {K1 - 1}], got {at!r}")
        self.states = np.empty((idx.size, rows, d)).transpose(1, 0, 2)
        self.projections = np.empty((idx.size, rows, d)).transpose(1, 0, 2) if projections else None
        self.slot = dict(zip(idx.tolist(), range(idx.size)))

    def __call__(self, k, x, p):
        i, rows = self.slot.get(k), self.states.shape[0]
        if i is not None:
            self.states[:, i] = x[:rows]
            if self.projections is not None:
                self.projections[:, i] = p[:rows]


class _SupDistance:
    """Visitor holding each row's running supremum ``sup`` of the distance
    to a ``reference``: a point, at every breakpoint and segment end (so
    over [0, q], as the path runs straight between them and the norm is
    convex), or (len(fine), M, d) time-major rows at the times ``fine`` in
    [times[0], q], each step relaxing its state to those in its segment."""

    def __init__(self, reference, n, times, q, fine=None):
        if fine is None:
            fine = np.stack([times, np.append(times[1:], q)], axis=1).ravel()
            seg = np.repeat(np.arange(times.shape[0]), 2)
            reference = np.broadcast_to(reference, (fine.size, 1, reference.shape[-1]))
        else:
            seg = _segment(times, fine)
        self.seg, self.elapsed, self.reference = seg, fine - times[seg], reference
        self.n, self.sup = n, -np.inf
        self.ends = np.searchsorted(seg, np.arange(times.shape[0] + 1))

    def __call__(self, k, x, p):
        if isinstance(k, slice):
            x, p = x[self.seg], p[self.seg]
        else:
            k = slice(self.ends[k], self.ends[k + 1])
        values = _relaxed(x, p, self.n, self.elapsed[k, None])
        dist = _lengths(values - self.reference[k])
        self.sup = np.maximum(self.sup, dist.max(axis=0))


class _Gaps:
    """Visitor recording the gap |x_k - p_k| of each of ``rows`` rows at
    every step, as a time-major (K+1, rows) column."""

    def __init__(self, n, times, q, rows):
        self.n, self.times, self.q = n, times, q
        self.gaps = np.empty((times.shape[0], rows))

    def __call__(self, k, x, p):
        self.gaps[k] = _lengths(x - p)

    def variation(self, t):
        """Per-row variation of the penalty term up to t: each segment from
        before t adds |x_j - p_j| (1 - exp(-n span)), summed over the
        C-ordered transpose, as numpy sums one path (not down the column,
        which drifts in the last bit)."""
        m = int(np.searchsorted(self.times, t))
        spans = (np.minimum(np.append(self.times[1:], self.q), t) - self.times)[:m]
        gaps = np.ascontiguousarray(self.gaps[:m].T)
        return np.sum(gaps * (1.0 - np.exp(-self.n * spans)), axis=1)


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
    keep = _Keep(None, times.shape[0], 1, h.shape[1])
    if _relax_and_step(domain, f, h[None], None if z is None else z[None], n, times, keep)[0]:
        raise NumericalError("state not finite or projection not certified")
    return keep.states[0], keep.projections[0]


def solve_penalized(domain: ConvexDomain, driver: StepPath, n: float) -> PenalizedPath:
    """Solve the penalized equation exactly for a step driver.

    Between driver jumps the state relaxes toward its projection at rate
    ``n``; at a jump the driver increment is added to the left limit.  The
    driver must start inside the closed domain.  A state or projection
    that leaves the float range, or one not certified, raises NumericalError.
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
    delta = float(delta)
    mod = modulus_prime(driver, delta, q)
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
    keep = driver.times <= q
    sup_dev = float(np.max(_lengths(driver.values[keep] - anchor)))
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
