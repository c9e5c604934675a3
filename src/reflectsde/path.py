"""Piecewise-constant cadlag paths and their oscillation functionals.

The partition modulus and the interlaced moduli are exact for step paths
in any dimension.  The partition modulus bisects over the diameters of
runs of segment values; the interlaced moduli read their oscillations from
one scan, ``_reach``, which gives each breakpoint value its largest
distance to an earlier one: in dimension one from the running minimum and
maximum, in O(L), and otherwise by a blocked pairwise scan.
"""

from __future__ import annotations

import bisect
import csv
import io

import numpy as np

__all__ = [
    "StepPath",
    "modulus_prime",
    "modulus_second",
    "modulus_bar",
    "upcrossings",
    "upcrossings_of_values",
]

# bound on the point pairs whose distances are held at once in _reach
_PAIRS_PER_BLOCK = 1_000_000


class StepPath:
    """Right-continuous step path on [0, q] with finitely many jumps.

    ``times`` are the breakpoints (strictly increasing, starting at 0) and
    ``values[j]`` is the value held on ``[times[j], times[j+1])``; the last
    value extends to the horizon ``q``.  Values are stored as an (m, d)
    array even in dimension one.  Instances are immutable.
    """

    __slots__ = ("times", "values", "q")

    def __init__(self, times, values, q=None):
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if t.ndim != 1 or v.ndim != 2 or t.shape[0] != v.shape[0]:
            raise ValueError(
                f"times {t.shape} and values {v.shape} must be (m,) and (m, d)"
            )
        if t.shape[0] == 0:
            raise ValueError("a step path needs at least one breakpoint")
        if t[0] != 0.0:
            raise ValueError("first breakpoint must be t = 0")
        if t.shape[0] > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("path data must be finite")
        q = float(t[-1]) if q is None else float(q)
        if q < t[-1]:
            raise ValueError(f"horizon {q} precedes last breakpoint {t[-1]}")
        if q <= 0.0:
            raise ValueError("horizon must be positive")
        t = t.copy()
        v = v.copy()
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("StepPath is immutable")

    @classmethod
    def constant(cls, value, q: float) -> "StepPath":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(np.zeros(1), v[None, :], q)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def _check_time(self, t) -> float:
        t = float(t)
        if not 0.0 <= t <= self.q:
            raise ValueError(f"time {t} outside [0, {self.q}]")
        return t

    def eval(self, t) -> np.ndarray:
        """Value at time t (right-continuous)."""
        t = self._check_time(t)
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.values[idx].copy()

    def eval_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < 0.0 or ts.max() > self.q):
            raise ValueError("evaluation times outside the horizon")
        idx = np.searchsorted(self.times, ts, side="right") - 1
        return self.values[idx]

    def left_limit(self, t) -> np.ndarray:
        """Limit from the left; at t = 0 this is the initial value."""
        t = self._check_time(t)
        if t == 0.0:
            return self.values[0].copy()
        idx = int(np.searchsorted(self.times, t, side="left")) - 1
        return self.values[max(idx, 0)].copy()

    def jump(self, t) -> np.ndarray:
        return self.eval(t) - self.left_limit(t)

    def total_variation(self, t=None) -> float:
        """Coordinatewise variation: sum over coordinates of |jump| sums."""
        t = self.q if t is None else self._check_time(t)
        if self.times.shape[0] == 1:
            return 0.0
        mask = self.times[1:] <= t
        if not mask.any():
            return 0.0
        diffs = np.diff(self.values, axis=0)[mask]
        return float(np.sum(np.abs(diffs)))

    def to_csv(self, stream) -> None:
        """Write breakpoints as ``t,x_1,..,x_d`` with round-trip floats.

        The bytes are those of :func:`csv.writer`: no field needs quoting
        and every line ends in ``\\r\\n``.
        """
        header = ",".join(["t"] + [f"x_{i + 1}" for i in range(self.dim)])
        line = ",".join(["%r"] * (self.dim + 1)) + "\r\n"
        flat = np.column_stack((self.times, self.values)).ravel().tolist()
        stream.write(header + "\r\n" + line * len(self.times) % tuple(flat))

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, stream, q=None) -> "StepPath":
        """Read a path written by :meth:`to_csv`.

        The horizon is not stored in the file; it defaults to the last
        breakpoint unless supplied.
        """
        if isinstance(stream, str):
            stream = io.StringIO(stream)
        reader = csv.reader(stream)
        header = next(reader, None)
        if not header or header[0] != "t":
            raise ValueError("expected a header row starting with 't'")
        rows = [row for row in reader if row]
        if not rows:
            raise ValueError("no data rows")
        times = np.array([float(r[0]) for r in rows])
        values = np.array([[float(x) for x in r[1:]] for r in rows])
        return cls(times, values, q=q)

    def __repr__(self) -> str:
        return (
            f"StepPath(dim={self.dim}, breakpoints={self.times.shape[0]}, "
            f"q={self.q})"
        )


def _reach(points: np.ndarray) -> np.ndarray:
    """r[j] = largest distance from points[j] to an earlier point; r[0] = 0.

    Each distance is sqrt(sum(diff * diff)) of diff = points[j] - points[i].
    In dimension one the largest is found in O(L) from the running extremes
    of the earlier points, with the same bits as the pairwise scan: rounded
    subtraction is monotone, so the largest |fl(p_j - p_i)| over i < j is
    taken at the running minimum or maximum; and sqrt(fl(x * x)) is
    nondecreasing in |x|, also where x * x underflows or overflows.

    In higher dimensions rows are taken in blocks of at most
    ``_PAIRS_PER_BLOCK`` pairs, so the temporaries stay bounded for any
    number of points.
    """
    L = points.shape[0]
    out = np.zeros(L)
    if L > 1 and points.shape[1] == 1:
        p = points[:, 0]
        low = np.minimum.accumulate(p[:-1])
        high = np.maximum.accumulate(p[:-1])
        far = np.maximum(np.abs(p[1:] - low), np.abs(high - p[1:]))
        out[1:] = np.sqrt(far * far)
        return out
    step = max(1, _PAIRS_PER_BLOCK // L)
    for lo in range(1, L, step):
        hi = min(lo + step, L)
        diff = points[lo:hi, None, :] - points[None, : hi - 1, :]
        # row j of the block keeps the columns i < j
        dist = np.tril(_lengths(diff), lo - 1)
        out[lo:hi] = dist.max(axis=1)
    return out


def modulus_prime(path: StepPath, delta: float, q=None) -> float:
    """Partition oscillation modulus over [0, q).

    Infimum over partitions 0 = t_0 < ... < t_r = q, with every cell except
    the last at least ``delta`` long, of the largest oscillation of the
    path over a half-open cell [t_{i-1}, t_i).  The value at q itself never
    enters (all cells are half-open).

    Exact for step paths.  A cell's oscillation is the diameter
    ``diam[a, b]`` of the values of the segments a..b it meets, and
    bisection over these finds the least threshold a partition meets.  A
    cell starting in segment a ends anywhere from its start plus delta to
    the end of the last segment b within the threshold; an earlier start
    never narrows that window, so one scan keeps the earliest reachable
    start of each segment until a cell runs to q.
    """
    q = path.q if q is None else float(q)
    if not 0.0 < q <= path.q:
        raise ValueError(f"q must lie in (0, {path.q}]")
    delta = float(delta)
    if not 0.0 < delta <= q:
        raise ValueError("delta must lie in (0, q]")

    times = path.times[path.times < q]
    L = times.shape[0]
    # diam[a, b] for b >= a, by one backward pass; zero below the diagonal
    diam = np.zeros((L, L))
    for a in range(L - 2, -1, -1):
        diff = path.values[a + 1 : L] - path.values[a]
        reach = np.maximum.accumulate(np.sqrt(np.sum(diff * diff, axis=1)))
        diam[a, a + 1 :] = np.maximum(diam[a + 1, a + 1 :], reach)

    def feasible(eps):
        # last segment within eps: rows are zero, then nondecreasing in b
        last = np.count_nonzero(diam <= eps, axis=1) - 1
        start = np.full(L, np.inf)
        start[0] = 0.0
        for a in range(L):
            if start[a] == np.inf:
                continue
            b = last[a]
            if b == L - 1:
                return True
            # a cell shorter than delta by rounding of its end points counts
            e = start[a] + delta - 1e-12
            if e <= times[b + 1]:
                c = max(a, int(np.searchsorted(times, e, side="right")) - 1)
                start[c] = min(start[c], e)
                start[c + 1 : b + 2] = times[c + 1 : b + 2]
        return False

    # the least diameter that passes; the largest, one cell [0, q), always does
    levels = np.unique(diam)
    return float(levels[bisect.bisect_left(levels, True, key=feasible)])


def _merged_pair(path_x: StepPath, path_y: StepPath, q: float):
    """Merged breakpoints up to q and both paths' values on them."""
    tx, ty = path_x.times, path_y.times
    if tx.shape == ty.shape and (tx == ty).all():
        n = int(tx.searchsorted(q, "right"))
        return tx[:n], path_x.values[:n], path_y.values[:n]
    times = np.concatenate((tx, ty))
    times.sort()
    fresh = np.empty(times.shape, dtype=bool)
    fresh[0] = True
    np.not_equal(times[1:], times[:-1], out=fresh[1:])
    times = times[fresh]
    times = times[: int(times.searchsorted(q, "right"))]
    first = path_x.values[tx.searchsorted(times, "right") - 1]
    second = path_y.values[ty.searchsorted(times, "right") - 1]
    return times, first, second


def _lengths(diff: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the rows of the last axis, as sqrt(sum(d * d))."""
    return np.sqrt((diff * diff).sum(axis=-1))


def modulus_second(path: StepPath, delta: float, q=None) -> float:
    """Interlaced oscillation modulus of a single path.

    Supremum over times s < u < t <= q with t - s < delta of
    min(|x_u - x_s|, |x_t - x_u|); detects pairs of jumps closer than
    ``delta`` and vanishes as delta shrinks for paths with isolated jumps.
    It is :func:`modulus_bar` of the path with itself.
    """
    return modulus_bar(path, path, delta, q)


def modulus_bar(path_x: StepPath, path_y: StepPath, delta: float, q=None) -> float:
    """Interlaced oscillation modulus of an ordered pair of paths.

    Supremum over s < u < t <= q with t - s < delta of
    min(|x_u - x_s|, |y_t - y_u|): an oscillation of the first path
    followed within ``delta`` by one of the second.  Evaluated on the
    merged breakpoints; exact for step paths.

    The later factor is constant while the second path is, and the window
    of earlier times is widest at the first segment of such a run, so only
    indices k where the second path changes serve as t.  For each, with lo
    the first index whose successor starts after times[k] - delta, the
    scan takes the earlier factor from :func:`_reach` over lo..k-1, in
    O(k - lo) for paths in dimension one.
    """
    qx = min(path_x.q, path_y.q)
    q = qx if q is None else float(q)
    if not 0.0 < q <= qx:
        raise ValueError(f"q must lie in (0, {qx}]")
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    times, first, second = _merged_pair(path_x, path_y, q)
    starts = np.flatnonzero((second[1:] != second[:-1]).any(axis=1)) + 1
    lows = times.searchsorted(times[starts] - float(delta), "right") - 1
    out = 0.0
    for k, lo in zip(starts.tolist(), np.maximum(lows, 0).tolist()):
        if lo >= k - 1:
            continue
        a = _reach(first[lo:k])[1:]
        b = _lengths(second[k] - second[lo + 1 : k])
        out = max(out, float(np.minimum(a, b).max()))
    return out


def upcrossings_of_values(values, a: float, b: float) -> int:
    """Greedy strict up-crossing count of a value sequence over (a, b)."""
    if not a < b:
        raise ValueError("need a < b")
    count = 0
    below = False
    for v in values:
        if not below:
            if v < a:
                below = True
        elif v > b:
            count += 1
            below = False
    return count


def upcrossings(path: StepPath, coord: int, a: float, b: float, q=None) -> int:
    """Number of strict up-crossings of the level pair a < b by a coordinate.

    A crossing needs a value strictly below ``a`` followed in time by one
    strictly above ``b``; the greedy scan over breakpoint values is exact
    for step paths.
    """
    q = path.q if q is None else path._check_time(q)
    if not 0 <= coord < path.dim:
        raise ValueError(f"coordinate {coord} out of range")
    mask = path.times <= q
    return upcrossings_of_values(path.values[mask, coord], a, b)
