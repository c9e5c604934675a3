"""Piecewise-constant cadlag paths and their oscillation functionals.

Step paths and penalized paths share one breakpoint core, ``_Breakpoints``:
the check of breakpoints and horizon (which ``sde.Grid`` runs too),
immutability, the time check, and evaluation, batched evaluation and left
limits over one hook, the value held from breakpoint j at time t.  A step
path holds ``values[j]``; a penalized path relaxes toward the projection
(``penalty._relaxed``).  Each path type serializes itself, to CSV and
to JSON.  One core, ``_paths``, checks and copies a batch on one grid
once, and a constructor builds its one-row batch.  The paths of a batch
hold one breakpoint array, which the interlaced moduli recognise by
identity before comparing breakpoints.

The partition modulus and the interlaced moduli are exact for step paths
in any dimension.  The partition modulus bisects over the diameters of
runs of segment values.  The interlaced moduli need, for each breakpoint
value, its largest distance to an earlier one in a window.  For a pair of
one-dimensional paths the scan takes it from the running minimum and
maximum, in O(L), as |differences|; otherwise ``_reach`` gives the
distances by a blocked pairwise scan.
"""

from __future__ import annotations

import bisect
import csv
import io
import json

import numpy as np

from .domain import _lengths, _rows_per_block

__all__ = [
    "StepPath",
    "modulus_prime",
    "modulus_second",
    "modulus_bar",
    "upcrossings",
    "upcrossings_of_values",
]


def _breakpoints(times, q=None):
    """Breakpoints as a read-only float copy, and the horizon.

    There is at least one breakpoint; the first is 0 and they increase
    strictly to a finite last one.  The horizon q, by default the last
    breakpoint, is at least the last one and positive.
    """
    t = np.array(times, dtype=float)
    if t.ndim != 1 or t.shape[0] == 0:
        raise ValueError(f"breakpoints must be a nonempty (m,) array, got {t.shape}")
    if t[0] != 0.0:
        raise ValueError("first breakpoint must be t = 0")
    # a NaN fails the comparisons, and an infinity can only be the last
    if not ((t[1:] > t[:-1]).all() and t[-1] < np.inf):
        raise ValueError("breakpoints must be finite and strictly increasing")
    q = float(t[-1]) if q is None else float(q)
    if q < t[-1]:
        raise ValueError(f"horizon {q} precedes last breakpoint {t[-1]}")
    if not q > 0.0:
        raise ValueError("horizon must be positive")
    t.setflags(write=False)
    return t, q


def _rows_of(values, m: int) -> np.ndarray:
    """One (m, d) block per path as a read-only C-ordered (M, m, d) float
    copy; (M, m) values are one-dimensional paths."""
    v = np.array(values, dtype=float, order="C")
    if v.ndim == 2:
        v = v[..., None]
    if v.ndim != 3 or v.shape[1] != m:
        raise ValueError(f"values {v.shape[1:]} must be (m, d) for m = {m} breakpoints")
    v.setflags(write=False)
    return v


def _paths(times, values, q, **more) -> list:
    """The fields of each path of a batch on the breakpoints ``times`` and
    horizon q: one (m, d) block per path of (M, m, d) ``values``, and of
    each further per-breakpoint array in ``more`` (a penalized path's
    projections).  The checks and copies are made once for the batch, in
    order: breakpoints and horizon, then each array's shape, its match
    with the values' and its finiteness.  Every path holds the same
    breakpoint array and read-only views of one copy of each array.  A
    single path is the one-row batch ``[values]``.
    """
    t, q = _breakpoints(times, q)
    columns = {"values": values, **more}
    for name, data in columns.items():
        block = columns[name] = _rows_of(data, t.shape[0])
        states = columns["values"].shape
        if block.shape != states:
            raise ValueError(f"{name} {block.shape} do not match the states {states}")
        if not np.isfinite(block).all():
            raise ValueError("path data must be finite")
    return [dict(zip(columns, rows), times=t, q=q) for rows in zip(*columns.values())]


def _segment(times: np.ndarray, ts):
    """Index of the breakpoint each time in ``ts`` is held from: the last
    j with times[j] <= t."""
    return times.searchsorted(ts, side="right") - 1


# np.unique (np.union1d too) and np.median import numpy.ma on first use,
# 10-15 ms inside a run; the package uses these exact equivalents instead.


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array in ascending order:
    ``np.unique(values)`` on NaN-free input."""
    ordered = np.sort(values)
    keep = np.ones(ordered.shape[0], dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _median(values: np.ndarray):
    """``np.median`` of a nonempty 1-D array: the mean of the middle value,
    or of the two middle ones, and NaN when any value is NaN."""
    half, odd = divmod(values.shape[0], 2)
    # np.median's own partition and mean, so a signed zero comes out as there
    part = np.partition(values, [half, -1] if odd else [half - 1, half, -1])
    if np.isnan(part[-1]):
        return part[-1]
    return np.mean(part[half - 1 + odd : half + 1])


class _Breakpoints:
    """A path on [0, q] given by its breakpoints and the values there.

    ``values[j]`` is the value stored at breakpoint ``times[j]``; the value
    at a time t in [times[j], times[j+1]) (or [times[-1], q]) is
    ``_held(j, t)``, which each path type defines.  Instances are immutable.
    """

    __slots__ = ("times", "values", "q")

    def __init__(self, times, values, q=None):
        self._hold(**_paths(times, [values], q)[0])

    @classmethod
    def _batch(cls, times, values, q=None) -> list:
        """One path per (m, d) block of (M, m, d) ``values``, equal to
        ``cls(times, values[i], q)``, with the checks and copies made once
        for the batch (:func:`_paths`)."""
        return [object.__new__(cls)._hold(**fields) for fields in _paths(times, values, q)]

    def _hold(self, **fields):
        """Set fields the caller has checked; returns the path."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

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
        return self.eval_many(self._check_time(t))

    def eval_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        # NaN fails both comparisons
        if ts.size and not (0.0 <= ts.min() and ts.max() <= self.q):
            raise ValueError("evaluation times outside the horizon")
        return self._held(_segment(self.times, ts), ts)

    def left_limit(self, t) -> np.ndarray:
        """Limit from the left; at t = 0 this is the stored first value."""
        t = self._check_time(t)
        if t == 0.0:
            return self.values[0].copy()
        return self._held(int(np.searchsorted(self.times, t, side="left")) - 1, t)


class StepPath(_Breakpoints):
    """Right-continuous step path on [0, q] with finitely many jumps.

    ``times`` are the breakpoints (strictly increasing, starting at 0) and
    ``values[j]`` is the value held on ``[times[j], times[j+1])``; the last
    value extends to the horizon ``q``.  Values are stored as an (m, d)
    array even in dimension one.  Instances are immutable.
    """

    __slots__ = ()

    def _held(self, j, t) -> np.ndarray:
        return self.values.take(j, axis=0)

    def skeleton_values(self) -> np.ndarray:
        """The values, which witness every extremum and crossing."""
        return self.values

    def jump(self, t) -> np.ndarray:
        return self.eval(t) - self.left_limit(t)

    def to_csv_string(self) -> str:
        """Breakpoints as ``t,x_1,..,x_d`` lines with round-trip floats.

        The bytes are those of :func:`csv.writer`: no field needs quoting
        and every line ends in ``\\r\\n``.
        """
        header = ",".join(["t"] + [f"x_{i + 1}" for i in range(self.dim)])
        line = ",".join(["%r"] * (self.dim + 1)) + "\r\n"
        flat = np.column_stack((self.times, self.values)).ravel().tolist()
        return header + "\r\n" + line * len(self.times) % tuple(flat)

    def to_json(self) -> str:
        """The horizon, breakpoints and values as one JSON object."""
        times, values = self.times.tolist(), self.values.tolist()
        return json.dumps({"q": self.q, "times": times, "values": values})

    @classmethod
    def from_csv(cls, stream, q=None) -> "StepPath":
        """Read a path written by :meth:`to_csv_string`.

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

    Each distance is ``domain._lengths`` of diff = points[j] - points[i].
    Rows are taken in blocks of ``domain._rows_per_block``, so the
    temporaries stay bounded for any number of points.  (Pairs of paths in
    dimension one take the running-extremes scan of :func:`modulus_bar`.)
    """
    L, d = points.shape
    out = np.zeros(L)
    step = _rows_per_block(L * d)
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
        reach = np.maximum.accumulate(_lengths(diff))
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
    levels = _sorted_unique(diam.ravel())
    return float(levels[bisect.bisect_left(levels, True, key=feasible)])


def _merged_pair(path_x: StepPath, path_y: StepPath, q: float):
    """Merged breakpoints up to q and both paths' values on them."""
    tx, ty = path_x.times, path_y.times
    # paths of one batch hold one breakpoint array
    if tx is ty or (tx.shape == ty.shape and (tx == ty).all()):
        n = int(tx.searchsorted(q, "right"))
        return tx[:n], path_x.values[:n], path_y.values[:n]
    times = _sorted_unique(np.concatenate((tx, ty)))
    times = times[: int(times.searchsorted(q, "right"))]
    first = path_x.values[_segment(tx, times)]
    second = path_y.values[_segment(ty, times)]
    return times, first, second


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
    earlier factor at u is the largest distance from x_u to an earlier x
    in the window.  In higher dimensions :func:`_reach` gives it.

    When both paths are one-dimensional the scan reads the value columns
    and takes that distance, in O(k - lo), from the running minimum and
    maximum: rounded subtraction is monotone, so the largest
    |fl(x_u - x_s)| is taken at one of them.  That is the length
    ``domain._lengths`` gives a one-entry difference.
    """
    qx = min(path_x.q, path_y.q)
    q = qx if q is None else float(q)
    if not 0.0 < q <= qx:
        raise ValueError(f"q must lie in (0, {qx}]")
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    times, first, second = _merged_pair(path_x, path_y, q)
    one_dim = first.shape[1] == second.shape[1] == 1
    if one_dim:
        x, y = first[:, 0], second[:, 0]
        starts = (y[1:] != y[:-1]).nonzero()[0] + 1
    else:
        starts = (second[1:] != second[:-1]).any(axis=1).nonzero()[0] + 1
    lows = _segment(times, times[starts] - float(delta))
    out = 0.0
    for k, lo in zip(starts.tolist(), lows.tolist()):
        lo = max(lo, 0)
        if lo >= k - 1:
            continue
        if one_dim:
            earlier, u = x[lo : k - 1], x[lo + 1 : k]
            # the larger of u - min and max - u is the distance to the
            # farther extreme: where one is negative, the other is larger
            low, high = np.minimum.accumulate(earlier), np.maximum.accumulate(earlier)
            far = np.maximum(u - low, high - u)
            out = max(out, np.minimum(far, np.abs(y[k] - y[lo + 1 : k])).max())
        else:
            a = _reach(first[lo:k])[1:]
            b = _lengths(second[k] - second[lo + 1 : k])
            out = max(out, np.minimum(a, b).max())
    return float(out)


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
