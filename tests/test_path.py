"""Step paths: evaluation, variation, moduli (against brute oracles), CSV."""

import io
import itertools

import numpy as np
import pytest
from conftest import constant_path, entries_per_block

import reflectsde.path as path_module
from reflectsde.domain import _lengths
from reflectsde.path import (
    StepPath,
    modulus_bar,
    modulus_prime,
    modulus_second,
    upcrossings,
    upcrossings_of_values,
)


def lattice_partition_modulus(path, delta, q, step):
    """Independent partition modulus: exhaustive shortest-path over all
    breakpoints on a uniform lattice (which must contain the jump times),
    with cell oscillations computed from witness evaluations.

    Exact whenever jump times and delta are multiples of ``step``: the
    optimal-partition closure set then lies inside the lattice.
    """
    N = int(round(q / step))
    pts = [i * step for i in range(N)]

    def osc(u, v):
        ts = [u] + [float(t) for t in path.times if u < t < v]
        vals = np.array([path.eval(t) for t in ts])
        if len(ts) < 2:
            return 0.0
        diff = vals[:, None, :] - vals[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2)).max())

    best = {0: 0.0}
    for j in range(1, N):
        acc = np.inf
        for i in list(best):
            if pts[j] - pts[i] >= delta - 1e-12:
                acc = min(acc, max(best[i], osc(pts[i], pts[j])))
        if np.isfinite(acc):
            best[j] = acc
    return min(max(v, osc(pts[i], q)) for i, v in best.items())


def lattice_pair_modulus(px, py, delta, q, grid=120):
    """Dense-lattice triple scan for the interlaced pair modulus."""
    ts = set(np.linspace(0.0, q, grid))
    for p in (px, py):
        for t in p.times:
            if t <= q:
                ts.add(float(t))
            if 0.0 < t <= q:
                ts.add(float(t) - 1e-9)
    ts = np.array(sorted(t for t in ts if 0.0 <= t <= q))
    X = px.eval_many(ts)
    Y = py.eval_many(ts)
    best = 0.0
    m = len(ts)
    for i in range(m - 2):
        k_hi = int(np.searchsorted(ts, ts[i] + delta, side="left")) - 1
        for j in range(i + 1, k_hi):
            a = float(np.linalg.norm(X[j] - X[i]))
            if a <= best:
                continue
            tail = Y[j + 1 : k_hi + 1] - Y[j]
            b = float(np.max(np.linalg.norm(tail, axis=1)))
            best = max(best, min(a, b))
    return best


def pairwise_reach(points):
    """Largest distance to an earlier point from the full distance matrix,
    of exact lengths at any scale."""
    dist = _lengths(points[:, None, :] - points[None, :, :])
    return np.array([dist[j, :j].max(initial=0.0) for j in range(len(points))])


def pairwise_modulus_bar(px, py, delta, q):
    """modulus_bar's window scan on union1d breakpoints with pairwise reach."""
    ts = np.union1d(px.times, py.times)
    ts = ts[ts <= q]
    X = px.eval_many(ts)
    Y = py.eval_many(ts)
    best = 0.0
    for k in range(1, len(ts)):
        if np.array_equal(Y[k], Y[k - 1]):
            continue
        lo = max(int(np.searchsorted(ts, ts[k] - delta, side="right")) - 1, 0)
        if lo >= k - 1:
            continue
        a = pairwise_reach(X[lo:k])[1:]
        b = _lengths(Y[k] - Y[lo + 1 : k])
        best = max(best, float(np.max(np.minimum(a, b))))
    return best


def per_start_modulus_bar(px, py, delta, q):
    """modulus_bar of one-dimensional paths by the per-start formula with
    exact lengths: the earlier factor from the running extremes of the
    window, the later one |d|."""
    ts = np.union1d(px.times, py.times)
    ts = ts[ts <= q]
    X = px.eval_many(ts)[:, 0]
    Y = py.eval_many(ts)
    best = 0.0
    for k in range(1, len(ts)):
        if not (Y[k] != Y[k - 1]).any():
            continue
        lo = max(int(np.searchsorted(ts, ts[k] - delta, side="right")) - 1, 0)
        if lo >= k - 1:
            continue
        p = X[lo:k]
        low = np.minimum.accumulate(p[:-1])
        high = np.maximum.accumulate(p[:-1])
        far = np.maximum(np.abs(p[1:] - low), np.abs(high - p[1:]))
        b = np.abs(Y[k, 0] - Y[lo + 1 : k, 0])
        best = max(best, float(np.minimum(far, b).max()))
    return best


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def brute_upcrossings(values, a, b):
    """Largest k admitting an alternating below/above subsequence."""
    m = len(values)
    best = 0
    # dynamic program over (position, parity); small sequences only
    for k in range(m // 2, 0, -1):
        for combo in itertools.combinations(range(m), 2 * k):
            ok = all(
                values[combo[2 * i]] < a and values[combo[2 * i + 1]] > b
                for i in range(k)
            )
            if ok:
                return k
    return best


class TestStepPathBasics:
    def test_eval_and_limits(self):
        p = StepPath([0.0, 0.5, 0.8], [[1.0], [2.0], [-1.0]], q=1.0)
        assert p.eval(0.0) == pytest.approx(1.0)
        assert p.eval(0.49) == pytest.approx(1.0)
        assert p.eval(0.5) == pytest.approx(2.0)
        assert p.eval(1.0) == pytest.approx(-1.0)
        assert p.left_limit(0.5) == pytest.approx(1.0)
        assert p.left_limit(0.0) == pytest.approx(1.0)
        assert p.left_limit(0.6) == pytest.approx(2.0)
        assert p.jump(0.8) == pytest.approx(-3.0)
        assert p.jump(0.3) == pytest.approx(0.0)

    def test_eval_many_matches_eval(self, rng):
        times = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, 7)]))
        vals = rng.normal(size=(8, 3))
        p = StepPath(times, vals, q=1.0)
        ts = rng.uniform(0, 1, 40)
        batch = p.eval_many(ts)
        for t, row in zip(ts, batch):
            assert np.array_equal(row, p.eval(t))

    def test_validation(self):
        with pytest.raises(ValueError):
            StepPath([0.1], [[1.0]], q=1.0)  # must start at 0
        with pytest.raises(ValueError):
            StepPath([0.0, 0.0], [[1.0], [2.0]], q=1.0)  # strict increase
        with pytest.raises(ValueError):
            StepPath([0.0, 0.5], [[1.0], [2.0]], q=0.4)  # horizon too small
        with pytest.raises(ValueError):
            StepPath([0.0], [[np.nan]], q=1.0)
        p = StepPath([0.0], [[1.0]], q=1.0)
        with pytest.raises(ValueError):
            p.eval(1.5)
        with pytest.raises(AttributeError):
            p.q = 2.0
        assert not p.values.flags.writeable

    def test_dimension_normalization(self):
        p = StepPath([0.0, 0.5], [1.0, 2.0], q=1.0)
        assert p.values.shape == (2, 1)
        assert p.dim == 1


def same_path(got, want):
    """Same type, bits of breakpoints and values, horizon and flags."""
    assert type(got) is type(want)
    for a, b in ((got.times, want.times), (got.values, want.values)):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert not a.flags.writeable and a.flags.c_contiguous
    assert got.q == want.q and type(got.q) is type(want.q)
    with pytest.raises(AttributeError, match="immutable"):
        got.q = 2.0


class TestBatchedPaths:
    def test_each_path_is_the_constructors(self, rng):
        times = np.array([0.0, 0.25, 0.5, 0.875])
        for dim in (1, 2, 3):
            values = rng.choice([0.0, -0.0, 1.5, -2.0, 5e-324], size=(5, 4, dim))
            # a time-major batch, read through its transpose, as the sampler returns
            major = np.ascontiguousarray(values.transpose(1, 0, 2)).transpose(1, 0, 2)
            for q in (None, 2.0):
                for source in (values, major, values.tolist()):
                    batch = StepPath._batch(times, source, q)
                    assert len(batch) == 5
                    for path, row in zip(batch, values):
                        same_path(path, StepPath(times, row, q))
        # (M, m) values give one-dimensional paths, as (m,) values do
        flat = rng.normal(size=(3, 4))
        for path, row in zip(StepPath._batch(times, flat), flat):
            same_path(path, StepPath(times, row))

    def test_paths_hold_one_breakpoint_array_and_one_copy(self, rng):
        times = np.linspace(0.0, 1.0, 9)
        values = rng.normal(size=(6, 9, 2))
        batch = StepPath._batch(times, values, 1.0)
        for path in batch:
            assert path.times is batch[0].times
            assert path.values.base is batch[0].values.base
        assert batch[0].values.base.shape == values.shape
        # copies: changing the inputs changes no path
        before = [p.values.tobytes() for p in batch]
        times[1] = 0.01
        values[:] = 7.0
        assert [p.values.tobytes() for p in batch] == before
        assert batch[0].times[1] == 0.125
        with pytest.raises(ValueError):
            batch[0].values.setflags(write=True)

    def test_empty_batch(self):
        assert StepPath._batch([0.0, 0.5], np.empty((0, 2, 1)), 1.0) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_raises_the_constructors_error(self, rng, bad):
        times = [0.0, 0.5, 0.75]
        values = rng.normal(size=(4, 3, 2))
        values[2, 1, 0] = bad
        with pytest.raises(ValueError) as alone:
            StepPath(times, values[2])
        with pytest.raises(ValueError) as batched:
            StepPath._batch(times, values)
        assert str(batched.value) == str(alone.value) == "path data must be finite"

    @pytest.mark.parametrize(
        "times, shape, q",
        [
            ([0.0, 0.5, 0.5], (2, 3, 1), None),
            ([0.1, 0.5], (2, 2, 1), None),
            ([0.0, 0.5], (2, 2, 1), 0.25),
            ([0.0, 0.5], (2, 3, 1), None),
        ],
        ids=["not-increasing", "no-zero", "horizon", "rows"],
    )
    def test_bad_batches_raise_the_constructors_errors(self, times, shape, q):
        values = np.ones(shape)
        with pytest.raises(ValueError) as alone:
            StepPath(times, values[0], q)
        with pytest.raises(ValueError) as batched:
            StepPath._batch(times, values, q)
        assert str(batched.value) == str(alone.value)


class TestCsvRoundTrip:
    def test_exact_floats(self):
        times = [0.0, 0.1, 1.0 / 3.0, 0.7000000000000001]
        vals = [[0.1, -3.0], [1e-17, 2.5], [np.pi, -0.0], [1.0 / 3.0, 7.0]]
        p = StepPath(times, vals, q=1.0)
        text = p.to_csv_string()
        back = StepPath.from_csv(io.StringIO(text), q=1.0)
        assert np.array_equal(back.times, p.times)
        assert np.array_equal(back.values, p.values)

    def test_header_and_default_horizon(self):
        p = StepPath([0.0, 0.25], [[1.0], [2.0]], q=0.25)
        text = p.to_csv_string()
        assert text.splitlines()[0] == "t,x_1"
        back = StepPath.from_csv(text)
        assert back.q == 0.25

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            StepPath.from_csv("time,x\n0.0,1.0\n")

    def test_golden_bytes(self):
        p = StepPath([0.0, 0.5], [[-0.0], [5e-324]], q=1.0)
        assert p.to_csv_string() == "t,x_1\r\n0.0,-0.0\r\n0.5,5e-324\r\n"
        plane = StepPath(
            [0.0, 1e-17, 1.0 / 3.0],
            [[-0.0, 5e-324], [1.0 / 3.0, 1e-17], [1e300, -2.5]],
            q=1.0,
        )
        assert plane.to_csv_string() == (
            "t,x_1,x_2\r\n"
            "0.0,-0.0,5e-324\r\n"
            "1e-17,0.3333333333333333,1e-17\r\n"
            "0.3333333333333333,1e+300,-2.5\r\n"
        )


class TestPartitionModulus:
    def test_double_jump_frozen_values(self):
        # jumps at 0.25 and 0.375; separable only when a cell of length
        # exactly 0.125 is allowed between them
        p = StepPath([0.0, 0.25, 0.375], [[0.0], [1.0], [0.0]], q=1.0)
        assert modulus_prime(p, 0.125) == pytest.approx(0.0, abs=1e-15)
        assert modulus_prime(p, 0.2) == pytest.approx(1.0)
        assert modulus_prime(p, 0.5) == pytest.approx(1.0)

    def test_single_jump_frozen_values(self):
        p = StepPath([0.0, 0.5], [[0.5], [-1.0]], q=1.0)
        assert modulus_prime(p, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert modulus_prime(p, 0.51) == pytest.approx(1.5)

    def test_last_cell_exempt_from_length_constraint(self):
        p = StepPath([0.0, 0.9], [[0.0], [2.0]], q=1.0)
        assert modulus_prime(p, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_horizon_excluded(self):
        p = StepPath([0.0, 1.0], [[0.0], [5.0]], q=1.0)
        for delta in (0.1, 0.5, 1.0):
            assert modulus_prime(p, delta) == pytest.approx(0.0, abs=1e-15)

    def test_constant_path_zero(self):
        assert modulus_prime(constant_path(3.0, 1.0), 0.25) == 0.0

    def test_monotone_in_delta(self, rng):
        times = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, 5)]))
        p = StepPath(times, rng.normal(size=(6, 1)), q=1.0)
        deltas = [0.05, 0.1, 0.2, 0.4, 0.8]
        vals = [modulus_prime(p, d) for d in deltas]
        assert all(v1 <= v2 + 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_upper_bounded_by_any_feasible_partition(self, rng):
        for _ in range(20):
            m = rng.integers(2, 7)
            times = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, m - 1)]))
            p = StepPath(times, rng.normal(size=(m, 2)), q=1.0)
            delta = float(rng.uniform(0.05, 0.5))
            # random feasible partition: accumulate gaps >= delta
            pts = [0.0]
            while rng.random() < 0.8:
                nxt = pts[-1] + delta + float(rng.uniform(0, 0.2))
                if nxt >= 1.0:
                    break
                pts.append(nxt)
            cells = list(zip(pts, pts[1:] + [1.0]))
            worst = 0.0
            for u, v in cells:
                sel = [p.eval(t) for t in [u] + [s for s in p.times if u < s < v]]
                sel = np.array(sel)
                diff = sel[:, None, :] - sel[None, :, :]
                worst = max(worst, float(np.sqrt((diff**2).sum(2)).max()))
            assert modulus_prime(p, delta) <= worst + 1e-12

    def test_matches_lattice_enumeration(self, rng):
        # jump times and delta aligned to the lattice, so the independent
        # enumeration is exact too
        step = 1.0 / 16.0
        for _ in range(25):
            count = int(rng.integers(1, 6))
            jt = np.sort(
                rng.choice(np.arange(1, 16), size=count, replace=False)
            ) * step
            times = np.concatenate([[0.0], jt])
            p = StepPath(times, rng.normal(size=(count + 1, 1)), q=1.0)
            delta = float(rng.integers(1, 8)) * step
            got = modulus_prime(p, delta)
            want = lattice_partition_modulus(p, delta, 1.0, step)
            assert got == pytest.approx(want, abs=1e-12)

    def test_alternating_lattice_path(self):
        # 1000 jumps at k/1000 between 0 and 1: cells of one lattice step
        # meet delta = 0.001, while any cell of 0.0015 spans a jump
        times = np.arange(1001) / 1000.0
        p = StepPath(times, np.arange(1001) % 2, q=1.0)
        assert modulus_prime(p, 0.001) == 0.0
        assert modulus_prime(p, 0.0015) == 1.0

    def test_partial_horizon(self):
        p = StepPath([0.0, 0.25, 0.9], [[0.0], [1.0], [5.0]], q=1.0)
        # restricted to q = 0.5 the second jump is invisible
        assert modulus_prime(p, 0.25, q=0.5) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_bad_delta(self):
        p = constant_path(0.0, 1.0)
        with pytest.raises(ValueError):
            modulus_prime(p, 0.0)
        with pytest.raises(ValueError):
            modulus_prime(p, 1.5)


class TestInterlacedModuli:
    def test_double_jump_frozen_values(self):
        p = StepPath([0.0, 0.25, 0.375], [[0.0], [1.0], [0.0]], q=1.0)
        assert modulus_second(p, 0.13) == pytest.approx(1.0)
        assert modulus_second(p, 0.12) == pytest.approx(0.0, abs=1e-15)

    def test_single_jump_zero(self):
        p = StepPath([0.0, 0.5], [[0.0], [3.0]], q=1.0)
        for delta in (0.1, 0.49, 1.0):
            assert modulus_second(p, delta) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_horizon_included(self):
        p = StepPath([0.0, 0.875, 1.0], [[0.0], [1.0], [0.0]], q=1.0)
        assert modulus_second(p, 0.2) == pytest.approx(1.0)

    def test_pair_order_matters(self):
        x = StepPath([0.0, 0.5], [[0.0], [1.0]], q=1.0)
        y = StepPath([0.0, 0.4], [[0.0], [1.0]], q=1.0)
        assert modulus_bar(x, y, 0.2) == pytest.approx(0.0, abs=1e-15)
        assert modulus_bar(y, x, 0.2) == pytest.approx(1.0)

    def test_constant_second_path_kills_modulus(self, rng):
        times = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, 4)]))
        x = StepPath(times, rng.normal(size=(5, 1)), q=1.0)
        y = constant_path(7.0, 1.0)
        assert modulus_bar(x, y, 0.5) == 0.0

    def test_matches_lattice_scan_1d(self, rng):
        for _ in range(15):
            mx = int(rng.integers(2, 6))
            my = int(rng.integers(2, 6))
            tx = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, mx - 1)]))
            ty = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, my - 1)]))
            x = StepPath(tx, rng.normal(size=(mx, 1)), q=1.0)
            y = StepPath(ty, rng.normal(size=(my, 1)), q=1.0)
            delta = float(rng.uniform(0.1, 0.6))
            got = modulus_bar(x, y, delta)
            want = lattice_pair_modulus(x, y, delta, 1.0)
            assert got == pytest.approx(want, abs=1e-9)

    def check_against_lattice(self, rng, dim):
        for _ in range(8):
            mx = int(rng.integers(2, 5))
            tx = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, mx - 1)]))
            x = StepPath(tx, rng.normal(size=(mx, dim)), q=1.0)
            ty = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, 3)]))
            y = StepPath(ty, rng.normal(size=(4, dim)), q=1.0)
            delta = float(rng.uniform(0.1, 0.6))
            got = modulus_bar(x, y, delta)
            want = lattice_pair_modulus(x, y, delta, 1.0)
            assert got == pytest.approx(want, abs=1e-9)

    def test_matches_lattice_scan_2d(self, rng):
        self.check_against_lattice(rng, 2)

    def test_matches_lattice_scan_3d(self, rng):
        self.check_against_lattice(rng, 3)

    def test_second_modulus_in_the_plane(self):
        # jumps of length 5 and 1, 0.25 apart: min(5, 1) once delta > 0.25
        p = StepPath([0.0, 0.25, 0.5], [[0.0, 0.0], [3.0, 4.0], [3.0, 3.0]], q=1.0)
        assert modulus_second(p, 0.26) == 1.0
        assert modulus_second(p, 0.25) == 0.0
        # a round trip back to the start: min(5, 5)
        back = StepPath([0.0, 0.25, 0.5], [[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]], q=1.0)
        assert modulus_second(back, 0.3) == 5.0
        assert modulus_second(back, 0.3) == modulus_bar(back, back, 0.3)

    # 1 and 3 pairs give one-row blocks on the short paths, 20 several rows;
    # the long paths take the running-extremes scan in dimension one
    @pytest.mark.parametrize("entries", [1, 3, 20, 60])
    def test_blocked_scan_is_bit_identical(self, entries, rng):
        cases = []
        for trial in range(31):
            long = trial >= 25
            dim = 1 if long else 1 + trial % 3
            lo, hi = (50, 81) if long else (2, 9)
            mx = int(rng.integers(lo, hi))
            my = int(rng.integers(lo, hi))
            tx = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, mx - 1)]))
            ty = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, my - 1)]))
            x = StepPath(tx, rng.normal(size=(mx, dim)), q=1.0)
            y = StepPath(ty, rng.normal(size=(my, dim)), q=1.0)
            cases.append((x, y, float(rng.uniform(0.05, 0.9))))
        whole = [(modulus_bar(x, y, d), modulus_prime(x, d)) for x, y, d in cases]
        with entries_per_block(entries):
            blocked = [(modulus_bar(x, y, d), modulus_prime(x, d)) for x, y, d in cases]
        assert blocked == whole

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e-200, 1e200])
    @pytest.mark.parametrize("kind", ["random", "tied", "increasing", "decreasing"])
    def test_running_extremes_match_pairwise_reach(self, rng, scale, kind):
        # the one-dimensional scan's earlier factor, read through the
        # modulus: a second path jumping by 1e308, longer than any of those
        # distances, just after breakpoint j leaves the largest pairwise
        # distance among the first j + 1 points
        for length in (1, 2, 3, 17, 60):
            p = rng.normal(size=(length, 1))
            if kind == "tied":
                p = np.round(p)
            elif kind != "random":
                p = np.sort(p, axis=0)[:: 1 if kind == "increasing" else -1]
            p = p * scale
            x = StepPath(np.arange(length) / length, p, q=1.0)
            want = np.maximum.accumulate(pairwise_reach(p))
            for j in range(length):
                t = (j + 0.5) / length
                y = StepPath([0.0, t], [[0.0], [1e308]], q=1.0)
                assert bits(modulus_bar(x, y, 2.0, t)) == bits(want[j])

    # 1e-160: squares in the subnormal range, where sqrt(x * x) != |x|, so
    # only the exact length matches
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e-160, 1e-200, 1e200])
    @pytest.mark.parametrize("kind", ["random", "tied", "signed-zeros", "zero-steps"])
    @pytest.mark.parametrize("grids", ["shared", "equal", "merged", "disjoint"])
    def test_one_dim_scan_matches_per_start_roots(self, rng, scale, kind, grids):
        # the running extremes give the bits of the exact length per factor,
        # also where the squares would underflow or overflow
        pool = {
            "signed-zeros": [0.0, -0.0, 1.0, -1.0],
            "zero-steps": [0.0, -0.0, 0.0, -0.0, 1.0, -2.0],
        }
        for trial in range(12):
            m = int(rng.integers(2, 30))
            tx = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, m - 1)]))
            if grids in ("shared", "equal"):
                ty = tx.copy()
            elif grids == "merged":
                ty = np.union1d(tx[:: 2], rng.uniform(0, 1, m // 2))
            else:
                # only t = 0 in common
                ty = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, m // 2 + 1)]))
            values = []
            for n in (len(tx), len(ty)):
                if kind in pool:
                    v = rng.choice(pool[kind], size=n)
                    # zero steps: runs of +-0 increments between jumps
                    v = np.cumsum(v) if kind == "zero-steps" else v
                else:
                    v = rng.normal(size=n)
                    v = np.round(v) if kind == "tied" else v
                values.append(v[:, None] * scale)
            if grids == "shared":
                x, y = StepPath._batch(tx, np.stack(values), 1.0)
                assert x.times is y.times
            else:
                x, y = StepPath(tx, values[0], 1.0), StepPath(ty, values[1], 1.0)
            q = 1.0 if trial % 3 == 0 else float(rng.uniform(0.1, 1.0))
            delta = 3.0 if trial % 4 == 1 else float(rng.uniform(0.01, 0.9))
            got = modulus_bar(x, y, delta, q)
            want = per_start_modulus_bar(x, y, delta, q)
            pairwise = pairwise_modulus_bar(x, y, delta, q)
            assert bits(got) == bits(want) == bits(pairwise), (trial, q, delta)

    def test_shared_grid_is_recognised_by_identity(self, rng):
        # paths of one batch hold one breakpoint array: the merge takes it
        # without an elementwise comparison
        class Uncomparable(np.ndarray):
            def __eq__(self, other):
                raise AssertionError("shared breakpoints compared elementwise")

        times = np.linspace(0.0, 1.0, 17).view(Uncomparable)
        times.setflags(write=False)
        x, y = StepPath._batch(times.view(np.ndarray), rng.normal(size=(2, 17, 1)), 1.0)
        shared = [
            object.__new__(StepPath)._hold(times=times, values=p.values, q=1.0) for p in (x, y)
        ]
        for delta in (0.05, 0.3, 2.0):
            assert modulus_bar(*shared, delta) == modulus_bar(x, y, delta)

    def test_grids_shared_equal_or_disjoint(self, rng):
        for trial in range(30):
            dim = 1 + trial % 3
            m = int(rng.integers(2, 40))
            tx = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, m - 1)]))
            x = StepPath(tx, rng.normal(size=(m, dim)), q=1.0)
            same = StepPath(tx, rng.normal(size=(m, dim)), q=1.0)
            ty = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, m // 2)]))
            other = StepPath(ty, rng.normal(size=(len(ty), dim)), q=1.0)
            delta = float(rng.uniform(0.01, 0.9))
            q = 1.0 if trial % 2 else float(rng.uniform(0.2, 1.0))
            assert same.times is not x.times
            for px, py in ((x, x), (x, same), (same, x), (x, other), (other, x)):
                want = pairwise_modulus_bar(px, py, delta, q)
                assert modulus_bar(px, py, delta, q) == want

    def test_monotone_in_delta(self, rng):
        times = np.sort(np.concatenate([[0.0], rng.uniform(0, 1, 6)]))
        x = StepPath(times, rng.normal(size=(7, 1)), q=1.0)
        vals = [modulus_second(x, d) for d in (0.05, 0.1, 0.2, 0.4)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestUpcrossings:
    def test_fixed_patterns(self):
        assert upcrossings_of_values([0.0, 1.0, 0.0, 1.0], 0.25, 0.75) == 2
        assert upcrossings_of_values([0.0, 1.0], 0.25, 0.75) == 1
        assert upcrossings_of_values([0.5, 0.6, 0.5], 0.25, 0.75) == 0
        # strict: touching the levels does not count
        assert upcrossings_of_values([0.25, 0.75], 0.25, 0.75) == 0
        assert upcrossings_of_values([1.0, 0.0, 1.0], 0.25, 0.75) == 1

    def test_path_wrapper_and_horizon(self):
        p = StepPath(
            [0.0, 0.2, 0.4, 0.6],
            [[0.0], [1.0], [0.0], [1.0]],
            q=1.0,
        )
        assert upcrossings(p, 0, 0.25, 0.75) == 2
        assert upcrossings(p, 0, 0.25, 0.75, q=0.5) == 1
        with pytest.raises(ValueError):
            upcrossings(p, 0, 0.75, 0.25)
        with pytest.raises(ValueError):
            upcrossings(p, 1, 0.0, 1.0)

    def test_greedy_matches_exhaustive(self, rng):
        for _ in range(40):
            m = int(rng.integers(2, 11))
            vals = rng.normal(size=m)
            a, b = sorted(rng.normal(size=2))
            if a == b:
                continue
            assert upcrossings_of_values(vals, a, b) == brute_upcrossings(
                vals, a, b
            )

    def test_widening_levels_never_increase(self, rng):
        vals = rng.normal(size=30)
        base = upcrossings_of_values(vals, -0.5, 0.5)
        wider = upcrossings_of_values(vals, -0.8, 0.8)
        assert wider <= base


def _values(rng, pool, n):
    return rng.choice(np.asarray(pool, dtype=float), size=n)


POOLS = {
    "normal": None,
    "signed-zeros": [-0.0, 0.0, 1.0, -1.0],
    "infinite": [-0.0, 0.0, np.inf, -np.inf, 2.0],
    "huge": [1e308, 1.7e308, -0.0, 3.0],
    "nan": [np.nan, -0.0, 0.0, 1.0],
}


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_median_is_np_median(pool):
    # same value, type and sign bit, odd and even sizes, NaN when any is
    rng = np.random.default_rng(3)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in [*range(1, 12), 40, 41, 1000, 1001]:
            for _ in range(20):
                v = rng.normal(size=n) if POOLS[pool] is None else _values(rng, POOLS[pool], n)
                want, got = np.median(v), path_module._median(v)
                assert type(got) is type(want) and got.tobytes() == want.tobytes(), v


@pytest.mark.parametrize("pool", ["normal", "signed-zeros", "infinite"])
def test_sorted_unique_is_np_unique(pool):
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 50, 400):
        for d in (1, 2, 3):
            X = (
                np.round(rng.normal(size=(n, d)))
                if POOLS[pool] is None
                else _values(rng, POOLS[pool], (n, d))
            )
            for values, want in ((X[:, 0], np.unique(X[:, 0])), (X.ravel(), np.unique(X))):
                got = path_module._sorted_unique(values)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
