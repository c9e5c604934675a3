"""Step paths: evaluation, variation, moduli (against brute oracles), CSV."""

import io
import itertools

import numpy as np
import pytest

import reflectsde.path as path_module
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
    """Largest distance to an earlier point from the full distance matrix."""
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
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
        b = np.linalg.norm(Y[k] - Y[lo + 1 : k], axis=1)
        best = max(best, float(np.max(np.minimum(a, b))))
    return best


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

    def test_total_variation(self):
        p = StepPath([0.0, 0.3, 0.6], [[0.0, 0.0], [1.0, -2.0], [3.0, 1.0]], q=1.0)
        assert p.total_variation() == pytest.approx(1 + 2 + 2 + 3)
        assert p.total_variation(0.3) == pytest.approx(3.0)
        assert p.total_variation(0.29) == 0.0
        assert StepPath.constant([5.0], 2.0).total_variation() == 0.0

    def test_dimension_normalization(self):
        p = StepPath([0.0, 0.5], [1.0, 2.0], q=1.0)
        assert p.values.shape == (2, 1)
        assert p.dim == 1


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
        assert modulus_prime(StepPath.constant(3.0, 1.0), 0.25) == 0.0

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
        p = StepPath.constant(0.0, 1.0)
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
        y = StepPath.constant(7.0, 1.0)
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
    @pytest.mark.parametrize("pairs", [1, 3, 20])
    def test_blocked_scan_is_bit_identical(self, pairs, rng, monkeypatch):
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
        monkeypatch.setattr(path_module, "_PAIRS_PER_BLOCK", pairs)
        blocked = [(modulus_bar(x, y, d), modulus_prime(x, d)) for x, y, d in cases]
        assert blocked == whole

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e-200, 1e200])
    @pytest.mark.parametrize("kind", ["random", "tied", "increasing", "decreasing"])
    def test_running_extremes_match_pairwise_reach(self, rng, scale, kind):
        for length in (1, 2, 3, 17, 60):
            p = rng.normal(size=(length, 1))
            if kind == "tied":
                p = np.round(p)
            elif kind != "random":
                p = np.sort(p, axis=0)[:: 1 if kind == "increasing" else -1]
            p = p * scale
            # squares past the float range overflow to inf in both scans
            with np.errstate(over="ignore"):
                got = path_module._reach(p)
                want = pairwise_reach(p)
            assert got.tobytes() == want.tobytes()

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
            for values, want in (
                (X[:, 0], np.unique(X[:, 0])),
                (X.ravel(), np.unique(X)),
                (X, np.unique(X, axis=0)),
                (np.broadcast_to(X[:1], X.shape), np.unique(X[:1], axis=0)),
            ):
                got = path_module._sorted_unique(values)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
