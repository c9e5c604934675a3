"""Closed-form penalized paths and the a-priori bounds."""

import numpy as np
import pytest

from reflectsde.domain import Ball, Box, HalfSpace, NumericalError, Polyhedron
from reflectsde.path import StepPath
from reflectsde.penalty import (
    SUP_FACTOR,
    VARIATION_FACTOR,
    PenalizedPath,
    _penalty_variation,
    _relax_and_step,
    _relaxed,
    _sup_deviation,
    penalty_bounds,
    solve_penalized,
)
from reflectsde.sde import (
    Brownian,
    BrownianDrift,
    CompoundPoisson,
    ConstantStart,
    DiagAffine,
    DriverSpec,
    Drift,
    Grid,
    Identity,
    JumpSizes,
    euler_penalized,
    euler_penalized_batch,
    sample_driver_batch,
)
from reflectsde.skorokhod import solve_skorokhod

HALFLINE = HalfSpace([1.0], 0.0, anchor=[1.0])
# half-space, box, ball and a polyhedron in each dimension; in d = 2 the
# polyhedron is the benchmark's 30-degree wedge cut off at x = 4
DOMAINS = {
    1: {
        "halfspace": HalfSpace([1.0], -0.2),
        "box": Box([0.0], [2.0]),
        "ball": Ball([0.5], 1.5),
        "polyhedron": Polyhedron(
            [HalfSpace([1.0], 0.0), HalfSpace([-1.0], -2.0)], anchor=[0.5]
        ),
    },
    2: {
        "halfspace": HalfSpace([0.6, 0.8], 0.0),
        "box": Box([0.0, 0.0], [1.0, 1.0]),
        "ball": Ball([0.0, 0.0], 1.0),
        "polyhedron": Polyhedron(
            [
                HalfSpace([0.0, 1.0], 0.0),
                HalfSpace([0.5, -0.8660254037844387], 0.0),
                HalfSpace([-1.0, 0.0], -4.0),
            ],
            anchor=[2.0, 0.5358983848622454],
        ),
    },
}


def random_halfline_driver(rng, jumps=8):
    times = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, jumps))])
    steps = rng.normal(scale=0.5, size=jumps + 1)
    steps[0] = abs(steps[0])
    return StepPath(times, np.cumsum(steps), q=1.0)


class TestClosedForm:
    def test_single_overshoot_halfline(self):
        y = StepPath([0.0, 0.5], [[0.5], [-1.0]], q=1.0)
        sol = solve_penalized(HALFLINE, y, n=9.0)
        assert sol.eval(0.25) == pytest.approx(0.5)  # interior: no pull
        assert sol.left_limit(0.5) == pytest.approx(0.5)
        assert sol.eval(0.5) == pytest.approx(-1.0)
        assert sol.eval(0.75) == pytest.approx(-np.exp(-2.25), abs=1e-15)
        assert sol.eval(1.0) == pytest.approx(-np.exp(-4.5), abs=1e-15)
        assert sol.penalty_variation() == pytest.approx(1.0 - np.exp(-4.5))

    def test_radial_relaxation_on_ball(self):
        # outside start; the radius contracts as 1 + (r0 - 1) e^{-n t}
        sol = PenalizedPath(2.0, [0.0], [[2.0, 0.0]], [[1.0, 0.0]], 1.0)
        for t in (0.0, 0.3, 1.0):
            want = 1.0 + np.exp(-2.0 * t)
            assert np.linalg.norm(sol.eval(t)) == pytest.approx(want, abs=1e-15)

    def test_confined_driver_is_untouched(self, rng):
        ball = Ball([0.0, 0.0], 3.0)
        steps = rng.uniform(-0.2, 0.2, size=(10, 2))
        steps[0] = 0.1
        y = StepPath(
            np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 9))]),
            np.cumsum(steps, axis=0),
            q=1.0,
        )
        sol = solve_penalized(ball, y, n=50.0)
        assert np.array_equal(sol.states, y.values)
        assert np.array_equal(sol.projections, y.values)
        assert sol.penalty_variation() == 0.0
        ts = rng.uniform(0, 1, 20)
        assert np.array_equal(sol.eval_many(ts), y.eval_many(ts))

    def test_two_overshoots_saturate_variation(self):
        y = StepPath([0.0, 0.3, 0.6], [[0.5], [-1.0], [-2.0]], q=1.0)
        sol = solve_penalized(HALFLINE, y, n=100.0)
        assert sol.penalty_variation() == pytest.approx(2.0, abs=1e-13)

    def test_variation_matches_quadrature(self, rng):
        # independent check: n * integral of the distance to the domain
        y = random_halfline_driver(rng)
        n = 5.0
        sol = solve_penalized(HALFLINE, y, n=n)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        quad = 0.0
        ends = np.append(sol.times[1:], sol.q)
        for lo, hi in zip(sol.times, ends):
            ts = np.linspace(lo, hi, 5001)
            vals = np.concatenate(
                [sol.eval_many(ts[:-1])[:, 0], sol.left_limit(hi)]
            )
            quad += n * trapezoid(np.maximum(-vals, 0.0), ts)
        assert sol.penalty_variation() == pytest.approx(quad, abs=1e-6)

    def test_variation_monotone_in_time(self, rng):
        y = random_halfline_driver(rng)
        sol = solve_penalized(HALFLINE, y, n=20.0)
        ts = np.linspace(0, 1, 17)
        vals = [sol.penalty_variation(t) for t in ts]
        assert vals[0] == 0.0
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_jump_sizes_match_driver(self, rng):
        y = random_halfline_driver(rng)
        sol = solve_penalized(HALFLINE, y, n=13.0)
        for t in y.times[1:]:
            got = sol.eval(t) - sol.left_limit(t)
            assert got == pytest.approx(y.jump(t), abs=1e-12)

    def test_continuity_between_jumps(self, rng):
        y = random_halfline_driver(rng)
        sol = solve_penalized(HALFLINE, y, n=40.0)
        t = float(y.times[3]) + 1e-10
        assert sol.left_limit(t) == pytest.approx(sol.eval(t), abs=1e-7)

    def test_underflow_rate_reproduces_reflection(self, rng):
        # n dt <= -exp underflow: the relaxed state IS the projection, so
        # breakpoint projections coincide bitwise with the reflected path
        times = np.arange(0.0, 1.0, 0.01)
        steps = rng.normal(scale=0.3, size=times.shape[0])
        steps[0] = 0.4
        y = StepPath(times, np.cumsum(steps), q=1.0)
        sol = solve_penalized(HALFLINE, y, n=1e8)
        ref = solve_skorokhod(HALFLINE, y)
        assert np.array_equal(sol.projections, ref.x.values)

    def test_sup_deviation_is_exact(self, rng):
        y = random_halfline_driver(rng)
        sol = solve_penalized(HALFLINE, y, n=7.0)
        exact = sol.sup_deviation([1.0])
        ts = np.linspace(0, 1, 40_001)
        dense = float(np.max(np.abs(sol.eval_many(ts)[:, 0] - 1.0)))
        assert dense <= exact + 1e-12
        assert exact - dense <= 1e-4

    def test_json_round_trip(self, rng):
        y = random_halfline_driver(rng)
        sol = solve_penalized(HALFLINE, y, n=3.5)
        back = PenalizedPath.from_json(sol.to_json())
        assert back.n == sol.n and back.q == sol.q
        assert np.array_equal(back.times, sol.times)
        assert np.array_equal(back.states, sol.states)
        assert np.array_equal(back.projections, sol.projections)

    def test_to_step_samples_closed_form(self, rng):
        y = random_halfline_driver(rng)
        sol = solve_penalized(HALFLINE, y, n=6.0)
        grid = np.linspace(0, 1, 11)
        step = sol.to_step(grid)
        assert np.array_equal(step.values, sol.eval_many(grid))
        assert step.q == sol.q

    def test_validation(self):
        y = StepPath([0.0], [[0.5]], q=1.0)
        with pytest.raises(ValueError):
            solve_penalized(HALFLINE, y, n=0.0)
        with pytest.raises(ValueError):
            solve_penalized(HALFLINE, StepPath([0.0], [[0.5, 0.5]], q=1.0), n=1.0)
        from reflectsde.domain import DomainViolationError

        with pytest.raises(DomainViolationError):
            solve_penalized(HALFLINE, StepPath([0.0], [[-2.0]], q=1.0), n=1.0)
        with pytest.raises(ValueError):
            PenalizedPath(1.0, [0.0, 0.5], [[1.0]], [[1.0]], 1.0)
        with pytest.raises(ValueError):
            PenalizedPath(1.0, [0.0], [[1.0]], [[1.0]], -1.0)
        sol = solve_penalized(HALFLINE, y, n=1.0)
        with pytest.raises(AttributeError):
            sol.n = 2.0

    @pytest.mark.parametrize("n", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize(
        "entry",
        ["PenalizedPath", "solve_penalized", "euler_penalized", "euler_penalized_batch"],
    )
    def test_rate_must_be_finite(self, entry, n):
        # the n = inf limit is the projected scheme, not a penalized path:
        # relaxing at an infinite rate computes -inf * 0 at each breakpoint
        y = StepPath([0.0, 0.5], [[0.5], [1.0]], q=1.0)
        grid = Grid.regular(1.0, 2)
        H = y.eval_many(grid.times)[None]
        calls = {
            "PenalizedPath": lambda: PenalizedPath(n, [0.0], [[1.0]], [[1.0]], 1.0),
            "solve_penalized": lambda: solve_penalized(HALFLINE, y, n),
            "euler_penalized": lambda: euler_penalized(
                HALFLINE, Identity(1), y, StepPath.constant(0.0, 1.0), n, grid
            ),
            "euler_penalized_batch": lambda: euler_penalized_batch(
                HALFLINE, Identity(1), H, np.zeros_like(H), n, grid
            ),
        }
        with pytest.raises(ValueError, match="finite and positive"):
            calls[entry]()


class TestBatchedClosedForm:
    def test_rows_equal_path_methods(self):
        # the closed form over rows: row i is the one-row PenalizedPath, bit
        # for bit, with a horizon past the last breakpoint
        grid = Grid.regular(1.0, 25)
        n, q, t = 32.0, 1.25, 0.37
        for dim, domains in DOMAINS.items():
            for name, domain in domains.items():
                spec = DriverSpec(
                    dim=dim,
                    h=ConstantStart(domain.anchor),
                    z_components=(
                        Brownian(0.8),
                        Drift([-2.0] * dim),
                        CompoundPoisson(2.0, JumpSizes("normal", (0.0, 0.5))),
                    ),
                )
                H, Z = sample_driver_batch(spec, grid, seed=9, paths=6)
                X, P = euler_penalized_batch(domain, Identity(dim), H, Z, n, grid)
                assert np.any(X != P), (dim, name)
                last = _relaxed(X[:, -1], P[:, -1], n, q - grid.q)
                path = (X, P, n, grid.times, q)
                variation = _penalty_variation(*path, q)
                partial = _penalty_variation(*path, t)
                sup = _sup_deviation(*path, domain.anchor)
                for i in range(6):
                    one = PenalizedPath(n, grid.times, X[i], P[i], q)
                    assert np.array_equal(last[i], one.eval(q)), (dim, name)
                    assert variation[i] == one.penalty_variation(), (dim, name)
                    assert partial[i] == one.penalty_variation(t), (dim, name)
                    assert sup[i] == one.sup_deviation(domain.anchor), (dim, name)


def same_bits(a, b) -> bool:
    """Equal shapes and bytes; ``tobytes`` is C-ordered, so layout aside."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_relax_and_step(domain, f, H, Z, n, times):
    """The relax-and-step recurrence one step at a time, as the oracle of
    the kernel: each step's decay is a scalar exp of its length, the free
    term is differenced row by row, and the failure rule is applied to
    every row at every step.  Returns the full (M, K+1, d) history."""
    M, K1, d = H.shape
    states = np.empty((M, K1, d))
    projections = np.empty_like(states)
    failed = np.zeros(M, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K1):
            if k == 0:
                x = np.array(H[:, 0], dtype=float)
            else:
                pre = p
                if n != np.inf:
                    pre = p + (x - p) * np.exp(-n * (times[k] - times[k - 1]))
                x = pre + (H[:, k] - H[:, k - 1])
                if Z is not None:
                    x = x + f.contract(pre, Z[:, k] - Z[:, k - 1])
            failed |= ~np.isfinite(x).all(axis=1)
            live = np.flatnonzero(~failed)
            try:
                P = domain.project_points(x[live])
            except NumericalError as exc:
                P = exc.result
                failed[live] |= np.isnan(P[:, 0])
            p = np.full_like(x, np.nan)
            p[live] = P
            states[:, k], projections[:, k] = x, p
    return states, projections, failed


class TestKernelReference:
    """``_relax_and_step`` hoists the decay factors out of its loop,
    differences a broadcast free term on its one row and does not scan
    the failed rows each step; none of that may change a bit of the
    per-step recurrence."""

    RATES = [3.7, 64.0, 4096.0, 1e6, np.inf]
    # a non-uniform grid of 48 cells, and every 4th point of it
    FINE = Grid(np.concatenate([[0.0], np.cumsum(1.0 + np.arange(48) % 5 * 0.37)]) / 10.0)
    GRIDS = {"non-uniform": FINE, "coarsened": FINE.coarsen(4)}

    @staticmethod
    def drivers(domain, h, grid):
        d = domain.dim
        start = BrownianDrift(domain.anchor, 0.3) if h == "drawn" else ConstantStart(domain.anchor)
        spec = DriverSpec(
            dim=d,
            h=start,
            z_components=(
                Brownian(0.8),
                Drift([-1.0] * d),
                CompoundPoisson(2.0, JumpSizes("normal", (0.0, 0.5))),
            ),
        )
        H, Z = sample_driver_batch(spec, grid, seed=21, paths=1 if h == "one-row" else 12)
        if h == "one-row":
            # a single path's values, as _solve_row passes them
            H, Z = np.array(H[0])[None], np.array(Z[0])[None]
        assert (H.strides[0] == 0) == (h != "drawn")
        return H, Z

    def check(self, domain, f, H, Z, n, times):
        got = _relax_and_step(domain, f, H, Z, n, times)
        want = reference_relax_and_step(domain, f, H, Z, n, times)
        assert same_bits(got[0], want[0])
        assert same_bits(got[1], want[1])
        assert np.array_equal(got[2], want[2])
        return got

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("h", ["drawn", "broadcast", "one-row"])
    @pytest.mark.parametrize("n", RATES)
    @pytest.mark.parametrize("dim, name", [(1, "halfspace"), (2, "polyhedron"), (2, "ball")])
    def test_matches_the_per_step_loop(self, dim, name, n, h, grid):
        domain = DOMAINS[dim][name]
        grid = self.GRIDS[grid]
        H, Z = self.drivers(domain, h, grid)
        for f in (Identity(dim), DiagAffine(dim, base=0.5, slope=0.25)):
            X, P, failed = self.check(domain, f, H, Z, n, grid.times)
            assert not failed.any() and np.any(X != P)
        self.check(domain, None, H, None, n, grid.times)

    @pytest.mark.parametrize("n", [10.0, np.inf])
    def test_rows_that_fail_mid_path(self, n):
        class Flaky(HalfSpace):
            def project_points(self, X):
                out = super().project_points(X)
                stuck = X[:, 0] > 50.0
                if stuck.any():
                    out[stuck] = np.nan
                    raise NumericalError("forced", out)
                return out

        domain = Flaky([1.0], 0.0)
        times = self.FINE.times
        K1 = times.shape[0]
        for broadcast in (False, True):
            H = np.full((4, K1, 1), 0.5)
            if not broadcast:
                H[1, 25:] = 100.0
            H = np.broadcast_to(H[:1], H.shape) if broadcast else H
            Z = np.zeros((4, K1, 1))
            Z[:, :, 0] = np.linspace(0.0, -1.0, K1)
            Z[2, 30:] = np.inf
            Z[3, 40:] = 80.0
            _, _, failed = self.check(domain, Identity(1), H, Z, n, times)
            assert failed.tolist() == [False, not broadcast, True, True]


class TestAprioriBounds:
    def test_frozen_multipliers(self):
        y = StepPath.constant(0.0, 1.0)  # boundary point, distance 1 to anchor
        b = penalty_bounds(HALFLINE, y, delta=0.5)
        assert b.cells == 3
        assert b.modulus == 0.0
        assert b.precondition_ok
        assert b.sup_deviation == pytest.approx(1.0)
        assert b.bound_sup == pytest.approx(6.0 * np.sqrt(7.0))
        assert b.bound_var == pytest.approx(55.0 * 27.0)
        assert SUP_FACTOR == pytest.approx(2.0 * np.sqrt(7.0))
        assert VARIATION_FACTOR == 55.0

    def test_driver_at_anchor_gives_zero_bounds(self):
        y = StepPath.constant(1.0, 1.0)
        b = penalty_bounds(HALFLINE, y, delta=0.25)
        assert b.sup_deviation == 0.0
        assert b.bound_sup == 0.0
        assert b.bound_var == 0.0

    def test_precondition_gate(self):
        # two large jumps 0.05 apart cannot be separated at delta = 0.25
        y = StepPath([0.0, 0.3, 0.35], [[0.5], [5.0], [0.5]], q=1.0)
        b = penalty_bounds(HALFLINE, y, delta=0.25)
        assert b.modulus == pytest.approx(4.5)
        assert not b.precondition_ok

    def test_anchor_override(self):
        y = StepPath.constant(0.5, 1.0)
        b = penalty_bounds(HALFLINE, y, delta=0.5, anchor=[2.0])
        assert b.clearance == pytest.approx(2.0)
        assert b.sup_deviation == pytest.approx(1.5)
        with pytest.raises(ValueError):
            penalty_bounds(HALFLINE, y, delta=0.5, anchor=[-1.0])
        with pytest.raises(ValueError):
            penalty_bounds(HALFLINE, y, delta=0.5, anchor=[0.0])

    def test_bounds_hold_across_rates(self, rng):
        # jumps isolated by construction so the modulus vanishes
        times = np.array([0.0, 0.2, 0.4, 0.6, 0.8])
        for _ in range(10):
            steps = rng.normal(scale=1.5, size=5)
            steps[0] = abs(steps[0])
            y = StepPath(times, np.cumsum(steps), q=1.0)
            b = penalty_bounds(HALFLINE, y, delta=0.19)
            assert b.precondition_ok
            for n in (1.0, 10.0, 100.0, 1000.0):
                sol = solve_penalized(HALFLINE, y, n=n)
                assert sol.sup_deviation([1.0]) <= b.bound_sup + 1e-9
                assert sol.penalty_variation() <= b.bound_var + 1e-9

    def test_delta_validation(self):
        y = StepPath.constant(0.5, 1.0)
        with pytest.raises(ValueError):
            penalty_bounds(HALFLINE, y, delta=1.5)
        with pytest.raises(ValueError):
            penalty_bounds(HALFLINE, y, delta=0.0)


def _path_of_type(kind, times, values, q):
    if kind is StepPath:
        return StepPath(times, values, q)
    return PenalizedPath(1.0, times, values, values, q)


@pytest.mark.parametrize("kind", [StepPath, PenalizedPath], ids=lambda k: k.__name__)
def test_nan_times_and_empty_paths_raise(kind):
    # both path types check their breakpoints, horizon and times in one place
    path = _path_of_type(kind, [0.0, 0.5], [[1.0], [2.0]], 1.0)
    for call in (
        path.eval,
        path.left_limit,
        lambda t: path.eval_many([t]),
        lambda t: path.eval_many([0.25, t]),
    ):
        with pytest.raises(ValueError):
            call(np.nan)
    with pytest.raises(ValueError):
        _path_of_type(kind, [], [], 1.0)
    with pytest.raises(ValueError):
        _path_of_type(kind, [0.0, np.inf], [[1.0], [2.0]], np.inf)
    if kind is PenalizedPath:
        with pytest.raises(ValueError):
            PenalizedPath.from_json('{"n": 1.0, "q": 1.0, "segments": []}')
