"""Exact reflection of step drivers and the solution verifier."""

import numpy as np
import pytest
from conftest import NO_CONSTANTS, constant_path
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectsde.domain import (
    Ball,
    Box,
    DomainViolationError,
    HalfSpace,
    Polyhedron,
)
from reflectsde.path import StepPath
from reflectsde.penalty import solve_penalized
from reflectsde.skorokhod import (
    SkorokhodSolution,
    oracle_halfline,
    solve_skorokhod,
    verify_solution,
)

HALFLINE = HalfSpace([1.0], 0.0, anchor=[1.0])


def random_driver(rng, dim, jumps, start=None, scale=1.0, q=1.0):
    times = np.concatenate([[0.0], np.sort(rng.uniform(0, q, jumps))])
    steps = rng.normal(scale=scale, size=(jumps + 1, dim))
    if start is None:
        steps[0] = np.abs(steps[0])
    else:
        steps[0] = start
    return StepPath(times, np.cumsum(steps, axis=0), q=q)


def euclidean_variation(path, t):
    mask = path.times[1:] <= t
    if not mask.any():
        return 0.0
    diffs = np.diff(path.values, axis=0)[mask]
    return float(np.linalg.norm(diffs, axis=1).sum())


class TestHalflineExamples:
    def test_three_jump_driver(self):
        y = StepPath(
            [0.0, 0.25, 0.5, 0.75],
            [[0.5], [-0.75], [1.0], [-0.25]],
            q=1.0,
        )
        sol = solve_skorokhod(HALFLINE, y)
        assert np.array_equal(sol.x.values[:, 0], [0.5, 0.0, 1.75, 0.5])
        assert np.array_equal(sol.k.values[:, 0], [0.0, 0.75, 0.75, 0.75])
        assert np.array_equal(sol.x.times, y.times)
        assert sol.driver is y

    def test_oracle_on_same_driver(self):
        y = StepPath(
            [0.0, 0.25, 0.5, 0.75],
            [[0.5], [-0.75], [1.0], [-0.25]],
            q=1.0,
        )
        ref = oracle_halfline(y)
        assert np.array_equal(ref.x.values[:, 0], [0.5, 0.0, 1.75, 0.5])
        assert np.array_equal(ref.k.values[:, 0], [0.0, 0.75, 0.75, 0.75])

    def test_oracle_requires_dimension_one(self):
        y = StepPath([0.0], [[0.5, 0.5]], q=1.0)
        with pytest.raises(ValueError):
            oracle_halfline(y)

    def test_matches_oracle_on_random_drivers(self, rng):
        worst = 0.0
        for _ in range(200):
            y = random_driver(rng, 1, int(rng.integers(1, 30)))
            got = solve_skorokhod(HALFLINE, y)
            ref = oracle_halfline(y)
            worst = max(
                worst,
                float(np.max(np.abs(got.x.values - ref.x.values))),
                float(np.max(np.abs(got.k.values - ref.k.values))),
            )
        assert worst <= 1e-12

    def test_regulator_moves_only_at_zero(self, rng):
        for _ in range(20):
            y = random_driver(rng, 1, 15)
            sol = solve_skorokhod(HALFLINE, y)
            dk = np.diff(sol.k.values[:, 0])
            hit = sol.x.values[1:, 0][dk > 1e-12]
            assert np.all(hit <= 1e-12)
            # regulator never decreases on the half-line
            assert np.all(dk >= 0.0)


class TestCornerAndConfined:
    def test_box_corner_jump(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        y = StepPath(
            [0.0, 0.4, 0.7],
            [[0.5, 0.5], [-1.0, -2.0], [-0.75, -1.75]],
            q=1.0,
        )
        sol = solve_skorokhod(box, y)
        assert np.array_equal(sol.x.values[1], [0.0, 0.0])
        assert np.array_equal(sol.k.values[1], [1.0, 2.0])
        # third point: corner + (0.25, 0.25) is interior, regulator rests
        assert np.array_equal(sol.x.values[2], [0.25, 0.25])
        assert np.array_equal(sol.k.values[2], [1.0, 2.0])
        report = verify_solution(box, sol)
        assert report.ok
        assert report.jumps_checked == 1

    def test_confined_driver_passes_through(self, rng):
        ball = Ball([0.0, 0.0], 2.0)
        for _ in range(10):
            steps = rng.uniform(-0.1, 0.1, size=(12, 2))
            steps[0] = 0.0
            y = StepPath(
                np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 11))]),
                np.cumsum(steps, axis=0),
                q=1.0,
            )
            sol = solve_skorokhod(ball, y)
            assert np.array_equal(sol.x.values, y.values)
            assert np.all(sol.k.values == 0.0)

    def test_start_outside_rejected(self):
        y = StepPath([0.0], [[-1.0]], q=1.0)
        with pytest.raises(DomainViolationError):
            solve_skorokhod(HALFLINE, y)

    def test_dimension_mismatch_rejected(self):
        y = StepPath([0.0], [[0.5, 0.5]], q=1.0)
        with pytest.raises(ValueError):
            solve_skorokhod(HALFLINE, y)


def two_sided_map(psi, a):
    """(x, k) of the Skorokhod map on [0, a] of the breakpoint values
    ``psi`` of a one-dimensional step path, by the explicit formula of
    Kruk, Lehoczky, Ramanan and Shreve (Ann. Probab. 35, 2007):

        x(t) = psi(t) - max(min((psi(0) - a)^+, inf_{u <= t} psi(u)),
                            sup_{s <= t} min(psi(s) - a, inf_{s <= u <= t} psi(u))),

    and k = x - psi.  A step path takes its infima and suprema at
    breakpoints."""
    xi = np.array(
        [
            max(
                min(max(psi[0] - a, 0.0), psi[: t + 1].min()),
                max(min(psi[s] - a, psi[s : t + 1].min()) for s in range(t + 1)),
            )
            for t in range(psi.shape[0])
        ]
    )
    return psi - xi, -xi


@st.composite
def boxes_and_drivers(draw):
    """A box in d = 1-3 at a scale 2^e, e in [-30, 30], with widths from
    1/20 of the scale to twice it, and a step driver starting inside it
    whose later values reach two widths past either side."""
    dim = draw(st.integers(1, 3))
    scale = 2.0 ** draw(st.integers(-30, 30))
    fractions = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
    lower = scale * np.array(draw(fractions))
    width = scale * np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=dim, max_size=dim)))
    m = draw(st.integers(1, 12))
    start = draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim))
    later = st.lists(st.floats(-2.0, 3.0), min_size=dim, max_size=dim)
    # each value as lower + width * place, in widths from the lower corner
    places = np.array([start] + [draw(later) for _ in range(m - 1)])
    driver = StepPath(np.arange(m) / m, lower + width * places, q=1.0)
    return Box(lower, lower + width), driver


class TestBoxOracle:
    @given(boxes_and_drivers())
    @settings(
        max_examples=300, deadline=None, derandomize=True, database=None, backend=NO_CONSTANTS
    )
    def test_reflection_is_the_coordinatewise_two_sided_map(self, problem):
        box, driver = problem
        sol = solve_skorokhod(box, driver)
        scale = max(np.abs(box.lower).max(), np.abs(box.upper).max())
        for i in range(box.dim):
            psi = driver.values[:, i] - box.lower[i]
            x, k = two_sided_map(psi, box.upper[i] - box.lower[i])
            assert np.abs(sol.x.values[:, i] - (box.lower[i] + x)).max() <= 1e-12 * scale
            assert np.abs(sol.k.values[:, i] - k).max() <= 1e-12 * scale


class TestPenalizedBoxMap:
    @given(boxes_and_drivers())
    @settings(
        max_examples=300, deadline=None, derandomize=True, database=None, backend=NO_CONSTANTS
    )
    def test_penalization_approaches_the_two_sided_map(self, problem):
        # The map's value at breakpoint j is x_j = P(x_{j-1} + dy_j), and the
        # penalized state is x^n_j = p_{j-1} + (x^n_{j-1} - p_{j-1}) e_j + dy_j
        # with projection p_j = P(x^n_j) and e_j = exp(-n (t_j - t_{j-1})).
        # P is 1-Lipschitz, so |p_j - x_j| <= |x^n_j - x_{j-1} - dy_j|
        # <= |p_{j-1} - x_{j-1}| + |x^n_{j-1} - p_{j-1}| e_j, and from
        # p_0 = x_0 = y_0, a start inside the box,
        #     |p_j - x_j| <= sum_{i<j} |x^n_i - p_i| exp(-n (t_{i+1} - t_i))
        # with no constant.  The box clips each coordinate alone, so the
        # bound holds coordinate by coordinate; beyond it each breakpoint
        # allows 1e-12 of the box's scale for rounding.
        box, driver = problem
        scale = max(np.abs(box.lower).max(), np.abs(box.upper).max())
        m = driver.times.shape[0]
        rounding = 1e-12 * scale * np.arange(1, m + 1)
        maps = [
            box.lower[i] + two_sided_map(driver.values[:, i] - box.lower[i], width)[0]
            for i, width in enumerate(box.upper - box.lower)
        ]
        for n in (1e2, 1e4, 1e6, 1e8):
            path = solve_penalized(box, driver, n)
            decay = np.exp(-n * np.diff(driver.times))
            relaxed = np.abs(path.states - path.projections)[:-1] * decay[:, None]
            bound = np.vstack([np.zeros(box.dim), np.cumsum(relaxed, axis=0)])
            for i, x in enumerate(maps):
                gap = np.abs(path.projections[:, i] - x)
                assert np.all(gap <= bound[:, i] + rounding), (n, i)


class TestStability:
    def test_difference_bound_on_ball(self, rng):
        # |x - x'|^2 <= |y - y'|^2 + 4 sup|y - y'| (|k| + |k'|), evaluated
        # at every breakpoint with the regulators' euclidean variation
        ball = Ball([0.0, 0.0], 1.0)
        for _ in range(25):
            times = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 10))])
            base = rng.normal(scale=0.8, size=(11, 2))
            base[0] = 0.0
            bump = rng.normal(scale=0.2, size=(11, 2))
            bump[0] = rng.uniform(-0.3, 0.3, size=2)
            y1 = StepPath(times, np.cumsum(base, axis=0), q=1.0)
            y2 = StepPath(times, np.cumsum(base + bump, axis=0), q=1.0)
            if not (ball.contains(y1.values[0]) and ball.contains(y2.values[0])):
                continue
            s1 = solve_skorokhod(ball, y1)
            s2 = solve_skorokhod(ball, y2)
            ydiff = np.linalg.norm(y1.values - y2.values, axis=1)
            xdiff = np.linalg.norm(s1.x.values - s2.x.values, axis=1)
            sup = 0.0
            for j, t in enumerate(times):
                sup = max(sup, ydiff[j])
                bound = ydiff[j] ** 2 + 4 * sup * (
                    euclidean_variation(s1.k, t) + euclidean_variation(s2.k, t)
                )
                assert xdiff[j] ** 2 <= bound + 1e-9

    def test_regulator_variation_is_monotone(self, rng):
        box = Box([0.0, -1.0], [2.0, 1.0])
        y = random_driver(rng, 2, 20, start=np.array([1.0, 0.0]))
        sol = solve_skorokhod(box, y)
        vals = [euclidean_variation(sol.k, t) for t in sol.k.times]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestVerifier:
    def domains(self):
        root = np.sqrt(0.5)
        return [
            (HALFLINE, 1),
            (Box([0.0, -1.0], [2.0, 1.0]), 2),
            (Ball([0.5, -0.5], 1.5), 2),
            (
                Polyhedron(
                    [
                        HalfSpace([1.0, 0.0], 0.0),
                        HalfSpace([0.0, 1.0], 0.0),
                        HalfSpace([-root, -root], -2.0),
                    ],
                    anchor=[0.5, 0.5],
                ),
                2,
            ),
        ]

    def test_accepts_solver_output(self, rng):
        for domain, dim in self.domains():
            for _ in range(5):
                y = random_driver(rng, dim, 12, start=domain.anchor)
                sol = solve_skorokhod(domain, y)
                report = verify_solution(domain, sol)
                assert report.ok, (domain, report)

    def test_flags_broken_decomposition(self):
        y = StepPath([0.0, 0.5], [[0.5], [-0.5]], q=1.0)
        sol = solve_skorokhod(HALFLINE, y)
        x_bad = sol.x.values.copy()
        x_bad[1] += 0.001  # still inside the domain, no longer y + k
        bad = SkorokhodSolution(
            x=StepPath(sol.x.times, x_bad, sol.x.q), k=sol.k, driver=y
        )
        report = verify_solution(HALFLINE, bad)
        assert not report.decomposition_ok
        assert report.decomposition_residual == pytest.approx(0.001)
        assert report.containment_ok

    def test_flags_containment_violation(self):
        y = StepPath([0.0, 0.5], [[0.5], [-0.5]], q=1.0)
        x = StepPath([0.0, 0.5], [[0.5], [-0.5]], q=1.0)
        k = constant_path(0.0, 1.0)
        report = verify_solution(HALFLINE, SkorokhodSolution(x=x, k=k, driver=y))
        assert not report.containment_ok
        assert report.containment_residual == pytest.approx(0.5)

    def test_flags_regulator_motion_off_boundary(self):
        # x = y + k holds and x stays inside, but the regulator jumps
        # while x sits in the interior
        times = [0.0, 0.5]
        x = StepPath(times, [[0.5], [1.5]], q=1.0)
        k = StepPath(times, [[0.0], [1.0]], q=1.0)
        y = StepPath(times, [[0.5], [0.5]], q=1.0)
        report = verify_solution(HALFLINE, SkorokhodSolution(x=x, k=k, driver=y))
        assert report.decomposition_ok
        assert report.containment_ok
        assert not report.support_ok
        assert not report.normal_ok

    def test_flags_outward_regulator_jump(self):
        # x lands exactly on the boundary but k pulls outward
        times = [0.0, 0.5]
        x = StepPath(times, [[0.5], [0.0]], q=1.0)
        k = StepPath(times, [[0.0], [-0.3]], q=1.0)
        y = StepPath(times, [[0.5], [0.3]], q=1.0)
        report = verify_solution(HALFLINE, SkorokhodSolution(x=x, k=k, driver=y))
        assert report.decomposition_ok
        assert report.containment_ok
        assert report.support_ok
        assert not report.normal_ok
        assert report.normal_residual == pytest.approx(0.3)

    def test_counts_jumps(self, rng):
        y = StepPath(
            [0.0, 0.2, 0.4, 0.6, 0.8],
            [[0.5], [-1.0], [-2.0], [1.0], [-3.0]],
            q=1.0,
        )
        sol = solve_skorokhod(HALFLINE, y)
        report = verify_solution(HALFLINE, sol)
        # k moves at 0.2, 0.4 and 0.8: the running minimum drops three times
        assert report.jumps_checked == 3
        assert report.ok

    def test_projection_work_is_linear_in_the_states(self, rng, monkeypatch):
        box = Box([0.0, 0.0], [1.0, 1.0])
        rows = [0]
        project = Box.project_points

        def counting(self, X):
            rows[0] += np.asarray(X).shape[0]
            return project(self, X)

        monkeypatch.setattr(Box, "project_points", counting)
        counts = {}
        for states in (100, 400):
            y = random_driver(rng, 2, states - 1, start=box.anchor, scale=0.3)
            sol = solve_skorokhod(box, y)
            rows[0] = 0
            report = verify_solution(box, sol)
            assert report.ok
            # enough regulator jumps that work per jump times states would show
            assert report.jumps_checked >= states // 4
            counts[states] = rows[0]
        assert counts[400] <= 4 * counts[100] + 8
        assert counts[400] <= 2 * 400
