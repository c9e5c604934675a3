"""Exact reflection of step drivers and the solution verifier."""

import numpy as np
import pytest

from reflectsde.domain import (
    Ball,
    Box,
    DomainViolationError,
    HalfSpace,
    Polyhedron,
)
from reflectsde.path import StepPath
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
        k = StepPath.constant(0.0, 1.0)
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
