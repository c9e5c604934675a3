"""Grids, driver sampling, coefficients, and the Euler schemes."""

import numpy as np
import pytest

from reflectsde.domain import (
    Ball,
    Box,
    DomainViolationError,
    HalfSpace,
    NumericalError,
    Polyhedron,
)
from reflectsde.path import StepPath
from reflectsde.penalty import solve_penalized
from reflectsde.sde import (
    Brownian,
    BrownianDrift,
    CompoundPoisson,
    ConstantMatrix,
    ConstantStart,
    DiagAffine,
    DriverSpec,
    Drift,
    Grid,
    Identity,
    JumpSizes,
    PowerDiagonal,
    TablePath,
    euler_penalized,
    euler_penalized_batch,
    euler_projected,
    euler_projected_batch,
    sample_driver,
    sample_driver_batch,
    stochastic_integral,
)

HALFLINE = HalfSpace([1.0], 0.0, anchor=[1.0])
BIGBALL = Ball([0.0], 1e6)
# a 30-degree wedge cut off at x = 4: Dykstra's projection at an acute corner
WEDGE = Polyhedron(
    [
        HalfSpace([0.0, 1.0], 0.0),
        HalfSpace([0.5, -0.8660254037844387], 0.0),
        HalfSpace([-1.0, 0.0], -4.0),
    ],
    anchor=[2.0, 0.5358983848622454],
)
DOMAINS_2D = {
    "halfspace": HalfSpace([0.6, 0.8], 0.0),
    "box": Box([0.0, 0.0], [1.0, 1.0]),
    "ball": Ball([0.0, 0.0], 1.0),
    "wedge": WEDGE,
}


class TestGrid:
    def test_regular(self):
        g = Grid.regular(1.0, 4)
        assert np.array_equal(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.cells == 4
        assert g.q == 1.0
        assert g.mesh == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid([0.5, 1.0])
        with pytest.raises(ValueError):
            Grid([0.0, 0.5, 0.5])
        with pytest.raises(ValueError):
            Grid([0.0])
        with pytest.raises(ValueError):
            Grid.regular(0.0, 4)
        g = Grid.regular(1.0, 2)
        with pytest.raises(AttributeError):
            g.times = np.array([0.0, 1.0])

    def test_coarsen_shares_floats(self):
        fine = Grid.regular(1.0, 8)
        coarse = fine.coarsen(4)
        assert coarse.cells == 2
        assert np.array_equal(coarse.times, fine.times[::4])
        assert coarse.times[1] == fine.times[4]
        with pytest.raises(ValueError):
            fine.coarsen(3)

    def test_index_and_covers(self):
        g = Grid.regular(1.0, 4)
        assert g.index_of(0.5) == 2
        assert g.index_of(1.0) == 4
        with pytest.raises(ValueError):
            g.index_of(0.3)
        assert g.covers([0.0, 0.75])
        assert not g.covers([0.1])


class TestJumpSizes:
    def test_second_moment_formulas(self, rng):
        cases = [
            (JumpSizes("normal", (0.3, 0.5)), 2),
            (JumpSizes("uniform", (-1.0, 2.0)), 1),
            (JumpSizes("exponential", (0.7,)), 2),
        ]
        for js, dim in cases:
            draws = js.sample(rng, 200_000, dim)
            emp = float(np.mean(np.sum(draws**2, axis=1)))
            want = js.second_moment(dim)
            se = float(np.std(np.sum(draws**2, axis=1))) / np.sqrt(200_000)
            assert abs(emp - want) <= 5 * se

    def test_constant_vector(self, rng):
        js = JumpSizes("constant", (0.5, -1.0))
        draws = js.sample(rng, 4, 2)
        assert np.array_equal(draws, np.tile([0.5, -1.0], (4, 1)))
        assert js.second_moment(2) == pytest.approx(1.25)
        with pytest.raises(ValueError):
            js.sample(rng, 2, 3)

    def test_unknown_tag(self, rng):
        with pytest.raises(ValueError):
            JumpSizes("cauchy", (1.0,)).sample(rng, 1, 1)
        with pytest.raises(ValueError):
            JumpSizes("cauchy", (1.0,)).second_moment(1)


class TestComponents:
    def test_brownian_scalar_variance(self, rng):
        dt = np.full(40_000, 0.01)
        inc = Brownian(2.0).increments(rng, dt, 1)[:, 0]
        assert abs(np.var(inc) - 4.0 * 0.01) <= 5 * 0.04 * np.sqrt(2 / 40_000)
        assert Brownian(2.0).expected_bracket_rate(3) == pytest.approx(12.0)

    def test_brownian_matrix_covariance(self, rng):
        sigma = np.array([[1.0, 0.0], [0.5, 0.25]])
        dt = np.full(60_000, 0.02)
        inc = Brownian(sigma).increments(rng, dt, 2)
        cov = inc.T @ inc / (60_000 * 0.02)
        assert np.allclose(cov, sigma @ sigma.T, atol=0.02)
        want = float(np.sum(sigma**2))
        assert Brownian(sigma).expected_bracket_rate(2) == pytest.approx(want)

    def test_compound_poisson_bracket(self, rng):
        comp = CompoundPoisson(5.0, JumpSizes("normal", (0.0, 0.6)))
        dt = np.full(100, 0.01)
        sq = [
            float(np.sum(comp.increments(rng, dt, 1) ** 2)) for _ in range(500)
        ]
        want = comp.expected_bracket_rate(1) * 1.0  # 5 * 0.36
        se = float(np.std(sq)) / np.sqrt(500)
        assert abs(np.mean(sq) - want) <= 5 * se

    def test_drift_is_deterministic(self, rng):
        comp = Drift([0.5, -2.0])
        dt = np.array([0.1, 0.4])
        inc = comp.increments(rng, dt, 2)
        assert np.allclose(inc, [[0.05, -0.2], [0.2, -0.8]])
        assert comp.variation_rate(2) == pytest.approx(2.5)
        assert comp.expected_bracket_rate(2) == 0.0

    def test_driver_spec_aggregates(self):
        spec = DriverSpec(
            dim=1,
            h=ConstantStart(0.5),
            z_components=(
                Brownian(1.0),
                CompoundPoisson(2.0, JumpSizes("normal", (0.0, 0.5))),
                Drift(0.25),
            ),
        )
        assert spec.expected_bracket(2.0) == pytest.approx(2.0 * (1.0 + 0.5))
        assert spec.expected_variation(2.0) == pytest.approx(0.5)
        assert spec.fixed_jump_times().size == 0

    def test_fixed_jump_times_from_table(self):
        table = TablePath(StepPath([0.0, 0.5], [[0.5], [1.0]], q=1.0))
        spec = DriverSpec(dim=1, h=table)
        assert np.array_equal(spec.fixed_jump_times(), [0.5])


class TestReproducibility:
    SPEC = DriverSpec(
        dim=1,
        h=BrownianDrift(0.5, sigma=0.5),
        z_components=(
            Brownian(1.0),
            CompoundPoisson(2.0, JumpSizes("normal", (0.0, 0.5))),
        ),
    )

    def test_same_key_same_draw(self):
        grid = Grid.regular(1.0, 64)
        h1, z1 = sample_driver(self.SPEC, grid, seed=7, path_index=3)
        h2, z2 = sample_driver(self.SPEC, grid, seed=7, path_index=3)
        assert np.array_equal(h1.values, h2.values)
        assert np.array_equal(z1.values, z2.values)

    def test_distinct_paths_differ(self):
        grid = Grid.regular(1.0, 64)
        h1, z1 = sample_driver(self.SPEC, grid, seed=7, path_index=0)
        h2, z2 = sample_driver(self.SPEC, grid, seed=7, path_index=1)
        assert not np.array_equal(h1.values, h2.values)
        assert not np.array_equal(z1.values, z2.values)

    def test_batch_rows_match_single_draws(self):
        grid = Grid.regular(1.0, 32)
        H, Z = sample_driver_batch(self.SPEC, grid, seed=11, paths=5, first_index=2)
        for i in range(5):
            h, z = sample_driver(self.SPEC, grid, seed=11, path_index=2 + i)
            assert np.array_equal(H[i], h.values)
            assert np.array_equal(Z[i], z.values)

    def test_appending_component_preserves_others(self):
        grid = Grid.regular(1.0, 32)
        lean = DriverSpec(dim=1, h=self.SPEC.h, z_components=(Brownian(1.0),))
        full = DriverSpec(
            dim=1, h=self.SPEC.h, z_components=(Brownian(1.0), Drift(0.75))
        )
        h1, z1 = sample_driver(lean, grid, seed=3)
        h2, z2 = sample_driver(full, grid, seed=3)
        assert np.array_equal(h1.values, h2.values)
        drift_part = 0.75 * grid.times[:, None]
        assert np.allclose(z2.values - z1.values, drift_part, atol=1e-12)

    def test_z_starts_at_zero(self):
        grid = Grid.regular(1.0, 8)
        _, z = sample_driver(self.SPEC, grid, seed=1)
        assert np.array_equal(z.values[0], [0.0])


class TestCoefficients:
    def test_identity_and_constant(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        dZ = np.array([[0.5, -0.5], [1.0, 0.0]])
        assert np.array_equal(Identity(2).contract(X, dZ), dZ)
        A = np.array([[2.0, 0.0], [1.0, 1.0]])
        got = ConstantMatrix(A).contract(X, dZ)
        assert np.allclose(got, dZ @ A.T)
        with pytest.raises(ValueError):
            ConstantMatrix(np.ones((2, 3)))

    def test_diag_affine(self):
        f = DiagAffine(2, base=0.5, slope=0.25)
        x = np.array([-2.0, 4.0])
        assert np.allclose(f.mat(x), np.diag([1.0, 1.5]))
        X = np.array([[-2.0, 4.0]])
        dZ = np.array([[1.0, 1.0]])
        assert np.allclose(f.contract(X, dZ), [[1.0, 1.5]])
        with pytest.raises(ValueError):
            DiagAffine(1, base=-0.1, slope=0.0)
        # dimension-one ratio (0.5 + 0.25 |x|) / (1 + |x|) is at most 0.5
        g = DiagAffine(1, base=0.5, slope=0.25)
        assert g.growth_ratio(np.random.default_rng(0)) <= 0.5 + 1e-12

    def test_power_diagonal_modulus(self, rng):
        f = PowerDiagonal(2, alpha=0.5, cap=10.0)
        for scale in (1e-6, 1.0, 100.0):
            X = rng.normal(scale=scale, size=(500, 2))
            Y = rng.normal(scale=scale, size=(500, 2))
            gaps = [f.modulus_gap(x, y) for x, y in zip(X, Y)]
            assert min(gaps) >= -1e-12
        assert np.allclose(f.diag(np.array([4.0, 25.0])), [2.0, np.sqrt(10.0)])
        with pytest.raises(ValueError):
            PowerDiagonal(1, alpha=0.4)
        with pytest.raises(ValueError):
            PowerDiagonal(1, alpha=1.0)
        with pytest.raises(ValueError):
            PowerDiagonal(1, alpha=0.5, cap=0.0)

    def test_growth_ratio_identity(self):
        assert Identity(3).growth_ratio(np.random.default_rng(1)) <= np.sqrt(3)


def walk_driver(rng, grid, dim, start):
    steps = rng.normal(scale=0.2, size=(grid.times.shape[0], dim))
    steps[0] = start
    return StepPath(grid.times, np.cumsum(steps, axis=0), q=grid.q)


class TestEulerSchemes:
    def test_zero_coefficient_reduces_to_penalized(self, rng):
        grid = Grid.regular(1.0, 50)
        H = walk_driver(rng, grid, 1, start=[0.5])
        Z = walk_driver(rng, grid, 1, start=[0.0])
        f = ConstantMatrix([[0.0]])
        got = euler_penalized(HALFLINE, f, H, Z, n=25.0, grid=grid)
        want = solve_penalized(HALFLINE, H, n=25.0)
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.projections, want.projections)

    def test_inactive_domain_gives_plain_euler(self, rng):
        grid = Grid.regular(1.0, 40)
        H = StepPath(grid.times, np.full((41, 1), 3.0), q=1.0)
        Z = walk_driver(rng, grid, 1, start=[0.0])
        got = euler_penalized(BIGBALL, Identity(1), H, Z, n=10.0, grid=grid)
        want = 3.0 + Z.values[:, 0]
        assert np.allclose(got.states[:, 0], want, atol=1e-10)
        assert np.array_equal(got.states, got.projections)

    def test_huge_rate_matches_projected_bitwise(self, rng):
        grid = Grid.regular(1.0, 100)
        H = walk_driver(rng, grid, 1, start=[0.2])
        Z = walk_driver(rng, grid, 1, start=[0.0])
        pen = euler_penalized(HALFLINE, Identity(1), H, Z, n=1e8, grid=grid)
        proj = euler_projected(HALFLINE, Identity(1), H, Z, grid=grid)
        assert np.array_equal(pen.states, proj.values)

    def test_fixed_jump_table_against_closed_form(self):
        table = StepPath([0.0, 0.5], [[0.5], [-1.0]], q=1.0)
        grid = Grid.regular(1.0, 64)
        H = StepPath(grid.times, table.eval_many(grid.times), q=1.0)
        Zg = StepPath(grid.times, np.zeros((65, 1)), q=1.0)
        got = euler_penalized(HALFLINE, Identity(1), H, Zg, n=30.0, grid=grid)
        want = solve_penalized(HALFLINE, table, n=30.0)
        for t in grid.times:
            assert got.eval(t) == pytest.approx(want.eval(t), abs=1e-12)

    def test_decomposition_identity_1d(self, rng):
        grid = Grid.regular(1.0, 120)
        H = walk_driver(rng, grid, 1, start=[0.3])
        Z = walk_driver(rng, grid, 1, start=[0.0])
        f = DiagAffine(1, base=0.5, slope=0.25)
        pen = euler_penalized(HALFLINE, f, H, Z, n=40.0, grid=grid)
        self._check_decomposition(pen, f, H, Z, grid)

    def test_decomposition_identity_2d(self, rng):
        grid = Grid.regular(1.0, 80)
        ball = Ball([0.0, 0.0], 1.0)
        H = walk_driver(rng, grid, 2, start=[0.1, -0.2])
        Z = walk_driver(rng, grid, 2, start=[0.0, 0.0])
        f = ConstantMatrix([[0.8, 0.1], [0.0, 0.5]])
        pen = euler_penalized(ball, f, H, Z, n=60.0, grid=grid)
        self._check_decomposition(pen, f, H, Z, grid)

    @staticmethod
    def _check_decomposition(pen, f, H, Z, grid):
        # X - H - int f(X) dZ is continuous with variation equal to the
        # accumulated penalty pull
        times = grid.times
        hv = H.eval_many(times)
        zv = Z.eval_many(times)
        acc = np.zeros(pen.dim)
        resid = [pen.states[0] - hv[0] - acc]
        for k in range(times.shape[0] - 1):
            pre = pen.left_limit(times[k + 1])
            acc = acc + f.mat(pre) @ (zv[k + 1] - zv[k])
            resid.append(pen.states[k + 1] - hv[k + 1] - acc)
        resid = np.array(resid)
        tv = float(np.sum(np.linalg.norm(np.diff(resid, axis=0), axis=1)))
        assert tv == pytest.approx(pen.penalty_variation(), abs=1e-10)

    def test_batch_matches_single_1d_bitwise(self, rng):
        grid = Grid.regular(1.0, 30)
        spec = DriverSpec(
            dim=1,
            h=ConstantStart(0.5),
            z_components=(Brownian(1.0),),
        )
        H, Z = sample_driver_batch(spec, grid, seed=5, paths=4)
        f = DiagAffine(1, base=0.3, slope=0.1)
        states, projections = euler_penalized_batch(
            HALFLINE, f, H, Z, n=64.0, grid=grid
        )
        vals = euler_projected_batch(HALFLINE, f, H, Z, grid=grid)
        for i in range(4):
            h, z = sample_driver(spec, grid, seed=5, path_index=i)
            one = euler_penalized(HALFLINE, f, h, z, n=64.0, grid=grid)
            assert np.array_equal(states[i], one.states)
            assert np.array_equal(projections[i], one.projections)
            assert np.array_equal(
                vals[i], euler_projected(HALFLINE, f, h, z, grid=grid).values
            )

    def test_batch_matches_single_2d(self):
        # one kernel: the single path is the one-row batch, bit for bit
        grid = Grid.regular(1.0, 25)
        f = ConstantMatrix([[0.5, 0.3], [0.2, 0.4]])
        for name, domain in DOMAINS_2D.items():
            spec = DriverSpec(
                dim=2,
                h=ConstantStart(domain.anchor),
                z_components=(
                    Brownian(0.8),
                    Drift([-2.0, -1.0]),
                    CompoundPoisson(2.0, JumpSizes("normal", (0.0, 0.5))),
                ),
            )
            H, Z = sample_driver_batch(spec, grid, seed=9, paths=6)
            states, projections = euler_penalized_batch(domain, f, H, Z, 32.0, grid)
            vals = euler_projected_batch(domain, f, H, Z, grid=grid)
            assert np.any(states != projections), name
            for i in range(6):
                h, z = sample_driver(spec, grid, seed=9, path_index=i)
                one = euler_penalized(domain, f, h, z, n=32.0, grid=grid)
                assert np.array_equal(states[i], one.states), name
                assert np.array_equal(projections[i], one.projections), name
                proj = euler_projected(domain, f, h, z, grid=grid)
                assert np.array_equal(vals[i], proj.values), name

    def test_failed_rows_are_nan(self):
        # a projection that diverges at one point fails only its own row;
        # a non-finite driver row fails too; the rest match single paths
        class Flaky(HalfSpace):
            def project_points(self, X):
                out = super().project_points(X)
                stuck = X[:, 0] > 50.0
                if stuck.any():
                    out[stuck] = np.nan
                    raise NumericalError("forced", out)
                return out

        domain = Flaky([1.0], 0.0)
        grid = Grid.regular(1.0, 8)
        H = np.full((4, 9, 1), 0.5)
        H[1, 5:] = 100.0
        Z = np.zeros((4, 9, 1))
        Z[:, :, 0] = np.linspace(0.0, -1.0, 9)
        Z[2, 3:] = np.inf
        f = Identity(1)
        states, projections = euler_penalized_batch(domain, f, H, Z, 10.0, grid)
        assert np.isnan(states[1:3]).all() and np.isnan(projections[1:3]).all()
        assert np.isnan(euler_projected_batch(domain, f, H, Z, grid)[1:3]).all()
        paths = [
            (StepPath(grid.times, H[i], q=1.0), StepPath(grid.times, Z[0], q=1.0))
            for i in range(4)
        ]
        for i in (0, 3):
            one = euler_penalized(domain, f, *paths[i], n=10.0, grid=grid)
            assert np.array_equal(states[i], one.states)
        # the single path raises where the batch row fails
        with pytest.raises(NumericalError):
            euler_penalized(domain, f, *paths[1], n=10.0, grid=grid)

    def test_input_validation(self, rng):
        grid = Grid.regular(1.0, 10)
        H = walk_driver(rng, grid, 1, start=[0.5])
        Z = walk_driver(rng, grid, 1, start=[0.0])
        with pytest.raises(ValueError):
            euler_penalized(HALFLINE, Identity(1), H, Z, n=0.0, grid=grid)
        with pytest.raises(ValueError):
            euler_penalized(HALFLINE, Identity(2), H, Z, n=1.0, grid=grid)
        bad_h = StepPath([0.0, 0.33], [[0.5], [0.6]], q=1.0)
        with pytest.raises(ValueError):
            euler_penalized(HALFLINE, Identity(1), bad_h, Z, n=1.0, grid=grid)
        short_h = StepPath(grid.times[:-1], H.values[:-1], q=0.9)
        with pytest.raises(ValueError):
            euler_penalized(HALFLINE, Identity(1), short_h, Z, n=1.0, grid=grid)
        outside = StepPath(grid.times, H.values - 10.0, q=1.0)
        with pytest.raises(DomainViolationError):
            euler_penalized(HALFLINE, Identity(1), outside, Z, n=1.0, grid=grid)
        with pytest.raises(ValueError):
            euler_penalized_batch(
                HALFLINE,
                Identity(1),
                np.zeros((2, 11, 1)),
                np.zeros((2, 10, 1)),
                n=1.0,
                grid=grid,
            )


class TestStochasticIntegral:
    def test_identity_telescopes(self, rng):
        grid = Grid.regular(1.0, 40)
        Z = walk_driver(rng, grid, 2, start=[0.0, 0.0])
        X = walk_driver(rng, grid, 2, start=[0.5, 0.5])
        got = stochastic_integral(Identity(2), X, Z, grid)
        assert np.allclose(got, Z.eval(1.0), atol=1e-12)
        half = stochastic_integral(Identity(2), X, Z, grid, t=0.5)
        assert np.allclose(half, Z.eval(0.5), atol=1e-12)

    def test_zero_coefficient(self, rng):
        grid = Grid.regular(1.0, 10)
        Z = walk_driver(rng, grid, 1, start=[0.0])
        X = walk_driver(rng, grid, 1, start=[0.5])
        got = stochastic_integral(ConstantMatrix([[0.0]]), X, Z, grid)
        assert np.array_equal(got, [0.0])

    def test_requires_grid_time(self, rng):
        grid = Grid.regular(1.0, 10)
        Z = walk_driver(rng, grid, 1, start=[0.0])
        X = walk_driver(rng, grid, 1, start=[0.5])
        with pytest.raises(ValueError):
            stochastic_integral(Identity(1), X, Z, grid, t=0.05)

    def test_uses_pre_jump_values(self):
        # one Z jump at t = 0.5; the integrand must take X's left limit
        grid = Grid.regular(1.0, 2)
        Z = StepPath([0.0, 0.5], [[0.0], [2.0]], q=1.0)
        X = StepPath([0.0, 0.5], [[3.0], [100.0]], q=1.0)
        f = DiagAffine(1, base=0.0, slope=1.0)
        got = stochastic_integral(f, X, Z, grid)
        # f(X_{0.5-}) * dZ = |3| * 2, not |100| * 2
        assert got == pytest.approx([6.0])
