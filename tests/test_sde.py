"""Grids, driver sampling, coefficients, and the Euler schemes."""

import hashlib
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import entries_per_block, kernel_history

from reflectsde.domain import (
    Ball,
    Box,
    DomainViolationError,
    HalfSpace,
    NumericalError,
    Polyhedron,
)
from reflectsde import experiments, sde
from reflectsde.path import StepPath
from reflectsde.penalty import _Gaps, _replay, _SupDistance
from reflectsde.penalty import solve_penalized
from reflectsde.sde import (
    Brownian,
    BrownianDrift,
    Coefficient,
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
    _philox_keys,
    _row_streams,
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
# a 30-degree wedge cut off at x = 4: the vertex candidate at an acute corner
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


def _component_gen(seed, path_index, component):
    """The Philox stream of (seed, path index, component), built from its
    own SeedSequence: the oracle for the keys the sampler derives at once."""
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(int(path_index), int(component))
    )
    return np.random.Generator(np.random.Philox(ss))


def one_row(fill, gen, grid_values, dim):
    """One (K, d) row of a drawing part's ``*_rows`` method, from ``gen``."""
    out = np.empty((1, grid_values.shape[0], dim))
    fill([gen], grid_values, out)
    return out[0]


def same_bits(a, b) -> bool:
    """Equal shapes and bytes; ``tobytes`` is C-ordered, so layout aside."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
        inc = one_row(Brownian(2.0).increments_rows, rng, dt, 1)[:, 0]
        assert abs(np.var(inc) - 4.0 * 0.01) <= 5 * 0.04 * np.sqrt(2 / 40_000)
        assert Brownian(2.0).expected_bracket_rate(3) == pytest.approx(12.0)

    def test_brownian_matrix_covariance(self, rng):
        sigma = np.array([[1.0, 0.0], [0.5, 0.25]])
        dt = np.full(60_000, 0.02)
        inc = one_row(Brownian(sigma).increments_rows, rng, dt, 2)
        cov = inc.T @ inc / (60_000 * 0.02)
        assert np.allclose(cov, sigma @ sigma.T, atol=0.02)
        want = float(np.sum(sigma**2))
        assert Brownian(sigma).expected_bracket_rate(2) == pytest.approx(want)

    def test_compound_poisson_bracket(self, rng):
        comp = CompoundPoisson(5.0, JumpSizes("normal", (0.0, 0.6)))
        dt = np.full(100, 0.01)
        sq = [
            float(np.sum(one_row(comp.increments_rows, rng, dt, 1) ** 2))
            for _ in range(500)
        ]
        want = comp.expected_bracket_rate(1) * 1.0  # 5 * 0.36
        se = float(np.std(sq)) / np.sqrt(500)
        assert abs(np.mean(sq) - want) <= 5 * se

    def test_drift_is_deterministic(self, rng):
        comp = Drift([0.5, -2.0])
        dt = np.array([0.1, 0.4])
        inc = comp.increments(dt, 2)
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


class TestPhiloxKeys:
    """Per-row keys from one vectorized hash, and one Philox reset per row,
    against a SeedSequence and a Philox built for each row."""

    DRAWS = {
        "standard_normal": lambda g: g.standard_normal(7),
        "poisson": lambda g: g.poisson(3.5, 7),
        "normal": lambda g: g.normal(0.1, 0.5, 7),
        "uniform": lambda g: g.uniform(-1.0, 2.0, 7),
        "exponential": lambda g: g.exponential(0.3, 7),
    }

    # seeds of one, two, three and six 32-bit words (the last fills more
    # than the pool); batches whose path indices change their number of
    # words part way
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**160 + 3])
    @pytest.mark.parametrize("first_index", [0, 9, 2**32 - 3, 2**64 - 2])
    def test_keys_match_seed_sequence(self, seed, first_index):
        paths = range(first_index, first_index + 6)
        for component in range(4):
            keys = _philox_keys(seed, paths, component)
            expected = [
                np.random.SeedSequence(
                    entropy=seed, spawn_key=(p, component)
                ).generate_state(2, np.uint64)
                for p in paths
            ]
            assert keys.dtype == np.uint64
            assert np.array_equal(keys, expected)

    @pytest.mark.parametrize("draw", sorted(DRAWS))
    def test_reset_stream_matches_a_fresh_generator(self, draw):
        seed, paths = 2**32 + 17, range(2**32 - 2, 2**32 + 2)
        gen = np.random.Generator(np.random.Philox(0))
        gen.random(3, dtype=np.float32)
        streams = _row_streams(gen, _philox_keys(seed, paths, 2))
        for p, row_gen in zip(paths, streams):
            oracle = _component_gen(seed, p, 2)
            assert same_bits(self.DRAWS[draw](row_gen), self.DRAWS[draw](oracle))
            # odd 32-bit draws leave a cached half word and a part-used
            # buffer, which the next reset must drop
            assert same_bits(
                row_gen.random(3, dtype=np.float32), oracle.random(3, dtype=np.float32)
            )

    def test_sampled_rows_match_the_oracle(self):
        spec = DriverSpec(
            dim=2,
            h=BrownianDrift([0.1, 0.2], 0.5, [0.3, -0.1]),
            z_components=(
                Brownian(1.0),
                CompoundPoisson(3.0, JumpSizes("normal", (0.0, 0.5))),
            ),
        )
        grid = Grid.regular(1.0, 16)
        dt = np.diff(grid.times)
        seed, first = 2**32, 2**32 - 2
        H, Z = sample_driver_batch(spec, grid, seed, paths=4, first_index=first)
        for i, p in enumerate(range(first, first + 4)):
            h = one_row(spec.h.values_rows, _component_gen(seed, p, 0), grid.times, 2)
            z = np.zeros((grid.cells, 2))
            for c, comp in enumerate(spec.z_components, start=1):
                gen = _component_gen(seed, p, c)
                z += np.cumsum(one_row(comp.increments_rows, gen, dt, 2), axis=0)
            assert same_bits(H[i], h)
            assert same_bits(Z[i, 1:], z) and not Z[i, 0].any()


class TestFirstComponentWritten:
    """The sampler writes the first Z component's sum instead of adding it
    to zeros; Z must keep the bits of zeros plus each component's sum,
    signed zeros included."""

    @staticmethod
    def added_to_zeros(spec, grid, seed, paths):
        """Z built row by row as zeros plus each component's sum in turn."""
        dt = np.diff(grid.times)
        Z = np.zeros((paths, grid.cells + 1, spec.dim))
        for i in range(paths):
            for c, comp in enumerate(spec.z_components, start=1):
                if comp.draws:
                    gen = _component_gen(seed, i, c)
                    inc = one_row(comp.increments_rows, gen, dt, spec.dim)
                else:
                    inc = comp.increments(dt, spec.dim)
                Z[i, 1:] += np.cumsum(inc, axis=0)
        return Z

    SPECS = {
        "drift-first": DriverSpec(2, ConstantStart([0.5, 0.5]), (Drift([-0.0, 1.0]),)),
        "drift-then-brownian": DriverSpec(
            2, ConstantStart([0.5, 0.5]), (Drift([-0.0, 1.0]), Brownian(1.0))
        ),
        "tiny-brownian": DriverSpec(1, ConstantStart(0.0), (Brownian(1e-320),)),
        "least-brownian": DriverSpec(
            1, ConstantStart(0.0), (Brownian(5e-324), Drift([-0.0]))
        ),
        "no-z": DriverSpec(2, ConstantStart([0.5, 0.5]), ()),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_z_keeps_values_and_signs(self, name):
        spec = self.SPECS[name]
        grid = Grid.regular(1.0, 200)
        _, Z = sample_driver_batch(spec, grid, seed=5, paths=40)
        want = self.added_to_zeros(spec, grid, 5, 40)
        assert np.array_equal(np.signbit(Z), np.signbit(want))
        assert same_bits(Z, want)

    def test_negative_zero_sums_occur(self):
        # the cases above test the + 0.0 only if some sum would be -0.0
        for name in ("drift-first", "least-brownian"):
            spec = self.SPECS[name]
            grid = Grid.regular(1.0, 200)
            dt = np.diff(grid.times)
            comp = spec.z_components[0]
            if comp.draws:
                firsts = [
                    one_row(comp.increments_rows, _component_gen(5, i, 1), dt, 1)[0, 0]
                    for i in range(40)
                ]
            else:
                firsts = comp.increments(dt, spec.dim)[0]
            assert np.any(np.signbit(firsts) & (np.asarray(firsts) == 0.0)), name


class TestBlockSize:
    """The sampler works over blocks of rows; the block size changes no
    bit of H or Z, signed zeros included, and bounds its scratch memory."""

    # a non-uniform grid: spacings from 1 to 3 in a fixed pattern
    GRID = Grid(np.concatenate([[0.0], np.cumsum(1.0 + np.arange(37) % 3)]) / 74.0)

    @staticmethod
    def spec(name, d):
        zeros = np.zeros(d)
        jumps = CompoundPoisson(3.0, JumpSizes("normal", (0.0, 0.5)))
        if name == "drawn-first":
            return DriverSpec(d, ConstantStart(zeros), (Brownian(0.7),))
        if name == "underflowing":
            # increments at 5e-324 scale are mostly +0.0 or -0.0
            return DriverSpec(d, ConstantStart(zeros), (Brownian(5e-324),))
        if name == "three-components":
            return DriverSpec(d, ConstantStart(zeros), (Brownian(1.0), jumps, Drift(-0.25)))
        if name == "brownian-drift-h":
            h = BrownianDrift(np.full(d, 0.5), 0.4, np.linspace(-0.2, 0.3, d))
            return DriverSpec(d, h, (jumps, Brownian(np.full(d, 0.6))))
        raise KeyError(name)

    SPECS = ("drawn-first", "underflowing", "three-components", "brownian-drift-h")

    @staticmethod
    def sampled(spec, block):
        with entries_per_block(block):
            return sample_driver_batch(spec, TestBlockSize.GRID, seed=13, paths=23)

    def check(self, spec):
        want = self.sampled(spec, 2**30)
        zeros_plus = TestFirstComponentWritten.added_to_zeros(spec, self.GRID, 13, 23)
        assert same_bits(want[1], zeros_plus)
        for block in (1, 7, 2**15):
            got = self.sampled(spec, block)
            for a, b in zip(got, want):
                assert np.array_equal(np.signbit(a), np.signbit(b)), block
                assert same_bits(a, b), block

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", SPECS)
    def test_block_size_changes_no_bit(self, name, d):
        self.check(self.spec(name, d))

    def test_deterministic_first_component(self):
        spec = DriverSpec(2, ConstantStart([0.5, 0.5]), (Drift([-0.0, 1.0]), Brownian(1.0)))
        self.check(spec)

    def test_scratch_is_bounded(self):
        # tracemalloc sees numpy's buffers: beyond Z itself the sampler
        # holds one block of draws, the row keys and a few (K,) arrays
        M, K = 2000, 1024
        spec = DriverSpec(dim=1, h=ConstantStart(0.0), z_components=(Brownian(1.0),))
        grid = Grid.regular(1.0, K)
        sample_driver_batch(spec, Grid.regular(1.0, 4), seed=1, paths=2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, Z = sample_driver_batch(spec, grid, seed=1, paths=M)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert Z.nbytes == (K + 1) * M * 8
        assert peak < Z.nbytes + 2 * 2**20


class TestThreadedRows:
    """A part whose row draw is one normal fill draws rows of at least
    ``_THREAD_ROW_VALUES`` values on worker threads.  Which thread draws a
    row changes no bit of H or Z, signed zeros included; the caller's
    errstate holds in the workers, a worker's exception is raised in the
    caller, and no worker outlives the call."""

    # 1024 values a row in d = 1 and d = 2, so a block holds 128 rows
    GRIDS = {
        1: Grid(np.concatenate([[0.0], np.cumsum(1.0 + np.arange(1024) % 3)]) / 2048.0),
        2: Grid.regular(1.0, 512),
    }
    # two blocks, the last of one row, and five, the last of 37 rows
    PATHS = (129, 549)

    @staticmethod
    def spec(name):
        jumps = CompoundPoisson(3.0, JumpSizes("normal", (0.0, 0.5)))
        if name == "brownian":
            return DriverSpec(1, ConstantStart(0.0), (Brownian(1.0),))
        if name == "d2-brownian-drift-h":
            h = BrownianDrift([0.5, -0.5], 0.4, [-0.2, 0.3])
            return DriverSpec(2, h, (Brownian([0.6, 1.2]),))
        if name == "d2-jumps-between":
            parts = (Brownian(0.7), jumps, Brownian([[0.3, 0.1], [0.0, 1.1]]))
            return DriverSpec(2, ConstantStart([0.0, 0.0]), parts)
        return TestBlockSize.spec(name, 1)

    SPECS = (*TestBlockSize.SPECS, "brownian", "d2-brownian-drift-h", "d2-jumps-between")
    on_threads = staticmethod(sde._on_threads)

    @staticmethod
    def sampled(monkeypatch, spec, paths, workers, first_index=0):
        """The batch, and the thread count of each part drawn on threads."""
        monkeypatch.setattr(sde, "_WORKERS", workers)
        monkeypatch.setattr(sde, "_cpus", lambda: workers)
        threaded = []

        def spy(work, calls):
            threaded.append(len(calls))
            TestThreadedRows.on_threads(work, calls)

        monkeypatch.setattr(sde, "_on_threads", spy)
        grid = TestThreadedRows.GRIDS[spec.dim]
        got = sample_driver_batch(spec, grid, 13, paths, first_index)
        return got, threaded

    @pytest.mark.parametrize("paths", PATHS)
    @pytest.mark.parametrize("name", SPECS)
    def test_threads_change_no_bit(self, monkeypatch, name, paths):
        spec = self.spec(name)
        want, serial = self.sampled(monkeypatch, spec, paths, 1)
        got, threaded = self.sampled(monkeypatch, spec, paths, 2)
        parts = (spec.h, *spec.z_components)
        assert serial == []
        assert threaded == [2] * sum(getattr(p, "_normal_fill", False) for p in parts)
        for a, b in zip(got, want):
            assert np.array_equal(np.signbit(a), np.signbit(b))
            assert same_bits(a, b)

    def test_more_workers_than_cores_change_no_bit(self, monkeypatch):
        # four workers switching every microsecond or so: a row drawn or
        # added twice, or lost, changes Z
        spec = self.spec("d2-jumps-between")
        want, _ = self.sampled(monkeypatch, spec, 549, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, threaded = self.sampled(monkeypatch, spec, 549, 4)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == [4, 4]
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @pytest.mark.parametrize("name", ["d2-brownian-drift-h", "d2-jumps-between"])
    def test_row_p_is_its_one_row_batch(self, monkeypatch, name):
        spec, grid = self.spec(name), self.GRIDS[2]
        (H, Z), threaded = self.sampled(monkeypatch, spec, 549, 2, first_index=3)
        assert threaded
        # each end of the workers' shares and of their blocks of 64 rows
        for i in (0, 63, 64, 273, 274, 275, 337, 338, 548):
            h, z = sample_driver_batch(spec, grid, 13, 1, first_index=3 + i)
            assert same_bits(H[i], h[0]) and same_bits(Z[i], z[0]), i

    # 1023 cells of 1/1023 and one of 10^4: sigma 1e306 overflows only in
    # the last cell's scaling, in the rows whose last normal exceeds 1.8,
    # and the running sum then adds a finite value to an infinite one
    WIDE = Grid(np.append(np.linspace(0.0, 1.0, 1024), 1e4 + 1.0))
    HUGE = DriverSpec(1, ConstantStart(0.0), (Brownian(1e306),))

    def test_overflow_raises_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(sde, "_cpus", lambda: 2)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                sample_driver_batch(self.HUGE, self.WIDE, 1, 300)

    def test_ignored_overflow_warns_nowhere(self, monkeypatch):
        monkeypatch.setattr(sde, "_cpus", lambda: 2)
        with np.errstate(over="ignore"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, Z = sample_driver_batch(self.HUGE, self.WIDE, 1, 300)
        assert caught == []
        # rows of both workers overflow
        assert np.isinf(Z[:150, -1]).any() and np.isinf(Z[150:, -1]).any()
        assert not np.isnan(Z).any()
        monkeypatch.setattr(sde, "_WORKERS", 1)
        with np.errstate(over="ignore"):
            assert same_bits(Z, sample_driver_batch(self.HUGE, self.WIDE, 1, 300)[1])

    def test_a_workers_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(sde, "_cpus", lambda: 2)
        second = {tuple(key) for key in _philox_keys(1, range(150, 300), 1).tolist()}
        row_streams = sde._row_streams

        def failing(gen, keys):
            if tuple(keys[0].tolist()) in second:
                raise RuntimeError("a row of the second worker")
            return row_streams(gen, keys)

        monkeypatch.setattr(sde, "_row_streams", failing)
        before = threading.active_count()
        with np.errstate(over="ignore"):
            with pytest.raises(RuntimeError, match="second worker"):
                sample_driver_batch(self.HUGE, self.WIDE, 1, 300)
            assert threading.active_count() == before
            monkeypatch.setattr(sde, "_row_streams", row_streams)
            sample_driver_batch(self.HUGE, self.WIDE, 1, 300)
        assert threading.active_count() == before


class TestSampleArguments:
    @pytest.mark.parametrize("paths", [-1, -7])
    def test_negative_paths_raise(self, paths):
        spec = DriverSpec(1, ConstantStart(0.0), (Brownian(1.0),))
        with pytest.raises(ValueError, match="paths must be nonnegative"):
            sample_driver_batch(spec, Grid.regular(1.0, 4), seed=1, paths=paths)

    @pytest.mark.parametrize("paths", [0, 3])
    def test_negative_first_index_raises(self, paths):
        spec = DriverSpec(1, BrownianDrift(0.0), (Brownian(1.0),))
        with pytest.raises(ValueError, match="first_index must be nonnegative"):
            sample_driver_batch(spec, Grid.regular(1.0, 4), 1, paths, first_index=-1)

    @pytest.mark.parametrize("h", [BrownianDrift([0.5, 0.5]), ConstantStart([0.5, 0.5])])
    def test_no_paths_is_empty(self, h):
        spec = DriverSpec(2, h, (Brownian(1.0), Drift(1.0)))
        grid = Grid.regular(1.0, 4)
        H, Z = sample_driver_batch(spec, grid, seed=1, paths=0)
        assert H.shape == Z.shape == (0, 5, 2)
        states, projections = euler_penalized_batch(WEDGE, Identity(2), H, Z, 8.0, grid)
        assert states.shape == projections.shape == (0, 5, 2)


class TestKeptGridPoints:
    """``at`` keeps some grid points of the scheme and not a bit changes."""

    CELLS = 40
    ATS = ([0], [CELLS], [0, 17, CELLS])

    @staticmethod
    def drivers(domain, drawn_h):
        d = domain.dim
        h = BrownianDrift(domain.anchor, 0.3) if drawn_h else ConstantStart(domain.anchor)
        spec = DriverSpec(
            dim=d,
            h=h,
            z_components=(
                Brownian(0.8),
                CompoundPoisson(2.0, JumpSizes("normal", (0.0, 0.5))),
            ),
        )
        grid = Grid.regular(1.0, TestKeptGridPoints.CELLS)
        return sample_driver_batch(spec, grid, seed=9, paths=25), grid

    @staticmethod
    def run(domain, f, H, Z, n, grid, at=None):
        if n == np.inf:
            return kernel_history(domain, f, H, Z, n, grid.times, at)
        return euler_penalized_batch(domain, f, H, Z, n, grid, at=at)

    @pytest.mark.parametrize("coef", ["identity", "diag-affine"])
    @pytest.mark.parametrize("h", ["drawn", "broadcast"])
    @pytest.mark.parametrize("n", [32.0, np.inf])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["halfspace", "polyhedron", "box", "ball"])
    def test_kept_points_equal_the_full_history(self, kind, d, n, h, coef):
        domain = TestTimeMajorLayout.domain(kind, d)
        f = TestTimeMajorLayout.coefficient(coef, d)
        (H, Z), grid = self.drivers(domain, h == "drawn")
        assert (H.strides[0] == 0) == (h == "broadcast")
        full = self.run(domain, f, H, Z, n, grid)
        assert np.isfinite(full[0]).all() and np.any(full[0] != full[1])
        for at in self.ATS:
            kept = self.run(domain, f, H, Z, n, grid, at)
            assert kept[0].shape == (25, len(at), d)
            assert same_bits(kept[0], full[0][:, at]), at
            assert same_bits(kept[1], full[1][:, at]), at
            if n == np.inf:
                assert same_bits(kept[2], full[2])

    def test_projection_that_returns_its_input(self):
        # a domain may return X itself when every row is inside; at n = inf
        # that is pre_k, so x_{k+1} must not be written over x_k's slab
        class Passthrough(HalfSpace):
            def project_points(self, X):
                P = super().project_points(X)
                return X if np.array_equal(P, X) else P

        domain = Passthrough([1.0], -3.0, anchor=[0.0])
        (H, Z), grid = self.drivers(domain, drawn_h=True)
        full = kernel_history(domain, Identity(1), H, Z, np.inf, grid.times)
        # the bits of the same half-space projecting into fresh arrays
        plain = HalfSpace([1.0], -3.0, anchor=[0.0])
        want = kernel_history(plain, Identity(1), H, Z, np.inf, grid.times)
        assert same_bits(full[0], want[0]) and same_bits(full[1], want[1])
        for at in self.ATS:
            kept = kernel_history(domain, Identity(1), H, Z, np.inf, grid.times, at)
            assert same_bits(kept[0], full[0][:, at]), at
            assert same_bits(kept[1], full[1][:, at]), at

    def test_failed_rows_are_nan_in_every_kept_slab(self):
        class Flaky(HalfSpace):
            def project_points(self, X):
                out = super().project_points(X)
                stuck = X[:, 0] > 50.0
                if stuck.any():
                    out[stuck] = np.nan
                    raise NumericalError("forced", out)
                return out

        domain = Flaky([1.0], 0.0)
        grid = Grid.regular(1.0, self.CELLS)
        H = np.full((4, self.CELLS + 1, 1), 0.5)
        H[1, 25:] = 100.0
        Z = np.zeros_like(H)
        Z[:, :, 0] = np.linspace(0.0, -1.0, self.CELLS + 1)
        Z[2, 30:] = np.inf
        f = Identity(1)
        full = euler_penalized_batch(domain, f, H, Z, 10.0, grid)
        for at in self.ATS:
            states, projections = euler_penalized_batch(domain, f, H, Z, 10.0, grid, at=at)
            # rows 1 and 2 fail after every kept point but the last
            for arr, whole in ((states, full[0]), (projections, full[1])):
                assert np.isnan(arr[1:3]).all() and np.isfinite(arr[[0, 3]]).all()
                assert same_bits(arr, whole[:, at])

    @pytest.mark.parametrize(
        "at", [[3, 1], [2, 2], [-1], [CELLS + 1], [], [1.5], [True]],
        ids=["unsorted", "repeated", "negative", "past-K", "empty", "float", "bool"],
    )
    def test_bad_indices_raise(self, at):
        grid = Grid.regular(1.0, self.CELLS)
        H = np.full((2, self.CELLS + 1, 1), 0.5)
        with pytest.raises(ValueError, match="at must"):
            euler_penalized_batch(HALFLINE, Identity(1), H, H, 10.0, grid, at=at)

    def test_history_is_not_allocated(self):
        # tracemalloc sees numpy's buffers: keeping only t = q holds a few
        # (M, d) slabs, the full history two (K+1, M, d) buffers
        M, K = 2000, 256
        spec = DriverSpec(dim=1, h=ConstantStart(0.0), z_components=(Brownian(1.0),))
        grid = Grid.regular(1.0, K)
        H, Z = sample_driver_batch(spec, grid, seed=1, paths=M)
        slab = M * 8

        def peak(at):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                euler_penalized_batch(HALFLINE, Identity(1), H, Z, 64.0, grid, at=at)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        assert peak([K]) < 16 * slab
        assert peak(None) >= 2 * (K + 1) * slab


class TestTimeMajorLayout:
    """Sampled arrays and scheme results are (M, K+1, d) views of
    time-major buffers; a C-ordered copy of the same values must give the
    same bits everywhere."""

    @staticmethod
    def domain(kind, d):
        if kind == "halfspace":
            return HalfSpace(np.full(d, 1.0 / np.sqrt(d)), -0.2)
        if kind == "box":
            return Box(np.zeros(d), np.ones(d))
        if kind == "ball":
            return Ball(np.zeros(d), 1.0)
        if d == 1:
            faces = [HalfSpace([1.0], 0.0), HalfSpace([-1.0], -4.0)]
            return Polyhedron(faces, anchor=[2.0])
        pad = np.zeros(d - 2)
        faces = [HalfSpace(np.append(h.normal, pad), h.offset) for h in WEDGE.faces]
        if d == 3:
            faces.append(HalfSpace([0.0, 0.0, 1.0], -1.0))
        return Polyhedron(faces, anchor=np.append(WEDGE.anchor, pad))

    @staticmethod
    def coefficient(kind, d):
        return {
            "identity": Identity(d),
            "constant": ConstantMatrix(np.eye(d) + 0.2 * np.tri(d, k=-1)),
            "diag-affine": DiagAffine(d, base=0.5, slope=0.25),
            "power": PowerDiagonal(d, alpha=0.75),
        }[kind]

    @staticmethod
    def sample(domain, paths=30, cells=40):
        d = domain.dim
        spec = DriverSpec(
            dim=d,
            h=BrownianDrift(domain.anchor, 0.3),
            z_components=(
                Brownian(0.8),
                Drift(np.full(d, -1.0)),
                CompoundPoisson(2.0, JumpSizes("normal", (0.0, 0.5))),
            ),
        )
        grid = Grid.regular(1.0, cells)
        return sample_driver_batch(spec, grid, seed=4, paths=paths), grid

    @pytest.mark.parametrize(
        "name", ["d1-h-constant", "d2-h-constant", "d1-h-table", "d2-h-table"]
    )
    def test_deterministic_h_is_a_read_only_broadcast(self, name):
        # no (K+1, M, d) buffer: one (K+1, d) row, stride 0 along paths
        spec = contract_specs()[name]
        H, Z = sample_driver_batch(spec, Grid.regular(1.0, 12), seed=7, paths=3)
        assert H.shape == Z.shape == (3, 13, spec.dim)
        assert not H.flags.writeable and H.strides[0] == 0
        assert Z.flags.writeable

    def test_results_are_views_of_time_major_buffers(self):
        domain = self.domain("box", 2)
        (H, Z), grid = self.sample(domain)
        states, projections = euler_penalized_batch(
            domain, Identity(2), H, Z, 32.0, grid
        )
        values = euler_projected_batch(domain, Identity(2), H, Z, grid)
        for arr in (H, Z, states, projections, values):
            assert arr.shape == (30, 41, 2)
            assert arr.transpose(1, 0, 2).flags.c_contiguous
            assert not arr.flags.c_contiguous

    @pytest.mark.parametrize("coef", ["identity", "constant", "diag-affine", "power"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["halfspace", "polyhedron", "box", "ball"])
    def test_layout_does_not_change_bits(self, kind, d, coef):
        domain = self.domain(kind, d)
        f = self.coefficient(coef, d)
        (H, Z), grid = self.sample(domain)
        Hc, Zc = np.ascontiguousarray(H), np.ascontiguousarray(Z)
        states, projections = euler_penalized_batch(domain, f, H, Z, 32.0, grid)
        twins = euler_penalized_batch(domain, f, Hc, Zc, 32.0, grid)
        assert np.isfinite(states).all() and np.any(states != projections)
        assert same_bits(states, twins[0]) and same_bits(projections, twins[1])
        assert same_bits(
            euler_projected_batch(domain, f, H, Z, grid),
            euler_projected_batch(domain, f, Hc, Zc, grid),
        )
        # the stored rows through the kernel's reducing visitors
        layouts = ((states, projections), tuple(map(np.ascontiguousarray, (states, projections))))
        gaps = [_replay(_Gaps(32.0, grid.times, grid.q, 30), *rows) for rows in layouts]
        sup = [_replay(_SupDistance(domain.anchor, 32.0, grid.times, grid.q), *rows) for rows in layouts]
        for t in (grid.q, grid.times[17] + 0.01):
            assert same_bits(gaps[0].variation(t), gaps[1].variation(t))
        assert same_bits(sup[0].sup, sup[1].sup)

    def test_simulate_report_does_not_depend_on_layout(self, monkeypatch):
        cfg = {
            "domain": {"variant": "box", "lower": [0, 0, 0], "upper": [1, 2, 1]},
            "driver": {
                "dim": 3,
                "h": {"kind": "brownian", "x0": [0.5, 0.5, 0.5], "sigma": 0.7},
                "z": [
                    {"kind": "brownian", "sigma": [1.0, 0.5, 2.0]},
                    {"kind": "drift", "rate": [0.5, 0.0, -0.5]},
                    {
                        "kind": "compound_poisson",
                        "rate": 3.0,
                        "jumps": {"tag": "uniform", "params": [-0.5, 0.5]},
                    },
                ],
            },
            "grid": {"q": 1.0, "cells": 64},
            "coefficient": {"kind": "diag_affine", "base": 0.5, "slope": 0.25},
            "n": 50.0,
            "paths": 200,
            "seed": 3,
            "keep_paths": 3,
        }
        report, kept = experiments.run_simulate(cfg)
        sample = experiments.sample_driver_batch

        def c_ordered(*args):
            return tuple(map(np.ascontiguousarray, sample(*args)))

        monkeypatch.setattr(experiments, "sample_driver_batch", c_ordered)
        twin, twin_kept = experiments.run_simulate(cfg)
        assert report.to_json() == twin.to_json()
        assert sorted(kept) == sorted(twin_kept) == ["path_0", "path_1", "path_2"]
        for name, path in kept.items():
            assert path.to_json() == twin_kept[name].to_json()


MATRICES = (np.array([[0.7, 0.2], [0.1, 1.3]]), np.array([[0.5, 0.25], [0.75, 1.0]]))


def contract_specs() -> dict:
    """Every H kind and every Z component, in d = 1 and d = 2."""
    specs = {}
    for d in (1, 2):
        x0 = [0.3, -0.2][:d]
        table = StepPath([0.0, 0.3, 0.7], [[0.5, 0.1], [-0.25, 2.0], [1.0, -1.0]], 1.0)
        hs = {
            "constant": ConstantStart(x0),
            "bd-scalar": BrownianDrift(x0, 0.7, 0.4),
            "bd-vector": BrownianDrift(x0, [0.7, 1.3][:d], [0.2, -0.5][:d]),
            "bd-matrix": BrownianDrift(x0, MATRICES[0][:d, :d], -0.3),
            "table": TablePath(StepPath(table.times, table.values[:, :d], 1.0)),
        }
        zs = {
            "brownian": Brownian(1.3),
            "brownian-matrix": Brownian(MATRICES[1][:d, :d]),
            "drift": Drift([-2.0, 0.5][:d]),
            "cp-normal": CompoundPoisson(30.0, JumpSizes("normal", (0.1, 0.5))),
            "cp-uniform": CompoundPoisson(20.0, JumpSizes("uniform", (-1.0, 2.0))),
            "cp-exponential": CompoundPoisson(
                25.0, JumpSizes("exponential", (0.3,))
            ),
            "cp-constant": CompoundPoisson(
                30.0, JumpSizes("constant", (0.25, -0.5)[:d])
            ),
            "cp-rate0": CompoundPoisson(0.0, JumpSizes("normal", (0.0, 1.0))),
        }
        for name, h in hs.items():
            specs[f"d{d}-h-{name}"] = DriverSpec(d, h, (Brownian(1.0),))
        for name, z in zs.items():
            specs[f"d{d}-z-{name}"] = DriverSpec(d, ConstantStart(x0), (z,))
        specs[f"d{d}-all"] = DriverSpec(d, hs["bd-scalar"], tuple(zs.values()))
    return specs


def contract_digest(spec) -> str:
    """SHA-256 of H then Z for paths 2..4 of seed 7 on 12 cells (a step
    whose square root is not a power of two, so scaling order shows)."""
    grid = Grid.regular(1.0, 12)
    H, Z = sample_driver_batch(spec, grid, seed=7, paths=3, first_index=2)
    return hashlib.sha256(H.tobytes() + Z.tobytes()).hexdigest()


class TestStreamContract:
    """Driver values pinned byte for byte.

    Each part draws from the Philox stream keyed by (seed, path index,
    component), and the transforms after the draws have a fixed order of
    operations.  Any change to a stream, to the draws made from it, or to
    that arithmetic changes a digest below, and with it every replayed
    run.  The digests hold for numpy's Philox and Generator streams; the
    matrix-sigma cases also depend on the BLAS product (K, d) @ (d, d).
    """

    DIGESTS = {
        "d1-all":
            "5ba4572264ef5db6452c80dbdc013fcf83ad5e7fe5f5cff630312db4730c8e47",
        "d1-h-bd-matrix":
            "77570b273998d514a5298fc3e44e9384e2177521674fd4368b0591cfbd4968d8",
        "d1-h-bd-scalar":
            "954c9f86bd812e7ff74d0fac37a3118c7872442cc8a63d588697ad5c2b9ce035",
        "d1-h-bd-vector":
            "b746f00789f52f035fb6106e2a0e4b47ad058addb2242164ade9bc271bc949c3",
        "d1-h-constant":
            "f859ac7a0aec8cb311a23ca82419d45d7fe0eaa21c715c5e97fb92651838e577",
        "d1-h-table":
            "77723f5dda98412217c1aa4294f7e95c09b7371497315f83053f5cfeda8956ce",
        "d1-z-brownian":
            "ab636e8c9bec75a93721c6a3e121846e63e0f4ffc45ce84a4463cd25b32c98ea",
        "d1-z-brownian-matrix":
            "ca248e7af65a5d8ce0af451b8bf22f60516252bbbd2ac012f36c011e99c73236",
        "d1-z-cp-constant":
            "e6ac2cdba1a57adb1c6ff3e7588ebe3168c501eddee07448f53f569cd641cf53",
        "d1-z-cp-exponential":
            "7958e580556e230f89bd376cd47dcd3cd57c7daccecb6f96e5119d9d46166e5f",
        "d1-z-cp-normal":
            "451274e3db252ea74cd652b8f6416fc54b0b3e2c53481f367ba9c8984e8e4b19",
        "d1-z-cp-rate0":
            "74719b414d8f7a506d2483d67be7f83e5bfd3977e352e0652abd6f753dfa6ae1",
        "d1-z-cp-uniform":
            "03f2e33ef813930347310f5199ded48986be71fcf6d8737ec91180085d9e02d9",
        "d1-z-drift":
            "8c8bae3b7c599183c4902c1d481483890ac67c6dd1fc13a2b244284ba6132acb",
        "d2-all":
            "6be2a788291fa32ea3de8da90040e3f58b9a414857ffdee4951f4b1e5b66f03a",
        "d2-h-bd-matrix":
            "8a1a648a68deb8be42a33885a318860ac3d4932a5abdd6c813b2f4045d3bc829",
        "d2-h-bd-scalar":
            "1fe2585bcd1f47fd2e18d0b428e83086b157636ffee4f021a5ec559a364637fd",
        "d2-h-bd-vector":
            "a43f1cbb2006a2035ef4b240fe0ca433bb74c0469a66adb0f1c48e20486748a8",
        "d2-h-constant":
            "0b3cc586ef9ab43dd3cca13a478324a8de5addb7672f40372aa3670f98807789",
        "d2-h-table":
            "eef8f4632ab4eff39728e2227e0a0d7347d15b041d1c2c53eff707e29b0b4f0f",
        "d2-z-brownian":
            "1b7aa0cfba851a5b7c9174f92941d838392f0b04a649429db7abcfff748c8615",
        "d2-z-brownian-matrix":
            "d45e8d71c3f75f68560564aeffffb1628384e6ba1d7597ead0046b0ca5f8fe1e",
        "d2-z-cp-constant":
            "30518848ff2ec5b1bcf807f1c2cda6131c21977d7b9cb31f528bb48b79fb5245",
        "d2-z-cp-exponential":
            "43fcb01482725bad9e6a9aeaa79c260a51f95dc0d1895a8478aa42c4051f3e34",
        "d2-z-cp-normal":
            "21e31c5fde9ac38104594ae55ce60b737e521f81e9ffd51042aed14e110c2465",
        "d2-z-cp-rate0":
            "aa4b2035a80ce74168e3f557fdb83fc2c04c555baa0b73a6fb76a7b75308f135",
        "d2-z-cp-uniform":
            "f2e72eb0e3ff0c0bfb5fccfad30b06f56a3f4719ce7b3ac65bae113efdca2f98",
        "d2-z-drift":
            "be2f333d178122b3bf1bf517b6a85c800ec0916a0be9f19cb24d5ddbaba6ce37",
    }

    @pytest.mark.parametrize("name", sorted(contract_specs()))
    def test_digest(self, name):
        assert contract_digest(contract_specs()[name]) == self.DIGESTS[name]


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
        assert growth_ratio(g, np.random.default_rng(0)) <= 0.5 + 1e-12

    def test_power_diagonal_modulus(self, rng):
        f = PowerDiagonal(2, alpha=0.5, cap=10.0)
        for scale in (1e-6, 1.0, 100.0):
            X = rng.normal(scale=scale, size=(500, 2))
            Y = rng.normal(scale=scale, size=(500, 2))
            gaps = [modulus_gap(f, x, y) for x, y in zip(X, Y)]
            assert min(gaps) >= -1e-12
        assert np.allclose(f.diag(np.array([4.0, 25.0])), [2.0, np.sqrt(10.0)])
        with pytest.raises(ValueError):
            PowerDiagonal(1, alpha=0.4)
        with pytest.raises(ValueError):
            PowerDiagonal(1, alpha=1.0)
        with pytest.raises(ValueError):
            PowerDiagonal(1, alpha=0.5, cap=0.0)

    def test_growth_ratio_identity(self):
        assert growth_ratio(Identity(3), np.random.default_rng(1)) <= np.sqrt(3)

    def test_only_contract_is_defined(self):
        for cls in (Identity, ConstantMatrix, DiagAffine, PowerDiagonal):
            assert "contract" in vars(cls) and "mat" not in vars(cls)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mat_is_contract_on_unit_vectors(self, rng, d):
        A = rng.normal(size=(d, d))
        for scale in (1e-3, 1.0, 1e3):
            for x in rng.normal(scale=scale, size=(20, d)):
                assert (Identity(d).mat(x) == np.eye(d)).all()
                assert (ConstantMatrix(A).mat(x) == A).all()
                for f in (DiagAffine(d, 0.5, 0.25), PowerDiagonal(d, 0.75, cap=2.0)):
                    assert (f.mat(x) == np.diag(f.diag(x))).all()
                assert (Twist(d).mat(x) == Twist(d).matrix(x)).all()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_contract_alone_runs_every_scheme(self, d):
        f = Twist(d)
        assert growth_ratio(f, np.random.default_rng(2)) <= 1.25 * np.sqrt(d)
        domain = Ball(np.zeros(d), 1.0)
        spec = DriverSpec(d, ConstantStart(np.zeros(d)), (Brownian(1.5),))
        grid = Grid.regular(1.0, 20)
        H, Z = sample_driver_batch(spec, grid, seed=6, paths=4)
        states, projections = euler_penalized_batch(domain, f, H, Z, 16.0, grid)
        values = euler_projected_batch(domain, f, H, Z, grid)
        assert np.isfinite(states).all() and np.any(states != projections)
        for i in range(4):
            h, z = sample_driver(spec, grid, seed=6, path_index=i)
            one = euler_penalized(domain, f, h, z, n=16.0, grid=grid)
            assert same_bits(states[i], one.states)
            assert same_bits(projections[i], one.projections)
            proj = euler_projected(domain, f, h, z, grid=grid)
            assert same_bits(values[i], proj.values)
            TestEulerSchemes._check_decomposition(one, f, h, z, grid)
            zv = z.eval_many(grid.times)
            want = sum(
                f.mat(proj.values[k]) @ (zv[k + 1] - zv[k]) for k in range(grid.cells)
            )
            assert np.allclose(stochastic_integral(f, proj, z, grid), want, atol=1e-12)


def growth_ratio(f, gen, samples: int = 2000, scale: float = 50.0) -> float:
    """Largest sampled ratio ||f(x)||_F / (1 + |x|) of a coefficient f;
    admissible coefficients keep this bounded (linear growth)."""
    X = gen.uniform(-scale, scale, size=(samples, f.dim))
    worst = 0.0
    for x in X:
        worst = max(
            worst,
            float(np.linalg.norm(f.mat(x)) / (1.0 + np.linalg.norm(x))),
        )
    return worst


def modulus_gap(f, x, y) -> float:
    """dim * (|x-y|^2)^alpha - ||f(x)-f(y)||_F^2 of a PowerDiagonal f;
    nonnegative (its Holder modulus)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gap2 = float(np.sum((x - y) ** 2))
    fdiff = f.diag(x) - f.diag(y)
    return f.dim * gap2**f.alpha - float(np.sum(fdiff**2))


class Twist(Coefficient):
    """A coefficient given by ``contract`` alone: f(x) = diag(1 + |x| / 2)
    + S / 4, with S the cyclic shift (S v)_i = v_{i-1}.  Elementwise, so a
    row rounds alike in any batch."""

    def __init__(self, dim):
        self.dim = dim

    def contract(self, X, dZ):
        return (1.0 + 0.5 * np.abs(X)) * dZ + 0.25 * np.roll(dZ, 1, axis=1)

    def matrix(self, x):
        """f(x) written out, as the test's oracle."""
        shift = np.roll(np.eye(self.dim), 1, axis=0)
        return np.diag(1.0 + 0.5 * np.abs(x)) + 0.25 * shift


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
