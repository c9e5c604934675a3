"""Distributional diagnostics: KS, energy distance, tightness witnesses."""

import json

import numpy as np
import pytest
import scipy.stats

from reflectsde import stats
from reflectsde.experiments import oscillation_benchmark
from reflectsde.path import StepPath
from reflectsde.penalty import PenalizedPath
from reflectsde.stats import (
    ExperimentReport,
    MarginalCell,
    OscillationTable,
    energy_distance,
    ks_statistic,
    marginal_convergence,
    oscillation_diagnostic,
    reference_cdf,
    s_tightness_witness,
)


class TestKsStatistic:
    def test_point_mass_at_zero_vs_half_normal(self):
        samples = np.zeros(200)
        assert ks_statistic(samples, reference_cdf("half_normal")) == 1.0

    def test_point_mass_at_median(self):
        samples = np.zeros(150)
        assert ks_statistic(samples, reference_cdf("normal")) == 0.5

    def test_exact_uniform_grid(self):
        m = 100
        samples = (np.arange(1, m + 1) - 0.5) / m
        got = ks_statistic(samples, reference_cdf("uniform"))
        assert got == pytest.approx(0.5 / m, abs=1e-15)

    def test_matches_scipy(self, rng):
        x = rng.normal(size=400)
        got = ks_statistic(x, reference_cdf("normal"))
        want = scipy.stats.kstest(x, "norm").statistic
        assert got == pytest.approx(want, abs=1e-12)

    def test_typical_acceptance_rate(self, rng):
        crit = 1.36 / np.sqrt(500)
        hits = 0
        for _ in range(100):
            x = rng.normal(size=500)
            if ks_statistic(x, reference_cdf("normal")) < crit:
                hits += 1
        assert hits >= 85

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            ks_statistic(np.zeros(99), reference_cdf("normal"))

    def test_reference_laws(self):
        half = reference_cdf("half_normal", scale=2.0)
        assert half(0.0) == pytest.approx(0.0)
        assert half(2.0) == pytest.approx(2 * scipy.stats.norm.cdf(1.0) - 1)
        norm = reference_cdf("normal", loc=1.0, scale=3.0)
        assert norm(1.0) == pytest.approx(0.5)
        uni = reference_cdf("uniform", lo=-1.0, hi=3.0)
        assert uni(1.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            reference_cdf("levy")


# scipy's frozen laws for the reference_cdf parameters
REFERENCE_LAWS = [
    ("half_normal", {}, scipy.stats.halfnorm()),
    ("half_normal", {"scale": 2.5}, scipy.stats.halfnorm(scale=2.5)),
    ("normal", {}, scipy.stats.norm()),
    ("normal", {"loc": -1.5, "scale": 0.3}, scipy.stats.norm(loc=-1.5, scale=0.3)),
    ("uniform", {}, scipy.stats.uniform()),
    ("uniform", {"lo": -2.0, "hi": 5.0}, scipy.stats.uniform(loc=-2.0, scale=7.0)),
]


class TestReferenceCdf:
    @pytest.mark.parametrize("tag, params, law", REFERENCE_LAWS)
    def test_matches_scipy(self, tag, params, law, rng):
        cdf = reference_cdf(tag, **params)
        # both tails, negative values, zero and the infinities
        x = np.concatenate(
            (
                rng.normal(scale=4.0, size=2000),
                [-40.0, -9.0, -1e-300, 0.0, 1e-300, 9.0, 40.0, -np.inf, np.inf],
            )
        )
        got = cdf(x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - law.cdf(x))) <= 1e-15
        for point in (-3.0, 0.0, 0.7, 6.0):
            value = cdf(point)
            assert np.ndim(value) == 0
            assert abs(value - law.cdf(point)) <= 1e-15

    @pytest.mark.parametrize(
        "tag, params",
        [
            ("half_normal", {"scale": 0.0}),
            ("half_normal", {"scale": -1.0}),
            ("normal", {"scale": 0.0}),
            ("normal", {"scale": float("nan")}),
            ("uniform", {"lo": 1.0, "hi": 1.0}),
            ("uniform", {"lo": 2.0, "hi": 1.0}),
        ],
    )
    def test_degenerate_parameters_rejected(self, tag, params):
        with pytest.raises(ValueError):
            reference_cdf(tag, **params)


def mean_abs_1d(u, v):
    """Independent O((m+n) log) mean |u_i - v_j| via sorted prefix sums."""
    v = np.sort(v)
    pref = np.concatenate([[0.0], np.cumsum(v)])
    total = pref[-1]
    k = np.searchsorted(v, u, side="right")
    per_u = u * k - pref[k] + (total - pref[k]) - u * (v.shape[0] - k)
    return float(np.sum(per_u)) / (u.shape[0] * v.shape[0])


class TestEnergyDistance:
    def test_identical_samples_zero(self, rng):
        x = rng.normal(size=300)
        assert energy_distance(x, x.copy()) == 0.0

    def test_two_point_masses(self):
        assert energy_distance([0.0], [1.0]) == pytest.approx(2.0)
        assert energy_distance([0.0, 2.0], [1.0]) == pytest.approx(1.0)

    def test_symmetry_and_positivity(self, rng):
        a = rng.normal(size=(200, 2))
        b = rng.normal(loc=0.5, size=(250, 2))
        d1 = energy_distance(a, b)
        d2 = energy_distance(b, a)
        assert d1 == pytest.approx(d2, rel=1e-12)
        assert d1 > 0.0

    def test_matches_direct_computation(self, rng):
        a = rng.normal(size=(120, 3))
        b = rng.normal(loc=0.3, size=(80, 3))

        def direct(u, v):
            from scipy.spatial.distance import cdist

            return float(np.mean(cdist(u, v)))

        want = 2 * direct(a, b) - direct(a, a) - direct(b, b)
        assert energy_distance(a, b) == pytest.approx(want, rel=1e-12)

    def test_chunked_large_second_sample(self, rng):
        # 1-D samples take the sorted path; all pairs would number 10^9 here
        u = rng.normal(size=2000)
        v = rng.normal(loc=0.25, size=30_000)
        got = energy_distance(u, v)
        want = 2 * mean_abs_1d(u, v) - mean_abs_1d(u, u) - mean_abs_1d(v, v)
        assert got == pytest.approx(want, rel=1e-9)

    def test_1d_matches_scipy_with_ties(self, rng):
        u = np.round(rng.normal(size=500), 1)
        v = np.concatenate([u[:100], np.round(rng.normal(0.3, 1.5, size=600), 1)])
        assert np.unique(u).size < u.size and np.unique(v).size < v.size
        # scipy returns the square root of the squared distance
        want = scipy.stats.energy_distance(u, v) ** 2
        assert energy_distance(u, v) == pytest.approx(want, rel=1e-9)

    def test_1d_far_from_origin(self, rng):
        # prefix sums of raw values 1e6 away would lose about 1e-7 relative
        u = rng.normal(size=2000)
        v = rng.normal(loc=0.25, size=3000)
        want = energy_distance(u, v)
        assert energy_distance(u + 1e6, v + 1e6) == pytest.approx(want, rel=1e-8)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            energy_distance([], [1.0])

    def test_column_input_matches_1d(self, rng):
        u = rng.normal(size=300)
        v = rng.exponential(size=200)
        want = energy_distance(u, v)
        assert energy_distance(u[:, None], v[:, None]) == want
        assert energy_distance(u[:, None], v) == want
        assert energy_distance(u[:, None], u[::-1, None]) == 0.0

    def test_pairwise_blocks_in_two_dimensions(self, rng, monkeypatch):
        from scipy.spatial.distance import cdist

        a = rng.normal(size=(120, 2))
        b = rng.normal(loc=0.3, size=(80, 2))
        want = (
            2 * np.mean(cdist(a, b)) - np.mean(cdist(a, a)) - np.mean(cdist(b, b))
        )
        # 1000 pairs per block: a meets b in blocks of 12 rows
        monkeypatch.setattr(stats, "_PAIRS_PER_BLOCK", 1000)
        assert energy_distance(a, b) == pytest.approx(want, rel=1e-12)


class TestSTightness:
    def test_step_family_counts(self):
        zigzag = StepPath(
            [0.0, 0.2, 0.4, 0.6], [[0.0], [1.0], [0.0], [1.0]], q=1.0
        )
        flat = StepPath.constant(0.3, 1.0)
        report = s_tightness_witness(
            [zigzag, flat],
            levels=[(0, 0.25, 0.75)],
            sup_ceiling=1.0,
            count_ceilings=[2],
        )
        assert np.array_equal(report.counts[:, 0], [2, 0])
        assert np.array_equal(report.sup_norms, [1.0, 0.3])
        assert report.ok

    def test_ceiling_violations_flagged(self):
        zigzag = StepPath(
            [0.0, 0.2, 0.4, 0.6], [[0.0], [1.0], [0.0], [1.0]], q=1.0
        )
        tight = s_tightness_witness(
            [zigzag], [(0, 0.25, 0.75)], sup_ceiling=0.9, count_ceilings=[2]
        )
        assert not tight.sup_ok and tight.counts_ok and not tight.ok
        low = s_tightness_witness(
            [zigzag], [(0, 0.25, 0.75)], sup_ceiling=1.0, count_ceilings=[1]
        )
        assert low.sup_ok and not low.counts_ok and not low.ok

    def test_penalized_paths_use_skeletons(self):
        # single segment relaxing from 2 toward 1: sup must see the start
        path = PenalizedPath(1.0, [0.0], [[2.0]], [[1.0]], 1.0)
        report = s_tightness_witness(
            [path], [(0, 0.5, 1.5)], sup_ceiling=2.0, count_ceilings=[0]
        )
        assert report.sup_norms[0] == pytest.approx(2.0)
        assert report.ok

    def test_ceiling_count_mismatch(self):
        flat = StepPath.constant(0.0, 1.0)
        with pytest.raises(ValueError):
            s_tightness_witness(
                [flat], [(0, 0.0, 1.0)], sup_ceiling=1.0, count_ceilings=[1, 2]
            )


class TestOscillationDiagnostic:
    def test_constant_paths_all_zero(self):
        xs = [StepPath.constant(0.5, 1.0) for _ in range(4)]
        zs = [StepPath.constant(0.0, 1.0) for _ in range(4)]
        table = oscillation_diagnostic(xs, zs, deltas=[0.1, 0.4], epsilons=[0.05])
        assert np.array_equal(table.deltas, [0.4, 0.1])  # sorted descending
        assert np.all(table.probabilities == 0.0)
        assert table.monotone_within(0.0)
        assert table.sample_size == 4

    def test_known_separation_scale(self):
        # x oscillates at 0.4, z at 0.45: the pair modulus needs a window
        # wider than 0.05, so the tail drops to zero below that delta
        x = StepPath([0.0, 0.4], [[0.0], [1.0]], q=1.0)
        z = StepPath([0.0, 0.45], [[0.0], [1.0]], q=1.0)
        table = oscillation_diagnostic([x], [z], deltas=[0.1, 0.04], epsilons=[0.5])
        assert np.array_equal(table.probabilities, [[1.0, 0.0]])
        assert table.monotone_within(0.0)

    def test_validation(self):
        x = StepPath.constant(0.0, 1.0)
        with pytest.raises(ValueError):
            oscillation_diagnostic([x], [], deltas=[0.1], epsilons=[0.1])
        with pytest.raises(ValueError):
            oscillation_diagnostic([], [], deltas=[0.1], epsilons=[0.1])

    def test_monotone_band(self):
        table = OscillationTable(
            deltas=np.array([0.4, 0.2]),
            epsilons=np.array([0.1]),
            probabilities=np.array([[0.10, 0.11]]),
            sample_size=400,
        )
        assert table.monotone_within()  # 0.01 < 2/sqrt(400) = 0.1
        assert not table.monotone_within(0.005)

    def test_accepts_penalized_paths(self):
        x = PenalizedPath(2.0, [0.0, 0.5], [[0.5], [2.0]], [[0.5], [1.0]], 1.0)
        z = StepPath.constant(0.0, 1.0)
        table = oscillation_diagnostic([x], [z], deltas=[0.2], epsilons=[0.1])
        assert table.probabilities.shape == (1, 1)

    def test_one_modulus_call_per_pair_and_delta(self, monkeypatch):
        # tracers wrap the module-level name and count (pair, delta) units
        calls = []
        inner = stats.modulus_bar

        def counted(*args, **kwargs):
            calls.append(args[2])
            return inner(*args, **kwargs)

        monkeypatch.setattr(stats, "modulus_bar", counted)
        deltas = (0.4, 0.2, 0.1, 0.05)
        oscillation_benchmark(seed=7, paths=8, deltas=deltas)
        assert len(calls) == 8 * len(deltas)
        assert sorted(set(calls)) == sorted(deltas)


class TestMarginalConvergence:
    def test_ks_on_shrinking_grids(self):
        def grid_samples(m):
            return (np.arange(1, m + 1) - 0.5) / m

        cells = [
            MarginalCell(n=10.0**j, mesh=2.0**-j, samples={1.0: grid_samples(m)})
            for j, m in enumerate([100, 200, 400])
        ]
        report = marginal_convergence(
            cells, [1.0], lambda t: reference_cdf("uniform"), statistic="ks"
        )
        vals = [r["value"] for r in report.rows]
        assert vals == pytest.approx([0.005, 0.0025, 0.00125])
        assert report.monotone[1.0]
        assert report.passed()

    def test_energy_identical_reference(self, rng):
        base = rng.normal(size=300)
        cells = [MarginalCell(n=1.0, mesh=0.1, samples={0.5: base})]
        report = marginal_convergence(
            cells, [0.5], lambda t: base, statistic="energy"
        )
        assert report.rows[0]["value"] == 0.0
        assert report.passed()

    def test_forbidden_time_rejected(self):
        cells = [MarginalCell(n=1.0, mesh=0.1, samples={0.5: np.zeros(100)})]
        with pytest.raises(ValueError, match="fixed jump time"):
            marginal_convergence(
                cells,
                [0.5],
                lambda t: reference_cdf("normal"),
                forbidden_times=[0.5],
            )

    def test_unknown_statistic(self):
        cells = [MarginalCell(n=1.0, mesh=0.1, samples={0.5: np.zeros(100)})]
        with pytest.raises(ValueError):
            marginal_convergence(
                cells, [0.5], lambda t: reference_cdf("normal"), statistic="mmd"
            )

    def test_band_tolerates_noise(self):
        def grid_samples(m):
            return (np.arange(1, m + 1) - 0.5) / m

        cells = [
            MarginalCell(n=1.0, mesh=0.5, samples={1.0: grid_samples(200)}),
            MarginalCell(n=2.0, mesh=0.25, samples={1.0: grid_samples(100)}),
        ]
        strict = marginal_convergence(
            cells, [1.0], lambda t: reference_cdf("uniform"), statistic="ks"
        )
        assert not strict.passed()  # 0.0025 then 0.005 rises
        loose = marginal_convergence(
            cells,
            [1.0],
            lambda t: reference_cdf("uniform"),
            statistic="ks",
            band=0.01,
        )
        assert loose.passed()


class TestExperimentReport:
    def test_entries_and_json(self):
        report = ExperimentReport(params={"seed": 7})
        report.add_entry("alpha", 0.1, 0.5, True, 100, "seed=7")
        report.add_entry("beta", 0.9, 0.5, False, 100, "seed=7")
        assert not report.all_passed()
        raw = json.loads(report.to_json())
        assert raw["params"] == {"seed": 7}
        assert raw["all_passed"] is False
        assert [e["name"] for e in raw["entries"]] == ["alpha", "beta"]

    def test_table_csv(self):
        report = ExperimentReport(params={})
        report.tables["convergence"] = [
            {
                "n": 16,
                "mesh": 0.125,
                "M": 1000,
                "statistic": "ks",
                "value": 0.1,
                "threshold": 0.05,
                "pass": False,
            }
        ]
        text = report.table_csv("convergence")
        lines = text.splitlines()
        assert lines[0] == "n,mesh,M,statistic,value,threshold,pass"
        assert lines[1] == "16,0.125,1000,ks,0.1,0.05,False"
