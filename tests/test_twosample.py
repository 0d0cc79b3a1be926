import json
import math

import numpy as np
import pytest

from msdenoise import twosample
from msdenoise.twosample import (
    PowerCurve,
    TestResult,
    energy_statistic,
    mmd2_biased,
    msd_pipeline,
    permutation_test,
    power_experiment_mixture_proportion,
    power_experiment_uniform_noise,
    _median_pairwise,
)


class TestEnergyStatistic:
    def test_hand_values(self):
        assert energy_statistic([0.0], [1.0]) == pytest.approx(1.0, abs=1e-15)
        # nm/(n+m) = 1/2, cross term 2*2, within terms 0
        assert energy_statistic([0.0], [2.0]) == pytest.approx(2.0, abs=1e-15)

    def test_identical_samples_zero(self):
        x = np.random.default_rng(0).normal(size=(40, 3))
        assert abs(energy_statistic(x, x)) <= 1e-12

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(30, 2)), rng.normal(0.4, 1.0, (25, 2))
        th = 0.7
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        before = energy_statistic(x, y)
        after = energy_statistic(x @ rot.T + 3.0, y @ rot.T + 3.0)
        assert after == pytest.approx(before, rel=1e-12)

    def test_point_order_invariance(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(20, 2)), rng.normal(size=(15, 2))
        perm = rng.permutation(20)
        assert energy_statistic(x[perm], y) == pytest.approx(
            energy_statistic(x, y), rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            energy_statistic(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            energy_statistic(np.zeros((0, 2)), np.zeros((3, 2)))


class TestMMD:
    def test_hand_value(self):
        want = 2.0 - 2.0 * math.exp(-0.5)
        assert mmd2_biased([0.0], [1.0], kernel_sigma=1.0) == pytest.approx(want, rel=1e-12)

    def test_identical_samples_zero(self):
        x = np.random.default_rng(3).normal(size=(30, 2))
        assert abs(mmd2_biased(x, x)) <= 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=(rng.integers(2, 20), 2))
            y = rng.normal(rng.uniform(-1, 1), 1.0, (rng.integers(2, 20), 2))
            assert mmd2_biased(x, y) >= -1e-15

    def test_auto_sigma_is_pooled_median(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(12, 1)), rng.normal(2.0, 1.0, (9, 1))
        sigma = _median_pairwise(np.vstack([x, y]))
        assert mmd2_biased(x, y) == mmd2_biased(x, y, kernel_sigma=sigma)

    @pytest.mark.parametrize("pool", [
        np.random.default_rng(8).normal(size=(2000, 1)),  # even pair count
        np.random.default_rng(8).normal(size=(1001, 2)),  # odd pair count
        np.random.default_rng(8).normal(size=(2, 3)),     # one pair
        np.vstack([np.zeros((5, 1)), [[0.25], [1.0]]]),   # median 0: least spacing
        np.zeros((3, 2)),                                 # all coincide: unit scale
        np.zeros((1, 1)),                                 # no pairs
    ])
    def test_median_from_squared_pairs_matches_numpy_median(self, pool):
        from scipy.spatial.distance import pdist

        d = pdist(pool)
        med = float(np.median(d)) if d.size else 0.0
        positive = d[d > 0.0]
        want = med if med > 0.0 else (float(positive.min()) if positive.size else 1.0)
        assert _median_pairwise(pool) == want

    def test_degenerate_pool_fallback(self):
        # all points coincide: any sigma gives a zero statistic
        x = np.zeros((4, 1))
        assert mmd2_biased(x, x) == 0.0

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            mmd2_biased([0.0], [1.0], kernel_sigma=0.0)


@pytest.fixture(scope="module")
def sorted_cases():
    """1-D sample pairs for the sorted energy route: uneven sizes, ties, an offset."""
    rng = np.random.default_rng(17)
    cases = [(rng.normal(size=(n, 1)), rng.normal(0.3, 1.2, (m, 1)))
             for n, m in ((1, 7), (137, 211), (1000, 1300))]
    cases.append((rng.integers(0, 6, (300, 1)).astype(float),
                  rng.integers(1, 7, (250, 1)).astype(float)))
    cases.append((1e6 + rng.normal(size=(400, 1)), 1e6 + rng.normal(0.2, 1.0, (350, 1))))
    return cases


class TestPermutationTest:
    def test_constant_statistic_p_one(self):
        rng = np.random.default_rng(0)
        res = permutation_test(lambda a, b: 1.0, rng.normal(size=(10, 1)),
                               rng.normal(size=(10, 1)), n_perm=99, rng_seed=0)
        assert res.p_value == 1.0
        assert not res.reject

    def test_reproducible(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(20, 1)), rng.normal(size=(20, 1))
        a = permutation_test("energy", x, y, n_perm=199, rng_seed=9)
        b = permutation_test("energy", x, y, n_perm=199, rng_seed=9)
        assert a == b

    @pytest.mark.parametrize("name,func", [
        ("energy", energy_statistic),
        ("mmd", lambda a, b: mmd2_biased(a, b)),
    ])
    def test_pooled_route_matches_generic(self, name, func):
        # d = 1 takes the sorted route for energy
        for d in (2, 1):
            rng = np.random.default_rng(6)
            x = rng.normal(size=(25, d))
            y = rng.normal(0.3, 1.1, (30, d))
            for seed in (0, 1):
                fast = permutation_test(name, x, y, n_perm=199, rng_seed=seed)
                slow = permutation_test(func, x, y, n_perm=199, rng_seed=seed)
                assert fast.p_value == slow.p_value
                assert fast.statistic == slow.statistic

    @pytest.mark.parametrize("n,m", [(137, 211), (1000, 1300)])
    def test_sorted_route_matches_generic(self, n, m):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(n, 1))
        # a shift small enough that many permuted values sit near the observed
        y = rng.normal(0.05, 1.0, (m, 1))
        fast = permutation_test("energy", x, y, n_perm=199, rng_seed=4)
        slow = permutation_test(energy_statistic, x, y, n_perm=199, rng_seed=4)
        assert 0.01 < fast.p_value < 1.0
        assert fast.p_value == slow.p_value
        assert fast.statistic == slow.statistic

    @pytest.mark.parametrize("n,m,d", [(137, 211, 2), (1000, 1300, 1)])
    def test_pooled_observed_equals_direct_statistic(self, n, m, d):
        # sizes at which a mean over the non-contiguous blocks of the pooled
        # matrix rounds differently from the direct statistic
        rng = np.random.default_rng(11)
        x = rng.normal(size=(n, d))
        y = rng.normal(0.2, 1.1, (m, d))
        assert permutation_test("energy", x, y, n_perm=99).statistic == energy_statistic(x, y)
        assert permutation_test("mmd", x, y, n_perm=99).statistic == mmd2_biased(x, y)

    def test_sorted_statistics_match_long_double_oracle(self, sorted_cases):
        def oracle(a, b):
            a = a[:, 0].astype(np.longdouble)
            b = b[:, 0].astype(np.longdouble)

            def mean_abs(u, v):
                return np.abs(u[:, None] - v[None, :]).mean()

            n, m = a.size, b.size
            return n * m / (n + m) * (2 * mean_abs(a, b) - mean_abs(a, a) - mean_abs(b, b))

        for x, y in sorted_cases:
            n, total = x.shape[0], x.shape[0] + y.shape[0]
            want = oracle(x, y)
            assert abs(energy_statistic(x, y) - want) <= 1e-10 * abs(want)
            got = twosample._sorted_permutation_stats(x, y, 3, np.random.default_rng(0))
            rng = np.random.default_rng(0)
            pooled = np.vstack([x, y])
            for stat in got:
                perm = rng.permutation(total)
                want = oracle(pooled[perm[:n]], pooled[perm[n:]])
                assert abs(stat - want) <= 1e-10 * abs(want)

    def test_sorted_permutations_match_pooled_route(self, sorted_cases):
        for x, y in sorted_cases:
            rng_sorted = np.random.default_rng(21)
            rng_pooled = np.random.default_rng(21)
            got = twosample._sorted_permutation_stats(x, y, 199, rng_sorted)
            observed, want = twosample._pooled_permutation_stats("energy", x, y, 199,
                                                                 rng_pooled)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
            # no permuted value crosses the observed one between the routes
            assert np.array_equal(got >= energy_statistic(x, y), want >= observed)
            # the same draws, in the same order, from the same generator
            assert rng_sorted.bit_generator.state == rng_pooled.bit_generator.state

    def test_detects_mean_shift(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 1.0, (80, 1))
        y = rng.normal(1.5, 1.0, (80, 1))
        res = permutation_test("energy", x, y, n_perm=199, rng_seed=0)
        assert res.reject
        assert res.p_value == 1.0 / 200.0

    def test_null_rejection_rate_small_scale(self):
        hits = 0
        reps = 100
        for rep in range(reps):
            rng = np.random.default_rng(rep)
            x = rng.normal(size=(60, 1))
            y = rng.normal(size=(60, 1))
            hits += permutation_test("energy", x, y, n_perm=99, rng_seed=rep).reject
        assert hits / reps <= 0.12

    def test_validation(self):
        x = np.zeros((5, 1))
        y = np.ones((5, 1))
        with pytest.raises(ValueError):
            permutation_test("energy", x, y, n_perm=50)
        with pytest.raises(ValueError):
            permutation_test("median", x, y, n_perm=99)

    @pytest.mark.parametrize("stat", ["energy", "mmd"])
    def test_size_limit_fails_before_allocating(self, monkeypatch, stat):
        import scipy.spatial.distance

        def refuse(*args, **kwargs):
            raise AssertionError("pairwise distances computed")

        monkeypatch.setattr(scipy.spatial.distance, "cdist", refuse)
        monkeypatch.setattr(scipy.spatial.distance, "pdist", refuse)
        limit = twosample._MAX_POOLED_FLOATS
        total = math.isqrt(limit) + 1
        d = 2 if stat == "energy" else 1  # 1-D energy builds no pooled matrix
        x = np.zeros((total // 2, d))
        y = np.ones((total - total // 2, d))
        with pytest.raises(ValueError, match=f"n\\+m={total} exceeds the limit of {limit} entries"):
            permutation_test(stat, x, y, n_perm=99)

    def test_1d_energy_above_pooled_limit_needs_no_distances(self, monkeypatch):
        import scipy.spatial.distance

        def refuse(*args, **kwargs):
            raise AssertionError("pairwise distances computed")

        monkeypatch.setattr(scipy.spatial.distance, "cdist", refuse)
        monkeypatch.setattr(scipy.spatial.distance, "pdist", refuse)
        total = math.isqrt(twosample._MAX_POOLED_FLOATS) + 1
        rng = np.random.default_rng(13)
        x = rng.normal(size=(total // 2, 1))
        y = rng.normal(0.5, 1.0, (total - total // 2, 1))
        res = permutation_test("energy", x, y, n_perm=99)
        assert res.statistic == energy_statistic(x, y)
        assert res.p_value == 0.01

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            TestResult(1.0, 0.0, 99, 0.05, False)
        with pytest.raises(ValueError):
            TestResult(1.0, 0.5, 0, 0.05, False)


def test_msd_pipeline_contracts():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(150, 1))
    moved = msd_pipeline(x)
    assert moved.shape == x.shape
    assert np.array_equal(moved, msd_pipeline(x))
    assert np.abs(moved - x).mean() > 0.0
    # one sweep contracts the sample toward higher density: variance drops
    assert moved.var() < x.var()


class TestPowerCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerCurve([0.0, 1.0], [0.1, 1.2], None, 10, "energy", 0.05)
        with pytest.raises(ValueError):
            PowerCurve([0.0, 1.0], [0.1], None, 10, "energy", 0.05)
        with pytest.raises(ValueError):
            PowerCurve([0.0], [0.1], [0.1, 0.2], 10, "energy", 0.05)
        with pytest.raises(ValueError):
            PowerCurve([0.0], [0.1], None, 0, "energy", 0.05)

    def test_serialization(self, tmp_path):
        pc = PowerCurve([0.0, 100.0], [0.05, 0.6], [0.04, 0.7], 50, "energy", 0.05,
                        {"h0_after_rate": 0.04, "h0_inflated": False})
        json.dumps(pc.to_dict())
        path = tmp_path / "curve.csv"
        pc.to_csv(path)
        body = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(body[:, 0], pc.grid)
        assert np.array_equal(body[:, 1], pc.power_before)
        assert np.array_equal(body[:, 2], pc.power_after)
        assert np.array_equal(body[:, 3], [50, 50])

    def test_csv_with_missing_after_column(self, tmp_path):
        pc = PowerCurve([1.0], [0.5], None, 5, "mmd", 0.05)
        path = tmp_path / "c.csv"
        pc.to_csv(path)
        body = np.loadtxt(path, delimiter=",", skiprows=1)
        assert math.isnan(body[2])


class TestPowerExperiments:
    def test_noise_harness_deterministic(self):
        kw = dict(n0=60, noise_grid=[0, 40], n_reps=5, msd=False, rng_seed=0,
                  test="energy", n_perm=99)
        a = power_experiment_uniform_noise(**kw)
        b = power_experiment_uniform_noise(**kw)
        assert np.array_equal(a.power_before, b.power_before)
        assert a.power_after is None
        assert a.n_reps == 5

    def test_h0_bookkeeping_with_denoising(self):
        pc = power_experiment_uniform_noise(n0=60, noise_grid=[0], n_reps=5, msd=True,
                                            rng_seed=0, test="energy", n_perm=99)
        assert "h0_after_rate" in pc.extras
        assert isinstance(pc.extras["h0_inflated"], bool)
        assert pc.power_after is not None

    def test_mixture_power_rises_away_from_half(self):
        pc = power_experiment_mixture_proportion(pi_grid=[0.5, 0.25], n0=150, n_reps=20,
                                                 msd=False, rng_seed=0, test="energy",
                                                 n_perm=99)
        assert pc.power_before[1] > pc.power_before[0]
        assert pc.power_before[1] >= 0.8

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            power_experiment_uniform_noise(n0=20, noise_grid=[-5], n_reps=2)
        with pytest.raises(ValueError):
            power_experiment_mixture_proportion(pi_grid=[0.5, 1.0], n0=20, n_reps=2)

    @pytest.mark.parametrize("experiment", [power_experiment_uniform_noise,
                                            power_experiment_mixture_proportion])
    def test_no_replicates_rejected(self, experiment):
        with pytest.raises(ValueError, match="n_reps must be >= 1"):
            experiment(n0=20, n_reps=0, msd=False)
