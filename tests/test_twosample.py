import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

from msdenoise import cli, twosample
from msdenoise.density import _WORD_BUDGET
from msdenoise.twosample import (
    PowerCurve,
    TestResult,
    energy_statistic,
    mmd2_biased,
    msd_pipeline,
    permutation_test,
    power_experiment_mixture_proportion,
    power_experiment_uniform_noise,
    _median_distance,
)


# Direct formulas, one distance block per pair of samples, as an oracle for
# the pooled route: its block means must give these bits.
def _energy_oracle(x, y):
    n, m = x.shape[0], y.shape[0]
    cross, within_x, within_y = cdist(x, y).mean(), cdist(x, x).mean(), cdist(y, y).mean()
    return float(n * m / (n + m) * (2.0 * cross - within_x - within_y))


def _mmd_oracle(x, y, sigma=None):
    if sigma is None:
        sigma = float(np.median(pdist(np.vstack([x, y]))))
    scale = -0.5 / sigma**2
    kxy = np.exp(scale * cdist(x, y, "sqeuclidean")).mean()
    kxx = np.exp(scale * cdist(x, x, "sqeuclidean")).mean()
    kyy = np.exp(scale * cdist(y, y, "sqeuclidean")).mean()
    return float(kxx + kyy - 2.0 * kxy)


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
        sigma = _median_distance(squareform(pdist(np.vstack([x, y]), "sqeuclidean")))
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
        d = pdist(pool)
        med = float(np.median(d)) if d.size else 0.0
        positive = d[d > 0.0]
        want = med if med > 0.0 else (float(positive.min()) if positive.size else 1.0)
        assert _median_distance(squareform(pdist(pool, "sqeuclidean"))) == want

    def test_degenerate_pool_fallback(self):
        # all points coincide: any sigma gives a zero statistic
        x = np.zeros((4, 1))
        assert mmd2_biased(x, x) == 0.0

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            mmd2_biased([0.0], [1.0], kernel_sigma=0.0)

    def test_infinite_sigma_refused(self):
        # an infinite scale makes every kernel value 1, so samples 3 sd apart
        # would score 0; a NaN one makes none defined
        x = np.random.default_rng(6).normal(size=(50, 1))
        for sigma in (math.inf, math.nan):
            with pytest.raises(ValueError,
                               match=f"kernel_sigma must be positive and finite, got {sigma}"):
                mmd2_biased(x, x + 3.0, kernel_sigma=sigma)


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
            if name == "mmd":
                assert fast.statistic == _mmd_oracle(x, y)
            elif d >= 2:
                assert fast.statistic == _energy_oracle(x, y)

    @pytest.mark.parametrize("n,m", [(137, 211), (1000, 1300), (1, 2), (2, 1), (2, 137)])
    def test_sorted_route_matches_generic(self, n, m):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(n, 1))
        # a shift small enough that many permuted values sit near the observed
        y = rng.normal(0.05, 1.0, (m, 1))
        pooled = np.vstack([x, y])
        for n_perm in (99, 199, 1000):
            # the last block of permutations is a partial one
            assert n_perm % twosample._PERM_BLOCK
            fast = permutation_test("energy", x, y, n_perm=n_perm, rng_seed=4)
            slow = permutation_test(energy_statistic, x, y, n_perm=n_perm, rng_seed=4)
            if min(n, m) > 2:
                assert 0.01 < fast.p_value < 1.0
            assert fast.p_value == slow.p_value
            assert fast.statistic == slow.statistic
            # every permuted value, block by block, is the callable on its
            # split, and the generator ends where one draw per permutation
            # leaves it
            rng_route, rng_draws = np.random.default_rng(4), np.random.default_rng(4)
            observed, stats = twosample._sorted_permutation_stats(x, y, n_perm, rng_route)
            assert observed == fast.statistic
            for stat in stats:
                perm = rng_draws.permutation(n + m)
                assert stat == energy_statistic(pooled[perm[:n]], pooled[perm[n:]])
            assert rng_route.bit_generator.state == rng_draws.bit_generator.state

    def test_sorted_route_peak_memory(self):
        # the bound stated at _PERM_BLOCK: two reused blocks of permutations
        # and a few arrays of n+m numbers, however many permutations are drawn
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1000, 1))
        y = rng.normal(size=(1300, 1))
        tracemalloc.start()
        try:
            permutation_test("energy", x, y, n_perm=199)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("which,d", [("energy", 2), ("mmd", 1), ("mmd", 2)])
    def test_pooled_statistic_peak_memory(self, which, d):
        # the pooled matrix is taken in place of the squared pair distances:
        # one N x N array, then the contiguous copy of the cross block
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(1000, d)), rng.normal(0.3, 1.0, (1000, d))
        direct = (energy_statistic if which == "energy"
                  else lambda a, b: mmd2_biased(a, b, kernel_sigma=1.0))
        direct(x[:5], y[:5])  # imports outside the trace
        tracemalloc.start()
        try:
            direct(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 2000**2 * 8

    @pytest.mark.parametrize("n,m,d", [
        (137, 211, 2), (1000, 1300, 1), (137, 211, 3), (1000, 1300, 2),
    ])
    def test_pooled_observed_equals_direct_statistic(self, n, m, d):
        # sizes at which a mean over the non-contiguous blocks of the pooled
        # matrix rounds differently from the per-sample blocks of the oracle
        rng = np.random.default_rng(11)
        x = rng.normal(size=(n, d))
        y = rng.normal(0.2, 1.1, (m, d))
        energy = permutation_test("energy", x, y, n_perm=99).statistic
        if d == 1:  # the sorted route, scored the same way in both calls
            assert energy == energy_statistic(x, y)
        else:
            assert energy == energy_statistic(x, y) == _energy_oracle(x, y)
        mmd = permutation_test("mmd", x, y, n_perm=99).statistic
        assert mmd == mmd2_biased(x, y) == _mmd_oracle(x, y)
        for sigma in (0.7, 2.5):
            assert mmd2_biased(x, y, kernel_sigma=sigma) == _mmd_oracle(x, y, sigma)

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
            _, got = twosample._sorted_permutation_stats(x, y, 3, np.random.default_rng(0))
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
            _, got = twosample._sorted_permutation_stats(x, y, 199, rng_sorted)
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

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(20, 1)), rng.normal(size=(20, 1))
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="alpha must lie in \\(0, 1\\)"):
            permutation_test("energy", x, y, n_perm=99, rng_seed=rng, alpha=alpha)
        # refused before any permutation is drawn
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("stat", ["energy", "mmd"])
    def test_size_limit_fails_before_allocating(self, monkeypatch, stat):
        def refuse(*args, **kwargs):
            raise AssertionError("pairwise distances computed")

        monkeypatch.setattr(twosample, "_pair_sq_distances", refuse)
        limit = _WORD_BUDGET
        total = math.isqrt(limit) + 1
        d = 2 if stat == "energy" else 1  # 1-D energy builds no pooled matrix
        x = np.zeros((total // 2, d))
        y = np.ones((total - total // 2, d))
        direct = energy_statistic if stat == "energy" else mmd2_biased
        for run in (lambda: permutation_test(stat, x, y, n_perm=99), lambda: direct(x, y)):
            with pytest.raises(ValueError,
                               match=f"n\\+m={total} needs .* over the limit of {limit}"):
                run()
        # the indicator and its product with the matrix hold 2 (n+m) n_perm
        # floats: refused before any distance, however small the matrix
        x, y = x[:100], y[:100]
        n_perm = limit // (2 * 200) + 1
        with pytest.raises(ValueError,
                           match=f"n\\+m=200 with n_perm={n_perm} needs .* over the limit of {limit}"):
            permutation_test(stat, x, y, n_perm=n_perm)

    def test_1d_energy_above_pooled_limit_needs_no_distances(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pairwise distances computed")

        monkeypatch.setattr(twosample, "_pair_sq_distances", refuse)
        total = math.isqrt(_WORD_BUDGET) + 1
        rng = np.random.default_rng(13)
        x = rng.normal(size=(total // 2, 1))
        y = rng.normal(0.5, 1.0, (total - total // 2, 1))
        res = permutation_test("energy", x, y, n_perm=99)
        assert res.statistic == energy_statistic(x, y)
        assert res.p_value == 0.01

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            TestResult(1.0, 0.0, 99, 0.05)
        with pytest.raises(ValueError):
            TestResult(1.0, 0.5, 0, 0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, -0.1, math.nan])
    def test_result_refuses_an_alpha_outside_the_unit_interval(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            TestResult(1.0, 0.5, 99, alpha)


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

    # a curve is serialized by the CLI: JSON through its one conversion, CSV
    # through its one writer
    def test_serialization(self, tmp_path):
        pc = PowerCurve([0.0, 100.0], [0.05, 0.6], [0.04, 0.7], 50, "energy", 0.05,
                        {"h0_after_rate": 0.04, "h0_inflated": False})
        json.dumps(cli._jsonable(pc))
        path = tmp_path / "curve.csv"
        cli._write_csv(path, cli._power_curve_rows(pc), cli.POWER_CURVE_HEADER)
        body = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(body[:, 0], pc.grid)
        assert np.array_equal(body[:, 1], pc.power_before)
        assert np.array_equal(body[:, 2], pc.power_after)
        assert np.array_equal(body[:, 3], [50, 50])

    def test_csv_with_missing_after_column(self, tmp_path):
        pc = PowerCurve([1.0], [0.5], None, 5, "mmd", 0.05)
        path = tmp_path / "c.csv"
        cli._write_csv(path, cli._power_curve_rows(pc), cli.POWER_CURVE_HEADER)
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
