"""Acceptance gate: headline statistical properties at full experiment scale.

Each test pins its seeds and Monte Carlo budgets, prints one PASS/FAIL line
with the measured quantities, and asserts the advertised bands.  Reruns are
exact: everything below is deterministic given the pinned seeds.
"""

import time

import numpy as np
import pytest

import msdenoise.theory_lab as lab
from msdenoise.anomaly import anomaly_scores, top_k
from msdenoise.clustering import ari, run_clustering_case
from msdenoise.density import density_at, fit, gradient_at
from msdenoise.shift import ShiftOperator, empirical_step_weighted_mean, shift_step
from msdenoise.synthetic import default_anomaly_scenario
from msdenoise.twosample import (
    energy_statistic,
    mmd2_biased,
    power_experiment_uniform_noise,
)


def _verdict(ok, text):
    print(("PASS: " if ok else "FAIL: ") + text)
    return ok


@pytest.fixture(scope="module")
def gmm():
    return lab.gmm_density()


@pytest.fixture(scope="module")
def gmm_spec(gmm):
    return lab.gmm_level_spec(gmm)


def test_shift_step_never_decreases_kde_density():
    t0 = time.time()
    rng = np.random.default_rng(np.random.SeedSequence([0]))
    total = 0
    violations = 0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(50, 400))
        h = float(rng.uniform(0.2, 1.5))
        model = fit(rng.normal(size=(n, d)), h)
        probes = rng.normal(scale=2.0, size=(500, d))
        violations += lab.monotone_ascent_audit(model, probes)
        total += 500
    elapsed = time.time() - t0
    ok = violations == 0 and total == 10000 and elapsed < 30.0
    assert _verdict(ok, f"monotone ascent: {violations} violations over {total} "
                        f"(model, probe) evaluations in {elapsed:.1f}s (budget 30s)")


def test_level_set_mass_gain_scales_quadratically(gmm, gmm_spec):
    t0 = time.time()
    rep = lab.mass_increase_curve(gmm, gmm_spec, [0.05, 0.1, 0.2, 0.4],
                                  n_mc=200000, rng_seed=11)
    elapsed = time.time() - t0
    ok = (not rep.violations) and 1.7 <= rep.slope <= 2.3 and elapsed < 120.0
    assert _verdict(ok, f"level-set mass gain: no decreases beyond 3 MC se "
                        f"(violations={rep.violations!r}), log-log slope "
                        f"{rep.slope:.3f} in [1.7, 2.3], mc_resolved="
                        f"{rep.extras['mc_ok']}, {elapsed:.1f}s (budget 120s)")


def test_mode_ball_gain_and_valley_ball_loss(gmm):
    t0 = time.time()
    nrm = lab.standard_normal_density()
    mode = lab.mode_density_ratio_curve(nrm, [0.0], [0.1, 0.2, 0.4],
                                        n_mc=200000, rng_seed=0)
    valley = lab.mode_density_ratio_curve(gmm, gmm.minima[0], [0.1, 0.15, 0.2],
                                          n_mc=400000, rng_seed=0, kind="minimum")
    elapsed = time.time() - t0
    valley_below_one = bool(np.all(valley.values > 0.0))
    ok = (1.6 <= mode.slope <= 2.4 and valley_below_one
          and not mode.violations and not valley.violations and elapsed < 120.0)
    assert _verdict(ok, f"mode-ball ratio slope {mode.slope:.3f} in [1.6, 2.4]; "
                        f"valley-ball ratio below one at all h "
                        f"({valley_below_one}); {elapsed:.1f}s (budget 120s)")


@pytest.mark.slow
def test_empirical_population_gap_shrinks_with_sample_size(gmm, gmm_spec):
    t0 = time.time()
    rep = lab.empirical_population_gap(gmm, gmm_spec, [200, 800, 3200], h=0.3,
                                       n_reps=50, rng_seed=7, n_pop=40000)
    elapsed = time.time() - t0
    ok = -0.75 <= rep.slope <= -0.25 and elapsed < 300.0
    assert _verdict(ok, f"empirical-vs-population mass gap slope {rep.slope:.3f} "
                        f"in [-0.75, -0.25] over n=200..3200, 50 reps, "
                        f"{elapsed:.0f}s (budget 300s)")


def test_repeated_sweeps_concentrate_mass_at_mode(gmm):
    t0 = time.time()
    rep = lab.multi_sweep_mode_growth(gmm, n_data=1000, h=0.25, sweeps=5,
                                      n_mc=200000, rng_seed=0)
    elapsed = time.time() - t0
    increasing = bool(np.all(np.diff(rep.values) > 0.0))
    ok = increasing and not rep.extras["violations"]
    assert _verdict(ok, f"mode-ball mass strictly increases across sweeps 0..5: "
                        f"{np.round(rep.values, 4).tolist()} "
                        f"(growth rate {rep.extras['c1_fit']:.2f}), {elapsed:.0f}s")


def test_bullseye_case_spectral_recovery_after_denoising():
    t0 = time.time()
    rep = run_clustering_case("bullseye1", n_reps=50, rng_seed=0)
    elapsed = time.time() - t0
    after, gap = rep["ari_after_mean"], rep["gap"]
    ok = after >= 0.80 and gap >= 0.15 and elapsed < 600.0
    assert _verdict(ok, f"bullseye case 1 spectral, 50 reps: after-denoise ARI "
                        f"{after:.3f} >= 0.80, gap {gap:.3f} >= 0.15 (before "
                        f"{rep['ari_before_mean']:.3f}), {elapsed:.0f}s (budget 600s)")


def test_spiral_case_spectral_improvement_after_denoising():
    t0 = time.time()
    rep = run_clustering_case("spiral4", n_reps=50, rng_seed=0)
    elapsed = time.time() - t0
    before, after, gap = rep["ari_before_mean"], rep["ari_after_mean"], rep["gap"]
    ok = after > before and gap >= 0.10 and elapsed < 600.0
    assert _verdict(ok, f"spiral case 4 spectral, 50 reps: ARI before {before:.3f} "
                        f"-> after {after:.3f}, gap {gap:.3f} >= 0.10, "
                        f"{elapsed:.0f}s (budget 600s)")


@pytest.mark.slow
def test_null_rate_and_power_without_denoising():
    t0 = time.time()
    e0 = power_experiment_uniform_noise(noise_grid=[0], n_reps=200, msd=False,
                                        test="energy", n_perm=199, rng_seed=0)
    m0 = power_experiment_uniform_noise(noise_grid=[0], n_reps=200, msd=False,
                                        test="mmd", n_perm=199, rng_seed=0)
    e5 = power_experiment_uniform_noise(noise_grid=[500], n_reps=200, msd=False,
                                        test="energy", n_perm=199, rng_seed=0)
    elapsed = time.time() - t0
    r_e, r_m, power = e0.power_before[0], m0.power_before[0], e5.power_before[0]
    ok = (0.02 <= r_e <= 0.09 and 0.02 <= r_m <= 0.09 and power >= 0.9)
    assert _verdict(ok, f"un-denoised tests at alpha=0.05, 200 reps: null rates "
                        f"energy {r_e:.3f}, mmd {r_m:.3f} (band [0.02, 0.09]); "
                        f"energy power at 500 noise points {power:.3f} >= 0.9; "
                        f"{elapsed:.0f}s")


@pytest.mark.slow
def test_denoised_null_rate_is_reported_and_flagged():
    t0 = time.time()
    curve = power_experiment_uniform_noise(noise_grid=[0], n_reps=200, msd=True,
                                           test="energy", n_perm=199, rng_seed=0)
    elapsed = time.time() - t0
    rate = curve.power_after[0]
    flagged = curve.extras["h0_inflated"]
    # report-only: the rate itself is not gated, the bookkeeping is
    ok = (curve.extras["h0_after_rate"] == rate
          and flagged == (rate > curve.alpha))
    assert _verdict(ok, f"energy null rate after denoising both samples: "
                        f"{rate:.3f} at alpha={curve.alpha} -> inflation flag "
                        f"{flagged} (reported, not gated); {elapsed:.0f}s")


@pytest.mark.slow
def test_planted_outliers_dominate_path_length_ranking():
    t0 = time.time()
    hits4 = 0
    hits5 = 0
    n_seeds = 50
    for seed in range(n_seeds):
        scenario = default_anomaly_scenario(rng_seed=seed)
        planted = set(np.flatnonzero(scenario.labels == scenario.labels.max()).tolist())
        report = anomaly_scores(scenario.cloud.points)
        overlap = len(planted & set(top_k(report, 10).tolist()))
        hits4 += overlap >= 4
        hits5 += overlap == 5
    elapsed = time.time() - t0
    ok = hits4 >= int(0.9 * n_seeds) and hits5 >= int(0.6 * n_seeds)
    assert _verdict(ok, f"planted outliers in top-10 over {n_seeds} seeds: "
                        f">=4of5 in {hits4} (floor {int(0.9 * n_seeds)}), "
                        f"5of5 in {hits5} (floor {int(0.6 * n_seeds)}); "
                        f"{elapsed:.0f}s")


def _ari_pair_counting(a, b):
    """Brute-force adjusted index over all point pairs; None if degenerate."""
    n = len(a)
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa, sb = a[i] == a[j], b[i] == b[j]
            ss += sa and sb
            sd += sa and not sb
            ds += sb and not sa
            dd += not sa and not sb
    total = ss + sd + ds + dd
    exp = (ss + sd) * (ss + ds) / total
    mx = 0.5 * ((ss + sd) + (ss + ds))
    if mx == exp:
        return None
    return (ss - exp) / (mx - exp)


def test_unit_floor_identities():
    rng = np.random.default_rng(np.random.SeedSequence([2024]))

    x = rng.normal(size=(40, 2))
    e_same = energy_statistic(x, x.copy())
    m_same = mmd2_biased(x, x.copy())
    stats_ok = abs(e_same) <= 1e-12 and abs(m_same) <= 1e-12

    ari_checked = 0
    ari_max_err = 0.0
    while ari_checked < 100:
        n = int(rng.integers(3, 13))
        a = rng.integers(0, int(rng.integers(2, 5)), n)
        b = rng.integers(0, int(rng.integers(2, 5)), n)
        want = _ari_pair_counting(a.tolist(), b.tolist())
        if want is None:
            continue
        ari_max_err = max(ari_max_err, abs(ari(a, b) - want))
        ari_checked += 1
    ari_ok = ari_max_err <= 1e-12

    model = fit(rng.normal(size=(300, 2)), 0.5)
    probes = rng.normal(scale=1.5, size=(100, 2))
    grad = gradient_at(model, probes)
    eps = 1e-5
    fd = np.empty_like(grad)
    for j in range(2):
        step = np.zeros(2)
        step[j] = eps
        fd[:, j] = (density_at(model, probes + step)
                    - density_at(model, probes - step)) / (2 * eps)
    rel = np.linalg.norm(fd - grad, axis=1) / np.linalg.norm(grad, axis=1)
    grad_ok = bool(np.all(rel < 1e-5))

    worst_route = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 120))
        d = int(rng.integers(1, 4))
        model_i = fit(rng.normal(size=(n, d)), float(rng.uniform(0.3, 1.2)))
        states = rng.normal(scale=1.5, size=(8, d))
        a_route = shift_step(ShiftOperator(model_i), states)
        b_route = empirical_step_weighted_mean(model_i, states)
        denom = max(float(np.abs(a_route).max()), 1.0)
        worst_route = max(worst_route, float(np.abs(a_route - b_route).max()) / denom)
    routes_ok = worst_route <= 1e-10

    ok = stats_ok and ari_ok and grad_ok and routes_ok
    assert _verdict(ok, f"unit floor: identical-sample stats ({e_same:.1e}, "
                        f"{m_same:.1e}) <= 1e-12; ARI vs pair-counting oracle "
                        f"max err {ari_max_err:.1e} over 100 labelings; KDE "
                        f"gradient vs central differences max rel "
                        f"{rel.max():.1e} < 1e-5 on 100 probes; ratio vs "
                        f"weighted-mean step max rel {worst_route:.1e} <= 1e-10 "
                        f"on 100 states")
