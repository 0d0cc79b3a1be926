"""Generator tests: counts, determinism, exactness at sigma=0, CLT sanity."""

import numpy as np
import pytest

from msdenoise.synthetic import (
    ANOMALY_OUTLIERS,
    LabeledCloud,
    default_anomaly_scenario,
    gen_bullseye,
    gen_gmm_1d,
    gen_gmm_2d,
    gen_spiral,
    gen_uniform_noise,
    plant_outliers,
)
from msdenoise.density import PointCloud


def test_bullseye_counts_and_labels():
    lab = gen_bullseye(500, sigma=1.0, rng_seed=0)
    assert len(lab) == 500
    assert int((lab.labels == 0).sum()) == 100  # round(0.2 * 500) eye points
    assert int((lab.labels == 1).sum()) == 400


def test_bullseye_sigma_zero_exact_radius():
    lab = gen_bullseye(200, sigma=0.0, rng_seed=1)
    ring = lab.cloud.points[lab.labels == 1]
    assert np.allclose(np.linalg.norm(ring, axis=1), 6.0, atol=1e-12)
    eye = lab.cloud.points[lab.labels == 0]
    assert np.allclose(eye, 0.0, atol=1e-12)


def test_bullseye_deterministic():
    a = gen_bullseye(100, rng_seed=7)
    b = gen_bullseye(100, rng_seed=7)
    assert np.array_equal(a.cloud.points, b.cloud.points)
    assert np.array_equal(a.labels, b.labels)


def test_bullseye_validation():
    with pytest.raises(ValueError):
        gen_bullseye(500, sigma=-1.0)
    with pytest.raises(ValueError):
        gen_bullseye(1)
    # two points would leave the eye empty (round(0.4) = 0); three do not
    with pytest.raises(ValueError, match="n0 must be >= 3"):
        gen_bullseye(2)
    assert gen_bullseye(3, rng_seed=0).labels.tolist() == [0, 1, 1]


def test_uniform_noise_inside_box_and_clt_mean():
    n = 300
    pc = gen_uniform_noise(n, [-6.5, -6.5], [6.5, 6.5], rng_seed=3)
    assert pc.points.shape == (n, 2)
    assert np.all(pc.points >= -6.5) and np.all(pc.points <= 6.5)
    # CLT bound on the mean of U(-6.5, 6.5): sd = 13/sqrt(12)
    bound = 4.0 * 13.0 / np.sqrt(12.0 * n)
    assert np.all(np.abs(pc.points.mean(axis=0)) < bound)


def test_uniform_noise_rejects_empty_box():
    with pytest.raises(ValueError):
        gen_uniform_noise(10, [0.0, 0.0], [0.0, 1.0])


@pytest.mark.parametrize("low, high", [([0.0], [np.inf]), ([-np.inf], [0.0]),
                                       ([0.0, -np.inf], [1.0, np.inf]),
                                       ([-1e308], [1e308])])
def test_uniform_noise_refuses_an_infinite_or_overflowing_box(low, high):
    # numpy's uniform draw needs a finite width high - low; the box is
    # refused before the generator is touched
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"box from .* must be finite"):
        gen_uniform_noise(3, low, high, rng_seed=rng)
    assert rng.bit_generator.state == state


def test_spiral_even_count_required():
    with pytest.raises(ValueError):
        gen_spiral(301)


def test_spiral_sigma_zero_points_on_arms():
    """Invert the arm parametrization from each point; reconstruction error < 1e-12."""
    lab = gen_spiral(300, sigma=0.0, rng_seed=5)
    pts = lab.cloud.points
    for k in (0, 1):
        arm = pts[lab.labels == k]
        r = np.linalg.norm(arm, axis=1)
        t = r / 0.7
        assert np.all((t > 0.25 - 1e-9) & (t < 1.0 + 1e-9))
        ang = 2.0 * np.pi * t + k * np.pi
        rebuilt = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        assert np.allclose(rebuilt, arm, atol=1e-12)


def test_spiral_arms_stay_separated():
    # dense-sampling oracle over the noise-free parametrization
    from msdenoise.synthetic import _spiral_arm

    t = np.linspace(0.25, 1.0, 4001)
    a0, a1 = _spiral_arm(t, 0), _spiral_arm(t, 1)
    d2 = ((a0[:, None, :] - a1[None, :, :]) ** 2).sum(-1)
    assert np.sqrt(d2.min()) > 0.3


def test_spiral_sampling_uniform_along_length():
    """Each arm's halves by arc length hold equal point counts up to noise.

    The half-length split point in t comes from an independent trapezoid
    integration of the arm speed on a fine grid.
    """
    n0 = 20000
    lab = gen_spiral(n0, sigma=0.0, rng_seed=13)
    grid = np.linspace(0.25, 1.0, 20001)
    speed = 0.7 * np.sqrt(1.0 + (2.0 * np.pi * grid) ** 2)
    arc = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(grid))])
    t_half = np.interp(0.5 * arc[-1], arc, grid)
    for k in (0, 1):
        arm = lab.cloud.points[lab.labels == k]
        t = np.linalg.norm(arm, axis=1) / 0.7
        frac = np.mean(t < t_half)
        assert abs(frac - 0.5) < 4.0 / np.sqrt(n0 // 2)


def test_spiral_fits_in_unit_box():
    lab = gen_spiral(300, sigma=0.05, rng_seed=9)
    assert np.all(np.abs(lab.cloud.points) <= 0.8 + 5 * 0.05)
    noise_free = gen_spiral(300, sigma=0.0, rng_seed=9)
    assert np.all(np.abs(noise_free.cloud.points) <= 0.8)


def test_gmm_1d_pure_component_mean():
    n = 4000
    pc = gen_gmm_1d(n, mix=1.0, mu1=2.0, mu2=50.0, s1=1.0, s2=1.0, rng_seed=11)
    assert pc.dim == 1
    assert abs(pc.points.mean() - 2.0) < 4.0 / np.sqrt(n)


def test_gmm_1d_component_proportion():
    n = 20000
    pc = gen_gmm_1d(n, mix=0.7, mu1=0.0, mu2=5.0, rng_seed=13)
    frac_low = float((pc.points[:, 0] < 2.5).mean())
    assert abs(frac_low - 0.7) < 4.0 * np.sqrt(0.7 * 0.3 / n)


@pytest.mark.parametrize("mix", [0.0, 0.7, 1.0])
def test_gmm_1d_equals_the_two_branch_formula(mix):
    # the in-place draw keeps every bit of np.where(pick, mu1 + s1 z, mu2 + s2 z)
    for params in [(0.0, 5.0, 1.0, 1.0), (-1.3, 2.1, 0.7, 1.9)]:
        mu1, mu2, s1, s2 = params
        rng = np.random.default_rng(21)
        pick1 = rng.random(5000) < mix
        z = rng.standard_normal(5000)
        want = np.where(pick1, mu1 + s1 * z, mu2 + s2 * z)
        got = gen_gmm_1d(5000, mix, mu1, mu2, s1, s2, rng_seed=21).points[:, 0]
        assert np.array_equal(got, want)


def test_gmm_1d_draw_peak_memory():
    # the draw holds the output and one float temporary, then the cloud's
    # copy: at most 2.5 population-sized float arrays at once
    import tracemalloc

    n = 200_000
    gen_gmm_1d(10)
    tracemalloc.start()
    try:
        gen_gmm_1d(n, rng_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * 8


def test_gmm_1d_validation_and_determinism():
    with pytest.raises(ValueError):
        gen_gmm_1d(10, mix=1.5)
    with pytest.raises(ValueError):
        gen_gmm_1d(10, s1=0.0)
    a = gen_gmm_1d(50, rng_seed=2)
    b = gen_gmm_1d(50, rng_seed=2)
    assert np.array_equal(a.points, b.points)


def test_gmm_2d_counts_means_and_labels():
    means = [(-3.0, 0.0), (3.0, 0.0), (0.0, 4.0)]
    lab = gen_gmm_2d(means, [0.7] * 3, [200] * 3, rng_seed=0)
    assert len(lab) == 600
    for i, mu in enumerate(means):
        pts = lab.cloud.points[lab.labels == i]
        assert pts.shape[0] == 200
        assert np.all(np.abs(pts.mean(axis=0) - np.asarray(mu)) < 4.0 * 0.7 / np.sqrt(200))


def test_gmm_2d_single_component():
    lab = gen_gmm_2d([(1.0, 1.0)], [0.5], [100], rng_seed=4)
    assert len(lab) == 100
    assert lab.n_labels == 1


def test_gmm_2d_rejects_mismatched_lists():
    with pytest.raises(ValueError):
        gen_gmm_2d([(0.0, 0.0)], [0.5, 0.7], [100])


def test_plant_outliers_bookkeeping():
    lab = gen_gmm_2d([(-3.0, 0.0), (3.0, 0.0), (0.0, 4.0)], [0.7] * 3, [200] * 3, rng_seed=0)
    out = plant_outliers(lab, [(0.0, 1.0)] * 5)
    assert len(out) == 605
    assert np.all(out.labels[-5:] == 3)
    assert np.array_equal(out.cloud.points[:600], lab.cloud.points)


def test_plant_outliers_empty_is_identity():
    lab = gen_gmm_2d([(0.0, 0.0)], [1.0], [10], rng_seed=1)
    assert plant_outliers(lab, []) is lab


def test_plant_outliers_dimension_mismatch():
    lab = gen_gmm_2d([(0.0, 0.0)], [1.0], [10], rng_seed=1)
    with pytest.raises(ValueError):
        plant_outliers(lab, [(1.0, 2.0, 3.0)])


def test_with_noise_labels():
    lab = gen_bullseye(100, rng_seed=0)
    noisy = plant_outliers(lab, gen_uniform_noise(30, [-6.5, -6.5], [6.5, 6.5], rng_seed=1).points)
    assert len(noisy) == 130
    assert noisy.n_labels == 3
    assert int((noisy.labels == 2).sum()) == 30


def test_labeled_cloud_requires_contiguous_labels():
    with pytest.raises(ValueError):
        LabeledCloud(PointCloud(np.zeros((3, 1))), np.array([0, 2, 2]))
    with pytest.raises(ValueError):
        LabeledCloud(PointCloud(np.zeros((3, 1))), np.array([0, 1]))


def test_default_anomaly_scenario_shape():
    lab = default_anomaly_scenario(rng_seed=0)
    assert len(lab) == 605
    assert lab.n_labels == 4
    assert np.array_equal(lab.cloud.points[-5:], np.asarray(ANOMALY_OUTLIERS))


def test_planted_outliers_sit_in_low_density():
    """Planted points fall below the 1st percentile of inlier estimated density."""
    from msdenoise import density_at, fit, select_bandwidth_scv

    lab = default_anomaly_scenario(rng_seed=0)
    h = select_bandwidth_scv(lab.cloud)
    dens = density_at(fit(lab.cloud, h), lab.cloud.points)
    inlier = dens[lab.labels < 3]
    assert np.all(dens[lab.labels == 3] < np.percentile(inlier, 1.0))
