"""Lab checks: oracles for the MC machinery plus desk-scale property runs."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import msdenoise.theory_lab as lab
from msdenoise import ShiftOperator, fit
from msdenoise.density import PointCloud


@pytest.fixture(scope="module")
def gmm():
    return lab.gmm_density()


@pytest.fixture(scope="module")
def gmm_spec(gmm):
    return lab.gmm_level_spec(gmm)


def test_gmm_fixture_critical_points(gmm):
    modes = np.sort(gmm.modes.ravel())
    assert abs(modes[0] - 0.0) < 1e-3
    assert abs(modes[1] - 5.0) < 1e-3
    assert gmm.minima.shape == (1, 1)
    assert 0.0 < gmm.minima[0, 0] < 5.0
    # curvature constant: for this mixture |p''| peaks at the taller mode
    assert gmm.hess_sup == pytest.approx(0.279, abs=2e-3)


def test_gmm_level_spec_boundaries(gmm, gmm_spec):
    # half the lower mode height, four boundary crossings
    heights = gmm.density(gmm.modes)
    assert gmm_spec.level == pytest.approx(0.5 * heights.min(), rel=1e-12)
    assert gmm_spec.boundary_points.shape == (4, 1)
    vals = gmm.density(gmm_spec.boundary_points)
    assert np.allclose(vals, gmm_spec.level, rtol=1e-9)
    assert gmm_spec.gradient_floor > 0.0


def test_theory_path_loads_no_scipy():
    code = (
        "import sys\n"
        "import msdenoise.cli, msdenoise.theory_lab as lab\n"
        "gmm = lab.gmm_density()\n"
        "lab.gmm_level_spec(gmm)\n"
        "lab.mixture_tilt_family()\n"
        "lab.level_scale_family(gmm)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(lab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _brentq_roots(f, xs, values):
    """The scipy reference: brentq on each sign-change bracket of `values`."""
    from scipy.optimize import brentq

    return np.array([
        brentq(lambda t: float(f(np.array([t]))[0]), xs[i], xs[i + 1], xtol=1e-13)
        for i in np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)
    ])


@pytest.mark.parametrize("params", [
    (0.7, 0.0, 5.0, 1.0, 1.0),
    (0.5, -1.0, 3.0, 0.6, 1.4),
    (0.35, 2.0, 9.0, 2.0, 0.8),
])
def test_gmm_critical_points_match_scipy(params):
    pytest.importorskip("scipy")
    from scipy.optimize import minimize_scalar

    mix, mu1, mu2, s1, s2 = params
    gmm = lab.gmm_density(*params)
    xs = np.linspace(min(mu1 - 4.0 * s1, mu2 - 4.0 * s2),
                     max(mu1 + 4.0 * s1, mu2 + 4.0 * s2), 4001)

    def slope(x):
        return gmm.gradient(x[:, None])[:, 0]

    want = _brentq_roots(slope, xs, slope(xs))
    got = np.sort(np.concatenate([gmm.modes.ravel(), gmm.minima.ravel()]))
    assert got.shape == want.shape == (3,)
    assert np.max(np.abs(got - want)) <= 1e-12

    def curvature(x):
        total = 0.0
        for w, mu, s in ((mix, mu1, s1), (1.0 - mix, mu2, s2)):
            z = (x - mu) / s
            total = total + w * lab._phi(x, mu, s) * (z * z - 1.0) / (s * s)
        return total

    k = int(np.argmax(np.abs(curvature(xs))))
    window = (xs[max(k - 2, 0)], xs[min(k + 2, xs.size - 1)])
    res = minimize_scalar(lambda x: -abs(curvature(x)), bounds=window, method="bounded")
    assert gmm.hess_sup == pytest.approx(abs(curvature(res.x)), rel=1e-9)

    spec = lab.gmm_level_spec(gmm)
    span = float(gmm.modes.max() - gmm.modes.min()) + 1.0
    grid = np.linspace(float(gmm.modes.min()) - 6.0 * span / 5.0,
                       float(gmm.modes.max()) + 6.0 * span / 5.0, 8001)

    def excess(x):
        return gmm.density(x[:, None]) - spec.level

    want = _brentq_roots(excess, grid, excess(grid))
    assert spec.boundary_points.shape == (want.size, 1)
    assert np.max(np.abs(spec.boundary_points[:, 0] - want)) <= 1e-12


@pytest.mark.parametrize("f", [
    lambda x: x - 0.5,                    # root on a grid node: not bracketed
    lambda x: x * x + 1.0,                # no root
    lambda x: (x - 0.5) * (x - 0.23),     # one root on a node, one inside a step
    lambda x: np.cos(7.0 * x),            # two roots inside steps
])
def test_bracketed_roots_match_brentq_bracket_rule(f):
    pytest.importorskip("scipy")
    xs = np.linspace(0.0, 1.0, 11)
    got = lab._bracketed_roots(f, xs, f(xs))
    want = _brentq_roots(f, xs, f(xs))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13)


def test_bracketed_roots_stops_on_an_exact_zero():
    # the first midpoint is the root itself
    xs = np.array([0.0, 1.0])
    assert lab._bracketed_roots(lambda x: x - 0.5, xs, xs - 0.5).tolist() == [0.5]


def test_level_set_mass_normal_interval_oracle():
    nrm = lab.standard_normal_density()
    spec = lab.LevelSetSpec(density=nrm.density, level=float(nrm.density(np.array([[1.0]]))[0]))
    n = 100000
    x = nrm.sampler(np.random.default_rng(4), n)
    mass = lab.level_set_mass(x, spec)
    target = math.erf(1.0 / math.sqrt(2.0))  # mass of [-1, 1]
    assert abs(mass - target) < 4.0 * math.sqrt(target * (1.0 - target) / n)


def test_level_set_mass_extreme_levels():
    nrm = lab.standard_normal_density()
    x = nrm.sampler(np.random.default_rng(1), 500)
    assert lab.level_set_mass(x, lab.LevelSetSpec(nrm.density, 1e-300)) == 1.0
    assert lab.level_set_mass(x, lab.LevelSetSpec(nrm.density, 1.0)) == 0.0


def test_level_set_spec_validation():
    nrm = lab.standard_normal_density()
    with pytest.raises(ValueError):
        lab.LevelSetSpec(nrm.density, 0.0)
    with pytest.raises(ValueError):
        lab.LevelSetSpec(nrm.density, 0.1, boundary_points=[[3.0]])  # not on the level


def test_mass_increase_curve_gmm(gmm, gmm_spec):
    rep = lab.mass_increase_curve(gmm, gmm_spec, [0.05, 0.1, 0.2, 0.4], n_mc=200000, rng_seed=11)
    assert rep.violations == []
    assert 1.7 <= rep.slope <= 2.3
    assert np.all(rep.values > 0.0)
    assert rep.extras["mc_ok"]
    # conservative first-order lower bound holds; the variant divided by the
    # level is reported alongside for inspection
    assert rep.extras["bound_plain_ok"]
    assert isinstance(rep.extras["bound_over_level_ok"], bool)


def test_mass_increase_rejects_inadmissible_h(gmm, gmm_spec):
    with pytest.raises(ValueError):
        lab.mass_increase_curve(gmm, gmm_spec, [0.1, 1.2], n_mc=1000)


def test_mass_increase_deterministic(gmm, gmm_spec):
    a = lab.mass_increase_curve(gmm, gmm_spec, [0.1, 0.2], n_mc=20000, rng_seed=3)
    b = lab.mass_increase_curve(gmm, gmm_spec, [0.1, 0.2], n_mc=20000, rng_seed=3)
    assert np.array_equal(a.values, b.values)


def test_geometric_density_counting_identity():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(500, 2))
    r = 1000.0
    got = lab.geometric_density_at(pts, [0.0, 0.0], r)
    assert got == pytest.approx(1.0 / (math.pi * r * r), rel=1e-12)
    assert lab.geometric_density_at(pts, [1e6, 1e6], 0.1) == 0.0


def test_geometric_density_normal_oracle():
    nrm = lab.standard_normal_density()
    x = nrm.sampler(np.random.default_rng(8), 400000)
    got = lab.geometric_density_at(x, [0.0], 0.1)
    assert abs(got - (2.0 * math.pi) ** -0.5) < 0.1 * (2.0 * math.pi) ** -0.5


def test_mode_ratio_curve_normal():
    nrm = lab.standard_normal_density()
    rep = lab.mode_density_ratio_curve(nrm, [0.0], [0.1, 0.2, 0.4], ball_radius=0.05,
                                       n_mc=200000, rng_seed=5)
    assert rep.violations == []
    assert 1.6 <= rep.slope <= 2.4
    # continuity: the gap shrinks toward zero as h drops
    assert np.all(np.diff(rep.values) > 0.0)
    assert rep.values[0] < 0.02


def test_minimum_ratio_curve_gmm_valley(gmm):
    valley = gmm.minima[0]
    rep = lab.mode_density_ratio_curve(gmm, valley, [0.1, 0.15, 0.2], ball_radius=0.05,
                                       n_mc=400000, rng_seed=5, kind="minimum")
    assert rep.violations == []
    assert np.all(rep.values > 0.0)  # density at the valley drops: ratio < 1


def test_mode_ratio_validation(gmm):
    with pytest.raises(ValueError):
        lab.mode_density_ratio_curve(gmm, [1.0], [0.1, 0.2], 0.05, 1000)  # not critical
    with pytest.raises(ValueError):
        lab.mode_density_ratio_curve(gmm, gmm.minima[0], [0.1, 0.4], 0.05, 1000,
                                     kind="minimum")  # h=0.4 inadmissible at the valley
    with pytest.raises(ValueError):
        lab.mode_density_ratio_curve(gmm, gmm.modes[0], [0.1], 0.05, 1000, kind="ridge")


def test_empirical_population_gap_trend(gmm, gmm_spec):
    rep = lab.empirical_population_gap(gmm, gmm_spec, [200, 1600], h=0.3, n_reps=8,
                                       rng_seed=7, n_pop=8000)
    assert rep.slope < 0.0
    assert rep.extras["trend_decreasing"]
    assert rep.grid.tolist() == [200.0, 1600.0]


def test_empirical_population_gap_requires_n100(gmm, gmm_spec):
    with pytest.raises(ValueError):
        lab.empirical_population_gap(gmm, gmm_spec, [50, 200], h=0.3, n_reps=2)


def _refusing_sampler(rng, n):
    raise AssertionError("sampled before the arguments were checked")


@pytest.mark.parametrize("n_reps", [0, 1])
def test_empirical_population_gap_requires_two_reps(gmm, gmm_spec, n_reps):
    # one replicate has no standard error, none has no mean: refused before
    # any sample is drawn, with no RuntimeWarning on the way
    unsampled = dataclasses.replace(gmm, sampler=_refusing_sampler)
    with pytest.raises(ValueError, match="n_reps must be >= 2"):
        lab.empirical_population_gap(unsampled, gmm_spec, [200, 400], h=0.3, n_reps=n_reps)


def test_same_sample_shift_gap_is_zero(gmm, gmm_spec):
    # the operator applied to identical clouds gives identical masses
    rng = np.random.default_rng(0)
    data = gmm.sampler(rng, 300)
    op = ShiftOperator(fit(data, 0.3))
    a = lab.level_set_mass(op.step(data), gmm_spec)
    b = lab.level_set_mass(op.step(data.copy()), gmm_spec)
    assert a == b


def test_perturbation_level_scaling_is_invariant(gmm, gmm_spec):
    fam = lab.level_scale_family(gmm)
    rep = lab.perturbation_response(fam, [0.0, 0.05, 0.1, 0.2], tau=0.3, probe=gmm_spec,
                                    n_mc=50000, rng_seed=1)
    # scaling f cancels exactly in the step: zero response at every delta
    assert np.all(rep.values == 0.0)
    assert rep.values[0] == 0.0  # delta = 0 in particular


def test_perturbation_mixture_tilt_linear_response(gmm_spec):
    fam = lab.mixture_tilt_family()
    rep = lab.perturbation_response(fam, [0.02, 0.04, 0.08, 0.16], tau=0.3, probe=gmm_spec,
                                    n_mc=200000, rng_seed=1)
    assert 0.7 <= rep.slope <= 1.3
    assert np.all(np.diff(rep.grid) > 0.0)


def test_perturbation_step_scale_halving(gmm, gmm_spec):
    fam = lab.level_scale_family(gmm)
    rep = lab.perturbation_response(fam, [0.02, 0.04, 0.08, 0.16], tau=0.3, probe=gmm_spec,
                                    n_mc=200000, rng_seed=2, situation="step")
    assert 0.7 <= rep.slope <= 1.3


def test_perturbation_sampling_contamination(gmm, gmm_spec):
    fam = lab.level_scale_family(gmm)
    cont = lambda rng, n: rng.uniform(-3.0, 8.0, (n, 1))
    rep = lab.perturbation_response(fam, [0.02, 0.04, 0.08, 0.16], tau=0.3, probe=gmm_spec,
                                    n_mc=200000, rng_seed=3, situation="sampling",
                                    contaminant_sampler=cont)
    assert 0.8 <= rep.slope <= 1.2
    with pytest.raises(ValueError):
        lab.perturbation_response(fam, [0.1, 0.2], tau=0.3, probe=gmm_spec, n_mc=100,
                                  situation="sampling")


def test_monotone_ascent_audit_zero_violations():
    rng = np.random.default_rng(0)
    model = fit(rng.normal(size=(200, 2)), 0.4)
    assert lab.monotone_ascent_audit(model, rng.normal(size=(1000, 2))) == 0


def test_monotone_ascent_tie_at_mode_not_a_violation():
    from msdenoise import shift_until_converged

    rng = np.random.default_rng(5)
    model = fit(rng.normal(size=(100, 1)), 0.5)
    mode = shift_until_converged(ShiftOperator(model), [0.1], tol=1e-12).end
    assert lab.monotone_ascent_audit(model, mode[None, :]) == 0


def test_monotone_ascent_duplicated_data():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(50, 2))
    model = fit(np.vstack([data, data]), 0.4)
    assert lab.monotone_ascent_audit(model, rng.normal(size=(500, 2))) == 0


def test_multi_sweep_mode_growth(gmm):
    rep = lab.multi_sweep_mode_growth(gmm, n_data=500, h=0.25, sweeps=4, n_mc=50000, rng_seed=3)
    assert rep.extras["violations"] == []
    assert np.all(np.diff(rep.values) > 0.0)
    assert rep.extras["c1_fit"] > 0.0
    assert rep.slope > 0.0
    with pytest.raises(ValueError):
        lab.multi_sweep_mode_growth(gmm, sweeps=0)


def test_multi_sweep_mode_growth_requires_hess_sup(gmm):
    unbounded = dataclasses.replace(gmm, hess_sup=None, sampler=_refusing_sampler)
    with pytest.raises(ValueError, match="admissibility guard needs hess_sup"):
        lab.multi_sweep_mode_growth(unbounded, n_data=200, n_mc=1000)


def test_scaling_report_invariants():
    with pytest.raises(ValueError):
        lab.ScalingReport("x", [1.0, 1.0], [1.0, 2.0], 0.5, 0.1)
    with pytest.raises(ValueError):
        lab.ScalingReport("x", [1.0, 2.0], [1.0, 2.0], math.nan, 0.1)
    rep = lab.ScalingReport("x", [1.0, 2.0], [3.0, 4.0], 0.5, 0.1)
    assert not rep.grid.flags.writeable and not rep.values.flags.writeable


def test_reference_densities_are_normalized():
    for dens in (lab.standard_normal_density(), lab.gmm_density()):
        xs = np.linspace(-10.0, 15.0, 20001)[:, None]
        integral = np.trapezoid(np.asarray(dens.density(xs)), xs[:, 0])
        assert integral == pytest.approx(1.0, abs=1e-6)
        # gradient consistent with finite differences of the pdf
        mid = xs[5000:15000:500]
        step = 1e-6
        fd = (dens.density(mid + step) - dens.density(mid - step)) / (2.0 * step)
        assert np.allclose(dens.gradient(mid)[:, 0], fd, rtol=1e-6, atol=1e-12)
