"""Lab checks: oracles for the MC machinery plus desk-scale property runs."""

import dataclasses
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import msdenoise.theory_lab as lab
from msdenoise import ShiftOperator, fit
from msdenoise.density import PointCloud
from msdenoise.synthetic import gen_gmm_1d


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


@pytest.mark.parametrize("name, value, message", [
    ("s1", -1.0, "s1 must be positive and finite, got -1.0"),
    ("s1", 0.0, "s1 must be positive and finite, got 0.0"),
    ("s2", math.nan, "s2 must be positive and finite, got nan"),
    ("mu1", math.nan, "mu1 must be finite, got nan"),
    ("mu2", math.inf, "mu2 must be finite, got inf"),
])
@pytest.mark.parametrize("make", [lab.gmm_density, lambda **kw: gen_gmm_1d(5, **kw)],
                         ids=["gmm_density", "gen_gmm_1d"])
def test_gmm_refuses_a_bad_sd_or_mean_by_name(make, name, value, message):
    # at s1=-1 a fixture used to report one mode and a negative component
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(**{name: value})


def test_gmm_level_spec_boundaries(gmm, gmm_spec):
    # half the lower mode height, four boundary crossings
    heights = gmm.density(gmm.modes)
    assert gmm_spec.level == pytest.approx(0.5 * heights.min(), rel=1e-12)
    assert gmm_spec.boundary_points.shape == (4, 1)
    vals = gmm.density(gmm_spec.boundary_points)
    assert np.allclose(vals, gmm_spec.level, rtol=1e-9)
    assert gmm_spec.gradient_floor > 0.0


def test_mixture_constants_are_pinned_to_the_bit(gmm, gmm_spec):
    # the roots, curvature constant and sup norms every theory report is
    # built on; a rewrite of the mixture's p or p' that rounds differently
    # moves one of them, so these are compared with ==, not approx
    assert gmm.modes.ravel().tolist() == [7.98599146576272e-06, 4.999956513303409]
    assert gmm.minima.ravel().tolist() == [2.701821424409575]
    assert gmm.hess_sup == 0.2792488933367007
    assert gmm_spec.level == 0.059841862468616024
    assert gmm_spec.boundary_points.ravel().tolist() == [
        -1.755241490372265, 1.7612742027916275, 3.8199075355749432, 6.17740265691957]
    assert gmm_spec.gradient_floor == 0.06967175185236908
    assert lab.mixture_tilt_family().delta1(1.0) == 0.6414510176031886
    assert lab.level_scale_family(gmm).delta1(1.0) == 0.44863956039684677


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
            phi = np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))
            total = total + w * phi * (z * z - 1.0) / (s * s)
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
    got = lab._bracketed_roots(f, xs)
    want = _brentq_roots(f, xs, f(xs))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13)


def test_bracketed_roots_stops_on_an_exact_zero():
    # the first midpoint is the root itself
    xs = np.array([0.0, 1.0])
    assert lab._bracketed_roots(lambda x: x - 0.5, xs).tolist() == [0.5]


def test_level_set_mass_normal_interval_oracle():
    nrm = lab.standard_normal_density()
    spec = lab.LevelSetSpec(density=nrm.density, level=float(nrm.density(np.array([[1.0]]))[0]))
    n = 100000
    x = nrm.sampler(np.random.default_rng(4), n)
    mass = float(spec.contains(x).mean())
    target = math.erf(1.0 / math.sqrt(2.0))  # mass of [-1, 1]
    assert abs(mass - target) < 4.0 * math.sqrt(target * (1.0 - target) / n)


def test_level_set_mass_extreme_levels():
    nrm = lab.standard_normal_density()
    x = nrm.sampler(np.random.default_rng(1), 500)
    assert lab.LevelSetSpec(nrm.density, 1e-300).contains(x).mean() == 1.0
    assert lab.LevelSetSpec(nrm.density, 1.0).contains(x).mean() == 0.0


def test_level_set_spec_reads_a_1d_array_as_points():
    nrm = lab.standard_normal_density()
    level = float(nrm.density(np.array([[1.0]]))[0])
    spec = lab.LevelSetSpec(nrm.density, level, boundary_points=np.array([-1.0, 1.0]))
    assert spec.boundary_points.shape == (2, 1)
    assert spec.contains(np.array([-2.0, 0.0, 0.5, 2.0])).tolist() == [False, True, True, False]


def test_level_set_membership_reads_points_where_they_lie(gmm_spec):
    # no copy of the points: the peak is the density's own work arrays
    import tracemalloc

    n = 200_000
    x = np.random.default_rng(3).normal(size=(n, 1))
    gmm_spec.contains(x[:10])
    tracemalloc.start()
    try:
        gmm_spec.contains(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * n * 8


@pytest.mark.parametrize("bad", [np.zeros((0, 1)), np.zeros((2, 1, 1)), [[0.0], [math.nan]]])
def test_level_set_membership_refuses_what_a_point_cloud_refuses(gmm_spec, bad):
    with pytest.raises(ValueError) as refused:
        PointCloud(bad)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        gmm_spec.contains(bad)


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


def test_geometric_density_takes_one_point():
    x1 = np.random.default_rng(2).normal(size=(50, 1))
    # a scalar is one point in 1-D
    assert lab.geometric_density_at(x1, 0.0, 0.5) == lab.geometric_density_at(x1, [0.0], 0.5)
    with pytest.raises(ValueError, match="single point of dimension 1, got 2 points"):
        lab.geometric_density_at(x1, [0.0, 1.0], 0.5)
    x2 = np.random.default_rng(2).normal(size=(50, 2))
    with pytest.raises(ValueError, match="single point of dimension 2, got 2 points"):
        lab.geometric_density_at(x2, [[0.0, 0.0], [1.0, 1.0]], 0.5)
    with pytest.raises(ValueError, match="scalar query only valid for 1-D models"):
        lab.geometric_density_at(x2, 0.0, 0.5)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ball_membership_equals_the_summed_squares(d):
    rng = np.random.default_rng(d)
    pts = rng.normal(size=(3000, d))
    centre = rng.normal(size=(1, d))
    r = 0.9
    want = ((pts - centre) ** 2).sum(axis=1) <= r * r
    assert np.array_equal(lab._in_ball(pts, centre, r), want)
    assert lab.geometric_density_at(pts, centre[0], r) == lab.geometric_density_at(
        PointCloud(pts), centre[0], r)


@pytest.mark.parametrize("bad", [
    np.array([[0.0], [np.nan], [1.0]]),
    np.array([0.0, np.inf]),
    np.empty((0, 1)),
    np.empty((4, 0)),
    np.zeros((2, 2, 1)),
    [[0.0], [-np.inf]],
])
def test_ball_count_refuses_what_a_point_cloud_refuses(bad):
    with pytest.raises(ValueError) as refused:
        PointCloud(bad)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        lab.geometric_density_at(bad, [0.0], 0.5)


def test_ball_count_peak_memory():
    # the count reads the sample where it lies and sums into one (n,) buffer
    import tracemalloc

    n = 200_000
    x = np.random.default_rng(3).normal(size=(n, 1))
    lab.geometric_density_at(x[:10], [0.0], 0.1)
    tracemalloc.start()
    try:
        lab.geometric_density_at(x, [0.0], 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * n * 8


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0])
def test_geometric_density_refuses_a_radius_that_is_not_positive_and_finite(radius):
    x1 = np.random.default_rng(2).normal(size=(50, 1))
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        lab.geometric_density_at(x1, [0.0], radius)


def test_geometric_density_normal_oracle():
    nrm = lab.standard_normal_density()
    x = nrm.sampler(np.random.default_rng(8), 400000)
    got = lab.geometric_density_at(x, [0.0], 0.1)
    assert abs(got - (2.0 * math.pi) ** -0.5) < 0.1 * (2.0 * math.pi) ** -0.5


def test_mode_ratio_curve_normal():
    nrm = lab.standard_normal_density()
    rep = lab.mode_density_ratio_curve(nrm, [0.0], [0.1, 0.2, 0.4],
                                       n_mc=200000, rng_seed=5)
    assert rep.violations == []
    assert 1.6 <= rep.slope <= 2.4
    # continuity: the gap shrinks toward zero as h drops
    assert np.all(np.diff(rep.values) > 0.0)
    assert rep.values[0] < 0.02


def test_minimum_ratio_curve_gmm_valley(gmm):
    valley = gmm.minima[0]
    rep = lab.mode_density_ratio_curve(gmm, valley, [0.1, 0.15, 0.2],
                                       n_mc=400000, rng_seed=5, kind="minimum")
    assert rep.violations == []
    assert np.all(rep.values > 0.0)  # density at the valley drops: ratio < 1


def test_mode_ratio_validation(gmm):
    with pytest.raises(ValueError):
        lab.mode_density_ratio_curve(gmm, [1.0], [0.1, 0.2], 1000)  # not critical
    with pytest.raises(ValueError):
        lab.mode_density_ratio_curve(gmm, gmm.minima[0], [0.1, 0.4], 1000,
                                     kind="minimum")  # h=0.4 inadmissible at the valley
    with pytest.raises(ValueError):
        lab.mode_density_ratio_curve(gmm, gmm.modes[0], [0.1], 1000, kind="ridge")


def test_mode_ratio_refuses_a_point_of_another_dimension():
    nrm = dataclasses.replace(lab.standard_normal_density(), sampler=_refusing_sampler)
    with pytest.raises(ValueError, match="single point of dimension 1, got 2 points"):
        lab.mode_density_ratio_curve(nrm, [0.0, 0.0], [0.1, 0.2, 0.4], n_mc=1000)


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


@pytest.mark.parametrize("n_grid", [[150.9, 400.5], [200, 400.5], [200, math.inf], [200]],
                         ids=["fractional", "one_fractional", "infinite", "single"])
def test_empirical_population_gap_refuses_a_grid_of_other_than_whole_sizes(
        gmm, gmm_spec, n_grid):
    # a fractional size is not truncated, and a grid the report would refuse
    # is refused before any sample is drawn
    unsampled = dataclasses.replace(gmm, sampler=_refusing_sampler)
    with pytest.raises(ValueError, match="n_grid must"):
        lab.empirical_population_gap(unsampled, gmm_spec, n_grid, h=0.3, n_reps=2)


@pytest.mark.parametrize("n_reps", [0, 1])
def test_empirical_population_gap_requires_two_reps(gmm, gmm_spec, n_reps):
    # one replicate has no standard error, none has no mean: refused before
    # any sample is drawn, with no RuntimeWarning on the way
    unsampled = dataclasses.replace(gmm, sampler=_refusing_sampler)
    with pytest.raises(ValueError, match="n_reps must be >= 2"):
        lab.empirical_population_gap(unsampled, gmm_spec, [200, 400], h=0.3, n_reps=n_reps)


@pytest.mark.parametrize("n_mc", [0, 1])
def test_mass_increase_curve_requires_two_samples(gmm, gmm_spec, n_mc):
    # one sample has no standard error, none has no mean: refused before
    # any sample is drawn, with no RuntimeWarning on the way
    unsampled = dataclasses.replace(gmm, sampler=_refusing_sampler)
    with pytest.raises(ValueError, match="n_mc must be >= 2"):
        lab.mass_increase_curve(unsampled, gmm_spec, [0.1, 0.2], n_mc=n_mc)


def _lab_calls_with_a_size_below_one(gmm, gmm_spec):
    """{"<function>-<size named in the error>": call} for each Monte Carlo
    size of the lab."""
    unsampled = dataclasses.replace(gmm, sampler=_refusing_sampler)
    normal = dataclasses.replace(lab.standard_normal_density(), sampler=_refusing_sampler)
    family = dataclasses.replace(lab.level_scale_family(gmm), base=unsampled)
    return {
        "empirical_population_gap-n_pop": lambda: lab.empirical_population_gap(
            unsampled, gmm_spec, [200, 400], h=0.3, n_reps=2, n_pop=0),
        "perturbation_response-n_mc": lambda: lab.perturbation_response(
            family, [0.1, 0.2], tau=0.3, probe=gmm_spec, n_mc=0),
        "mode_density_ratio_curve_valley-n_mc": lambda: lab.mode_density_ratio_curve(
            unsampled, gmm.minima[0], [0.1, 0.15], n_mc=0, kind="minimum"),
        "mode_density_ratio_curve_normal-n_mc": lambda: lab.mode_density_ratio_curve(
            normal, [0.0], [0.1, 0.2], n_mc=0),
        "multi_sweep_mode_growth-n_mc": lambda: lab.multi_sweep_mode_growth(
            unsampled, n_data=200, n_mc=0),
        "multi_sweep_mode_growth-n_data": lambda: lab.multi_sweep_mode_growth(
            unsampled, n_data=0, n_mc=1000),
    }


@pytest.mark.parametrize("case", [
    "empirical_population_gap-n_pop", "perturbation_response-n_mc",
    "mode_density_ratio_curve_valley-n_mc", "mode_density_ratio_curve_normal-n_mc",
    "multi_sweep_mode_growth-n_mc", "multi_sweep_mode_growth-n_data",
])
def test_lab_sizes_are_refused_before_the_first_draw(gmm, gmm_spec, case):
    call = _lab_calls_with_a_size_below_one(gmm, gmm_spec)[case]
    with pytest.raises(ValueError, match=f"{case.split('-')[1]} must be >= 1, got 0"):
        call()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("case", ["mass_increase_curve", "mode_density_ratio_curve",
                                  "perturbation_response"])
def test_grids_with_a_non_finite_entry_are_refused_before_the_first_draw(gmm, gmm_spec,
                                                                         case, bad):
    # a NaN compares false with every bound, so only a finiteness test stops
    # it before the admissibility guard, or before it reads as a zero response
    unsampled = dataclasses.replace(gmm, sampler=_refusing_sampler)
    family = dataclasses.replace(lab.level_scale_family(gmm), base=unsampled)
    calls = {
        "mass_increase_curve": ("h_grid", lambda: lab.mass_increase_curve(
            unsampled, gmm_spec, [0.1, bad], n_mc=1000)),
        "mode_density_ratio_curve": ("h_grid", lambda: lab.mode_density_ratio_curve(
            unsampled, gmm.modes[0], [0.05, bad], n_mc=1000)),
        "perturbation_response": ("deltas", lambda: lab.perturbation_response(
            family, [0.02, bad], tau=0.3, probe=gmm_spec, n_mc=20000, situation="sampling")),
    }
    name, call = calls[case]
    with pytest.raises(ValueError, match=f"{name} must be a finite"):
        call()


@pytest.mark.parametrize("grid", [[0.1], [0.2, 0.1], [0.0, 0.1], [[0.1, 0.2]]])
def test_step_grids_must_be_positive_and_strictly_increasing(gmm, gmm_spec, grid):
    unsampled = dataclasses.replace(gmm, sampler=_refusing_sampler)
    with pytest.raises(ValueError, match="h_grid must be a finite, positive"):
        lab.mass_increase_curve(unsampled, gmm_spec, grid, n_mc=1000)


def test_perturbation_deltas_may_start_at_zero_but_not_below(gmm, gmm_spec):
    family = dataclasses.replace(lab.level_scale_family(gmm),
                                 base=dataclasses.replace(gmm, sampler=_refusing_sampler))
    with pytest.raises(ValueError, match="deltas must be a finite, nonnegative"):
        lab.perturbation_response(family, [-0.01, 0.02], tau=0.3, probe=gmm_spec, n_mc=100)


def test_run_check_refuses_an_unknown_name():
    with pytest.raises(ValueError, match="unknown check 't3'"):
        lab.run_check("t3", 0)


@pytest.mark.parametrize("check", ["t1", "t2", "t4", "t6"])
def test_run_check_passes_every_band(check):
    # t5 runs in the benchmark and ascent through the CLI tests
    result = lab.run_check(check, 0)
    assert result["checks"] and all(v is True for v in result["checks"].values())


def test_same_sample_shift_gap_is_zero(gmm, gmm_spec):
    # the operator applied to identical clouds gives identical masses
    rng = np.random.default_rng(0)
    data = gmm.sampler(rng, 300)
    op = ShiftOperator(fit(data, 0.3))
    a = gmm_spec.contains(op.step(data)).mean()
    b = gmm_spec.contains(op.step(data.copy())).mean()
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
    rep = lab.perturbation_response(fam, [0.02, 0.04, 0.08, 0.16], tau=0.3, probe=gmm_spec,
                                    n_mc=200000, rng_seed=3, situation="sampling")
    assert 0.8 <= rep.slope <= 1.2


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


def test_scaling_report_stores_read_only_copies_of_extras_arrays():
    arr = np.arange(3)
    extras = {"arr": arr, "tag": "t"}
    rep = lab.ScalingReport("x", [1.0, 2.0], [3.0, 4.0], 0.5, 0.1, extras)
    arr[0] = 7
    extras["tag"] = "changed"
    stored = rep.extras["arr"]
    assert stored.tolist() == [0, 1, 2] and stored.dtype == arr.dtype
    assert not stored.flags.writeable
    assert rep.extras["tag"] == "t"


def test_perturbation_response_keeps_no_caller_array(gmm, gmm_spec):
    deltas = np.array([0.02, 0.04])
    rep = lab.perturbation_response(lab.level_scale_family(gmm), deltas, tau=0.3,
                                    probe=gmm_spec, n_mc=2000)
    assert rep.extras["raw_deltas"] is not deltas
    assert not rep.extras["raw_deltas"].flags.writeable
    assert rep.extras["raw_deltas"].tolist() == [0.02, 0.04]


def test_scaling_report_invariants():
    with pytest.raises(ValueError):
        lab.ScalingReport("x", [1.0, 1.0], [1.0, 2.0], 0.5, 0.1)
    with pytest.raises(ValueError):
        lab.ScalingReport("x", [1.0, 2.0], [1.0, 2.0], math.nan, 0.1)
    # the grid follows the lab's one grid rule: finite and nonnegative too
    for grid in ([1.0, math.nan], [-1.0, 2.0]):
        with pytest.raises(ValueError, match="grid must be a finite, nonnegative"):
            lab.ScalingReport("x", grid, [1.0, 2.0], 0.5, 0.1)
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


@pytest.mark.parametrize("make", [lab.standard_normal_density, lab.gmm_density])
def test_reference_densities_read_a_1d_array_as_points(make):
    dens = make()
    x = np.array([-1.0, 0.0, 1.0])
    assert np.array_equal(dens.density(x), dens.density(x[:, None]))
    assert dens.density(x).shape == (3,)
    assert np.array_equal(dens.gradient(x), dens.gradient(x[:, None]))
    assert dens.gradient(x).shape == (3, 1)
    # one point, as a scalar or a 1-element array
    assert dens.density(0.5).shape == (1,) and dens.density([0.5]).shape == (1,)
    with pytest.raises(ValueError, match="does not match model dim 1"):
        dens.density(np.zeros((3, 2)))
