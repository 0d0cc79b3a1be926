"""Shift step, convergence trace, and denoising sweep tests."""

import math

import numpy as np
import pytest

from msdenoise import density
from msdenoise import (
    AnalyticDensity,
    ShiftOperator,
    ZeroDensityError,
    denoise,
    density_at,
    empirical_step_weighted_mean,
    fit,
    shift_step,
    shift_until_converged,
)
from msdenoise.density import PointCloud


def standard_normal_1d():
    def dens(q):
        return np.exp(-0.5 * q[:, 0] ** 2) / np.sqrt(2.0 * np.pi)

    def grad(q):
        return (-q[:, 0] * dens(q))[:, None]

    return AnalyticDensity(density=dens, gradient=grad, dim=1, modes=[[0.0]])


def naive_weighted_mean(data, h, x):
    """Pure-python double loop over the kernel-weighted mean of the data."""
    n, d = data.shape
    num = [0.0] * d
    den = 0.0
    for i in range(n):
        sq = 0.0
        for j in range(d):
            sq += (x[j] - data[i, j]) ** 2
        k = math.exp(-sq / (2.0 * h * h))
        den += k
        for j in range(d):
            num[j] += data[i, j] * k
    return np.array(num) / den


def test_fixed_point_at_analytic_mode():
    op = ShiftOperator(standard_normal_1d(), tau=0.3)
    out = shift_step(op, [0.0])
    assert out[0] == 0.0


def test_single_point_model_step_lands_exactly():
    a = np.array([2.5, -1.0])
    m = fit([a], 0.7)
    x = np.array([10.0, 3.0])
    assert np.allclose(empirical_step_weighted_mean(m, x), a, atol=0)
    assert np.allclose(shift_step(ShiftOperator(m), x), a, atol=1e-12)


def test_ratio_form_equals_weighted_mean_form():
    """The two step formulas agree to 1e-10 on random empirical states."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 80))
        d = int(rng.integers(1, 4))
        data = rng.normal(scale=2.0, size=(n, d))
        h = float(rng.uniform(0.2, 1.5))
        m = fit(data, h)
        op = ShiftOperator(m)
        x = rng.normal(scale=2.0, size=(int(rng.integers(1, 6)), d))
        a = empirical_step_weighted_mean(m, x)
        b = shift_step(op, x)
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst < 1e-10, f"forms disagree by {worst}"


@pytest.mark.parametrize("d", [2, 3])
def test_weighted_mean_matches_naive_double_loop(d):
    rng = np.random.default_rng(80 + d)
    data = rng.normal(loc=2.0, size=(120, d))
    m = fit(data, 0.6)
    for x in rng.normal(loc=2.0, scale=1.5, size=(40, d)):
        ref = naive_weighted_mean(data, 0.6, x)
        got = empirical_step_weighted_mean(m, x)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batch_step_matches_single_rows_across_block_boundaries(d, monkeypatch):
    """Blocks of 3 rows with a ragged tail: every row equals its own call."""
    rng = np.random.default_rng(60 + d)
    n = 40
    data = rng.normal(size=(n, d))
    m = fit(data, 0.7)
    op = ShiftOperator(m, tau=0.5)
    q = rng.normal(size=(3 * 5 + 2, d))
    monkeypatch.setattr(density, "_BLOCK_FLOATS", 3 * n)
    wm = empirical_step_weighted_mean(m, q)
    ratio = shift_step(op, q)
    assert np.array_equal(wm, np.vstack([empirical_step_weighted_mean(m, row) for row in q]))
    assert np.array_equal(ratio, np.vstack([shift_step(op, row) for row in q]))


def test_weighted_mean_symmetric_pair_midpoint():
    m = fit([[-1.0], [1.0]], 0.8)
    assert empirical_step_weighted_mean(m, [0.0])[0] == pytest.approx(0.0, abs=1e-15)
    # off-center query moves toward the nearer point but never past it
    out = empirical_step_weighted_mean(m, [0.2])[0]
    assert 0.2 < out < 1.0


def test_operator_uses_weighted_mean_only_at_native_scale():
    m = fit(np.random.default_rng(0).normal(size=(30, 1)), 0.5)
    assert ShiftOperator(m).uses_weighted_mean
    assert ShiftOperator(m, tau=0.5).uses_weighted_mean
    assert not ShiftOperator(m, tau=0.4).uses_weighted_mean


def test_generalized_step_matches_manual_formula():
    rng = np.random.default_rng(13)
    data = rng.normal(size=(25, 2))
    m = fit(data, 0.6)
    op = ShiftOperator(m, tau=0.9)
    x = rng.normal(size=2)
    from msdenoise import gradient_at

    expect = x + 0.81 * gradient_at(m, x) / density_at(m, x)
    assert np.allclose(shift_step(op, x), expect, rtol=1e-14)


def test_converges_to_mode_and_density_is_monotone():
    rng = np.random.default_rng(21)
    data = np.concatenate([rng.normal(-3.0, 0.4, 40), rng.normal(3.0, 0.4, 40)])
    m = fit(data, 0.5)
    tr = shift_until_converged(ShiftOperator(m), [-2.4])
    assert tr.converged
    assert abs(tr.end[0] - -3.0) < 0.5
    dens = density_at(m, tr.path)
    assert np.all(np.diff(dens) >= -1e-12)


def test_analytic_normal_contracts_to_origin():
    op = ShiftOperator(standard_normal_1d(), tau=0.3)
    tr = shift_until_converged(op, [0.5], tol=1e-10)
    assert tr.converged
    assert abs(tr.end[0]) < 1e-9
    # each step multiplies the coordinate by exactly (1 - tau^2)
    ratios = tr.path[1:-1, 0] / tr.path[:-2, 0]
    assert np.allclose(ratios, 1.0 - 0.09, rtol=1e-10)


def test_single_point_model_trace_total_length():
    a = np.array([4.0])
    m = fit([a], 0.5)
    tr = shift_until_converged(ShiftOperator(m), [1.0])
    assert tr.converged
    assert tr.total_length == pytest.approx(3.0, abs=1e-12)
    assert tr.iterations == 2  # lands on the point, then a zero-length confirming step


def test_trace_accounting():
    m = fit(np.random.default_rng(3).normal(size=(50, 2)), 0.5)
    tr = shift_until_converged(ShiftOperator(m), [1.0, 1.0])
    assert tr.path.shape == (tr.iterations + 1, 2)
    assert tr.total_length == pytest.approx(tr.step_lengths.sum())
    assert np.allclose(tr.step_lengths, np.linalg.norm(np.diff(tr.path, axis=0), axis=1))


def test_max_iter_cap_returns_unconverged_trace():
    op = ShiftOperator(standard_normal_1d(), tau=0.05)
    tr = shift_until_converged(op, [3.0], tol=1e-12, max_iter=3)
    assert not tr.converged
    assert tr.iterations == 3


def test_shift_until_converged_rejects_batch():
    m = fit(np.arange(10.0), 0.5)
    with pytest.raises(ValueError):
        shift_until_converged(ShiftOperator(m), np.zeros((4, 1)))


def test_denoise_row_order_equivariant():
    rng = np.random.default_rng(17)
    data = rng.normal(size=(40, 2))
    op = ShiftOperator(fit(data, 0.5))
    perm = rng.permutation(40)
    out = denoise(data, op, sweeps=2).points
    out_perm = denoise(data[perm], op, sweeps=2).points
    assert np.array_equal(out_perm, out[perm])


def test_denoise_sweeps_compose():
    rng = np.random.default_rng(19)
    data = rng.normal(size=(30, 2))
    op = ShiftOperator(fit(data, 0.6))
    a = denoise(data, op, sweeps=3).points
    b = denoise(denoise(data, op, sweeps=1), op, sweeps=2).points
    assert np.array_equal(a, b)


def test_denoise_raises_mean_estimated_density():
    rng = np.random.default_rng(23)
    ring_t = rng.uniform(0.0, 2.0 * np.pi, 150)
    pts = np.column_stack([6.0 * np.cos(ring_t), 6.0 * np.sin(ring_t)])
    pts += rng.normal(scale=1.0, size=pts.shape)
    m = fit(pts, 1.0)
    op = ShiftOperator(m)
    before = density_at(m, pts).mean()
    after = density_at(m, denoise(pts, op, sweeps=3).points).mean()
    assert after > before


def test_denoise_validates_arguments():
    m = fit(np.arange(10.0), 0.5)
    with pytest.raises(ValueError):
        denoise(np.arange(10.0), ShiftOperator(m), sweeps=0)
    with pytest.raises(ValueError):
        denoise(np.zeros((5, 2)), ShiftOperator(m), sweeps=1)


def test_zero_density_raises_with_point_index():
    m = fit([[0.0]], 0.1)
    batch = np.array([[0.05], [5000.0]])
    with pytest.raises(ZeroDensityError) as exc:
        empirical_step_weighted_mean(m, batch)
    assert exc.value.index == 1
    with pytest.raises(ZeroDensityError):
        shift_step(ShiftOperator(m), [5000.0])


def test_zero_density_index_in_later_block():
    rng = np.random.default_rng(5)
    n = 1000
    m = fit(rng.normal(size=(n, 1)), 0.1)
    rows_per_block = density._BLOCK_FLOATS // n
    assert 77 >= 2 * rows_per_block  # row 77 lies past the first two blocks
    batch = rng.normal(size=(100, 1))
    batch[77] = 5000.0
    with pytest.raises(ZeroDensityError) as exc:
        empirical_step_weighted_mean(m, batch)
    assert exc.value.index == 77
    with pytest.raises(ZeroDensityError) as exc:
        shift_step(ShiftOperator(m), batch)
    assert exc.value.index == 77


def test_monotone_ascent_property():
    """Weighted-mean steps never decrease the estimated density (1000 random states)."""
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(3, 50))
        d = int(rng.integers(1, 4))
        data = rng.normal(scale=1.5, size=(n, d))
        m = fit(data, float(rng.uniform(0.2, 1.5)))
        probes = rng.normal(scale=2.0, size=(10, d))
        stepped = empirical_step_weighted_mean(m, probes)
        assert np.all(density_at(m, stepped) >= density_at(m, probes) - 1e-12)


def test_trace_length_invariant_under_rigid_motion():
    rng = np.random.default_rng(31)
    data = rng.normal(size=(60, 2))
    x0 = rng.normal(size=2)
    theta = 0.83
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    shiftv = np.array([5.0, -2.0])
    tr1 = shift_until_converged(ShiftOperator(fit(data, 0.5)), x0, tol=1e-9)
    tr2 = shift_until_converged(ShiftOperator(fit(data @ rot.T + shiftv, 0.5)), rot @ x0 + shiftv, tol=1e-9)
    assert tr2.total_length == pytest.approx(tr1.total_length, rel=1e-7, abs=1e-9)


def test_operator_validation():
    with pytest.raises(ValueError):
        ShiftOperator(standard_normal_1d())  # analytic source needs explicit tau
    m = fit(np.arange(10.0), 0.5)
    with pytest.raises(ValueError):
        ShiftOperator(m, tau=-0.1)
    with pytest.raises(ValueError):
        ShiftOperator(m, c=0.0)
    with pytest.raises(ValueError):
        shift_until_converged(ShiftOperator(standard_normal_1d(), tau=0.3), [1.0])  # analytic needs tol


def test_default_tolerance_tracks_data_scale():
    rng = np.random.default_rng(37)
    base = rng.normal(size=(50, 1))
    for scale in (1.0, 1000.0):
        m = fit(base * scale, 0.4 * scale)
        tr = shift_until_converged(ShiftOperator(m), [0.5 * scale])
        assert tr.converged
        # final step below the scale-aware tolerance
        assert tr.step_lengths[-1] < 1e-7 * (base * scale).std(ddof=1)


def test_immutability_of_inputs():
    rng = np.random.default_rng(41)
    data = rng.normal(size=(20, 2))
    snapshot = data.copy()
    cloud = PointCloud(data)
    op = ShiftOperator(fit(cloud, 0.5))
    denoise(cloud, op, sweeps=2)
    shift_until_converged(op, data[0])
    assert np.array_equal(data, snapshot)
    assert np.array_equal(cloud.points, snapshot)
