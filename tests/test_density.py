"""Density estimation tests: frozen hand values, independent oracles, invariants."""

import math
import os

import numpy as np
import pytest

from msdenoise import density
from msdenoise import (
    DensityModel,
    KernelSpec,
    PointCloud,
    density_at,
    fit,
    gradient_at,
    select_bandwidth_normal_scale,
    select_bandwidth_scv,
    standardize,
)


def naive_density(data, h, x):
    """Pure-python double loop over the defining sum; the reference oracle."""
    n, d = data.shape
    total = 0.0
    for i in range(n):
        sq = 0.0
        for j in range(d):
            sq += (x[j] - data[i, j]) ** 2
        total += math.exp(-sq / (2.0 * h * h))
    return total * (2.0 * math.pi) ** (-d / 2.0) / (n * h**d)


def naive_gradient(data, h, x):
    """Pure-python double loop over the defining gradient sum."""
    n, d = data.shape
    total = [0.0] * d
    for i in range(n):
        sq = 0.0
        for j in range(d):
            sq += (x[j] - data[i, j]) ** 2
        k = math.exp(-sq / (2.0 * h * h))
        for j in range(d):
            total[j] += (data[i, j] - x[j]) * k
    scale = (2.0 * math.pi) ** (-d / 2.0) / (n * h ** (d + 2))
    return np.array(total) * scale


def test_density_at_own_center_single_point():
    # one data point, h=1, query at the point: (2 pi)^-1/2
    m = fit([[0.0]], 1.0)
    assert np.isclose(density_at(m, [0.0]), (2.0 * math.pi) ** -0.5, rtol=0, atol=1e-15)


def test_density_matches_naive_double_loop():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(100, 2))
    m = fit(data, 0.5)
    for x in rng.normal(size=(20, 2)):
        ref = naive_density(data, 0.5, x)
        got = density_at(m, x)
        assert abs(got - ref) <= 1e-12 * ref


@pytest.mark.parametrize("d", [2, 3])
def test_gradient_matches_naive_double_loop(d):
    rng = np.random.default_rng(70 + d)
    data = rng.normal(size=(120, d))
    m = fit(data, 0.6)
    checked = 0
    for x in rng.normal(scale=1.5, size=(40, d)):
        ref = naive_gradient(data, 0.6, x)
        if np.linalg.norm(ref) < 1e-4:  # near-critical: relative error ill-posed
            continue
        got = gradient_at(m, x)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batch_matches_single_queries_across_block_boundaries(d, monkeypatch):
    """Blocks of 3 rows with a ragged tail: every row equals its own call."""
    rng = np.random.default_rng(50 + d)
    n = 40
    data = rng.normal(size=(n, d))
    m = fit(data, 0.7)
    q = rng.normal(size=(3 * 5 + 2, d))
    monkeypatch.setattr(density, "_BLOCK_FLOATS", 3 * n)
    batch = density_at(m, q)
    gbatch = gradient_at(m, q)
    assert np.array_equal(batch, np.array([density_at(m, row) for row in q]))
    assert np.array_equal(gbatch, np.vstack([gradient_at(m, row) for row in q]))


def test_batch_matches_single_queries_exactly():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(60, 3))
    m = fit(data, 0.8)
    q = rng.normal(size=(25, 3))
    batch = density_at(m, q)
    singles = np.array([density_at(m, row) for row in q])
    assert np.array_equal(batch, singles)
    gbatch = gradient_at(m, q)
    gsingles = np.vstack([gradient_at(m, row) for row in q])
    assert np.array_equal(gbatch, gsingles)


def test_far_query_is_nonnegative_and_finite():
    m = fit([[0.0]], 0.1)
    val = density_at(m, [1e6])
    assert val >= 0.0 and np.isfinite(val)


def test_gradient_zero_at_symmetric_midpoint():
    m = fit([[-1.0], [1.0]], 0.7)
    assert gradient_at(m, [0.0]) == pytest.approx(0.0, abs=1e-15)


def test_gradient_single_point_pulls_toward_it():
    m = fit([[2.0, -1.0]], 0.9)
    x = np.array([0.5, 0.5])
    g = gradient_at(m, x)
    direction = np.array([2.0, -1.0]) - x
    assert np.dot(g, direction) > 0.0
    # gradient is exactly parallel to (a - x) for a single data point
    cos = np.dot(g, direction) / (np.linalg.norm(g) * np.linalg.norm(direction))
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_gradient_matches_central_finite_differences():
    """100 random probes across random models, relative error < 1e-5."""
    rng = np.random.default_rng(11)
    step = 1e-5
    checked = 0
    while checked < 100:
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 4))
        data = rng.normal(scale=1.5, size=(n, d))
        m = fit(data, float(rng.uniform(0.3, 1.2)))
        x = rng.normal(scale=1.5, size=d)
        g = gradient_at(m, x)
        if np.linalg.norm(g) < 1e-4:  # skip near-critical probes where relative error is ill-posed
            continue
        fd = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = step
            fd[j] = (density_at(m, x + e) - density_at(m, x - e)) / (2.0 * step)
        rel = np.linalg.norm(fd - g) / np.linalg.norm(g)
        assert rel < 1e-5, f"relative FD mismatch {rel}"
        checked += 1


def test_density_integrates_to_one_1d():
    rng = np.random.default_rng(5)
    m = fit(rng.normal(size=80), 0.4)
    xs = np.linspace(-8.0, 8.0, 4001)
    integral = np.trapezoid(density_at(m, xs), xs)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_density_integrates_to_one_2d():
    rng = np.random.default_rng(6)
    m = fit(rng.normal(size=(40, 2)), 0.5)
    xs = np.linspace(-6.0, 6.0, 201)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    vals = density_at(m, grid).reshape(201, 201)
    integral = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_repeat_evaluation_bit_identical():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(200, 2))
    q = rng.normal(size=(50, 2))
    m = fit(data, 0.6)
    assert np.array_equal(density_at(m, q), density_at(m, q))
    assert np.array_equal(gradient_at(m, q), gradient_at(m, q))


def test_fit_rejects_bad_bandwidth():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            fit([[0.0], [1.0]], bad)


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        PointCloud(np.empty((0, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 2, 2)))


def test_point_cloud_is_immutable():
    pc = PointCloud([[1.0, 2.0]])
    with pytest.raises(ValueError):
        pc.points[0, 0] = 5.0


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(family="tophat")
    with pytest.raises(ValueError):
        KernelSpec(c=2.0)
    assert KernelSpec().c == 1.0


def test_query_dimension_mismatch():
    m = fit(np.zeros((3, 2)), 1.0)
    with pytest.raises(ValueError):
        density_at(m, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        gradient_at(m, np.zeros((4, 3)))


def test_normal_scale_closed_form():
    # unit sample sd, n=100, d=1: h = (4/3)^(1/5) * 100^(-1/5)
    x = np.arange(100, dtype=float)
    x = (x - x.mean()) / x.std(ddof=1)
    h = select_bandwidth_normal_scale(x)
    assert h == pytest.approx((4.0 / 3.0) ** 0.2 * 100 ** -0.2, rel=1e-12)


def test_normal_scale_scale_equivariant():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(150, 3))
    h1 = select_bandwidth_normal_scale(data)
    h2 = select_bandwidth_normal_scale(data * 10.0)
    assert h2 == pytest.approx(10.0 * h1, rel=1e-12)


def test_normal_scale_rejects_degenerate_coordinate():
    data = np.column_stack([np.arange(5.0), np.ones(5)])
    with pytest.raises(ValueError):
        select_bandwidth_normal_scale(data)


def test_scv_within_factor_two_of_normal_scale():
    z = np.random.default_rng(1).normal(size=500)
    h = select_bandwidth_scv(z)
    h_ns = select_bandwidth_normal_scale(z)
    assert h_ns / 2.0 < h < h_ns * 2.0


def test_scv_scale_equivariant():
    z = np.random.default_rng(4).normal(size=200)
    h1 = select_bandwidth_scv(z)
    h2 = select_bandwidth_scv(z * 7.0)
    assert h2 == pytest.approx(7.0 * h1, rel=1e-6)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("offset", [1e4, 1e8])
def test_scv_translation_invariant(d, offset):
    z = np.random.default_rng(1).normal(size=(200, d))
    assert select_bandwidth_scv(z + offset) == pytest.approx(select_bandwidth_scv(z), rel=1e-6)


def naive_scv_score(data, g, h):
    """Pure-python double loop over all ordered pairs, i = j included."""
    n, d = data.shape

    def phi(v, sq):
        return (2.0 * math.pi * v) ** (-d / 2.0) * math.exp(-sq / (2.0 * v))

    total = 0.0
    for i in range(n):
        for j in range(n):
            sq = sum((data[i, k] - data[j, k]) ** 2 for k in range(d))
            total += phi(2 * h * h + 2 * g * g, sq) - 2.0 * phi(h * h + 2 * g * g, sq) + phi(2 * g * g, sq)
    return (4.0 * math.pi) ** (-d / 2.0) / (n * h**d) + total / (n * n)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_scv_criterion_matches_naive_double_loop(monkeypatch, d):
    # 66 pairs in blocks of 7: nine full blocks and a partial last one
    monkeypatch.setattr(density, "_BLOCK_FLOATS", 7)
    data = np.random.default_rng(20 + d).normal(size=(12, d))
    g = select_bandwidth_normal_scale(data)
    hs = [g / 3.0, g, 3.0 * g]
    got = density._scv_criterion_factory(data, g)(hs)
    for h, value in zip(hs, got):
        assert value == pytest.approx(naive_scv_score(data, g, h), rel=1e-10)


def test_scv_requires_ten_points():
    with pytest.raises(ValueError):
        select_bandwidth_scv(np.arange(9.0))


def test_scv_rejects_degenerate_data():
    with pytest.raises(ValueError):
        select_bandwidth_scv(np.zeros((20, 1)))


_SEEDS_CSV = os.environ.get("MSDENOISE_SEEDS_CSV", os.path.join(os.path.dirname(__file__), "data", "seeds.csv"))


@pytest.mark.skipif(not os.path.exists(_SEEDS_CSV), reason="seeds dataset not available locally")
def test_scv_on_seeds_dataset_loose():
    """Published reference value for this dataset is 0.613; allow factor 2."""
    from msdenoise.cli import load_dataset

    cloud = load_dataset("seeds", _SEEDS_CSV)
    h = select_bandwidth_scv(cloud)
    assert 0.613 / 2.0 < h < 0.613 * 2.0


def test_standardize_frozen_two_point_values():
    # {0, 2}: mean 1, sample sd sqrt(2) -> +-1/sqrt(2)
    out, t = standardize(np.array([0.0, 2.0]))
    assert out.points[:, 0] == pytest.approx([-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], rel=1e-14)
    assert t.mean[0] == pytest.approx(1.0)
    assert t.scale[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_standardize_roundtrip_and_unit_spread():
    rng = np.random.default_rng(8)
    data = rng.normal(loc=[3.0, -2.0, 0.5], scale=[2.0, 0.1, 5.0], size=(40, 3))
    out, t = standardize(data)
    assert np.allclose(out.points.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.points.std(axis=0, ddof=1), 1.0, rtol=1e-12)
    back = t.invert(out)
    assert np.allclose(back.points, data, atol=1e-12)
    # standardizing standardized data is the identity map
    out2, t2 = standardize(out)
    assert np.allclose(out2.points, out.points, atol=1e-12)
    assert np.allclose(t2.scale, 1.0, rtol=1e-12)


def test_standardize_rejects_degenerate():
    with pytest.raises(ValueError):
        standardize(np.column_stack([np.arange(6.0), np.full(6, 3.0)]))


def test_model_accepts_raw_arrays():
    m = fit(np.arange(10.0), 0.5)
    assert isinstance(m, DensityModel)
    assert m.dim == 1
