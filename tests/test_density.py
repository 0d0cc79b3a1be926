"""Density estimation tests: frozen hand values, independent oracles, invariants."""

import dataclasses
import math
import os

import numpy as np
import pytest

from msdenoise import density
from msdenoise import (
    DensityModel,
    PointCloud,
    density_at,
    fit,
    gradient_at,
    select_bandwidth_normal_scale,
    select_bandwidth_scv,
    standardize,
)
from msdenoise.synthetic import gen_gmm_1d


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


@pytest.mark.parametrize("rows", [1, 5, 20, 131])
@pytest.mark.parametrize("n", [0, 1, 10, 127, 128, 1000, 8191, 8192, 20000])
def test_differences_match_broadcast_subtraction(n, rows):
    """The streamed subtraction of `_by_column` gives the bits of ``row - q``,
    for a contiguous data row and a strided one (a column of an (n, d)
    array), with no data at all too, and leaves numpy's buffer size as it
    found it."""
    rng = np.random.default_rng(1000 * n + rows)
    data = rng.normal(size=(n, 2)) * np.exp(rng.uniform(-20.0, 20.0, size=(n, 2)))
    q = rng.normal(size=rows) * 1e3
    before = np.getbufsize()
    for row in (np.ascontiguousarray(data[:, 0]), data[:, 1]):
        out = np.full((rows, n), np.nan)
        density._by_column(np.subtract, row, q, out)
        assert np.array_equal(out, row[None, :] - q[:, None])
        assert np.getbufsize() == before


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 257])
def test_pair_sq_distances_match_scipy(d, offset):
    """The pair matrix, filled in uneven row blocks, has the bits of scipy's
    squared distances, and its roots those of scipy's distances."""
    from scipy.spatial.distance import pdist, squareform

    x = np.random.default_rng(d).normal(size=(300, d)) + offset
    sq = density._pair_sq_distances(x)
    assert np.array_equal(sq, squareform(pdist(x, "sqeuclidean")))
    assert np.array_equal(np.sqrt(sq), squareform(pdist(x)))


@pytest.mark.parametrize("n", [1, 1000, 8192, 8193, 12345, 40000])
def test_row_sums_are_per_row_and_accurate(n):
    """`_row_sums` of a block equals each row's own call and the exact sum."""
    rng = np.random.default_rng(n)
    buf = rng.random(5 * n + 1)
    w = buf[1:].reshape(5, n)  # rows start at every alignment
    x = rng.normal(size=n)

    def rows_of(other, sl):
        return other if other is None or other.ndim == 1 else other[sl]

    for other in (None, x, w[::-1].copy()):
        got = density._row_sums(w, other)
        rows = [density._row_sums(w[i : i + 1], rows_of(other, slice(i, i + 1)))[0]
                for i in range(5)]
        assert np.array_equal(got, rows)
        # a row reduces the same wherever the block starts
        assert np.array_equal(density._row_sums(w[1:], rows_of(other, slice(1, None))), got[1:])
        prods = w if other is None else w * other
        exact = [math.fsum(row) for row in prods]
        assert np.allclose(got, exact, rtol=1e-13, atol=1e-13 * np.abs(prods).sum(axis=1).max())


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


def _stored_arrays():
    """(type name, build) for every public type that stores an array.

    `build()` returns the instance, and the caller's arrays it was given
    keyed by the name of the field that stores each.
    """
    from msdenoise import theory_lab as lab
    from msdenoise.anomaly import AnomalyReport
    from msdenoise.clustering import LabelSet
    from msdenoise.shift import AnalyticDensity, ShiftTrace
    from msdenoise.synthetic import LabeledCloud
    from msdenoise.twosample import PowerCurve

    nrm = lab.standard_normal_density()
    level = float(nrm.density(np.array([[1.0]]))[0])

    def build(make, **given):
        return make(**given), given

    return [
        ("PointCloud", lambda: build(PointCloud, points=np.ones((3, 2)))),
        ("AnalyticDensity", lambda: build(
            lambda **a: AnalyticDensity(nrm.density, nrm.gradient, 1, **a),
            modes=np.zeros((1, 1)), minima=np.ones((2, 1)))),
        ("ShiftTrace", lambda: build(lambda **a: ShiftTrace(converged=True, **a),
                                     path=np.zeros((3, 2)))),
        ("LabeledCloud", lambda: build(
            lambda **a: LabeledCloud(PointCloud(np.zeros((3, 1))), **a),
            labels=np.array([0, 1, 1], dtype=np.int64))),
        ("LabelSet", lambda: build(lambda **a: LabelSet(k=2, **a),
                                   labels=np.array([0, 1, 1], dtype=np.int64))),
        ("AnomalyReport", lambda: build(
            AnomalyReport, scores=np.array([0.5, 2.0]), converged=np.array([True, False]))),
        ("PowerCurve", lambda: build(
            lambda **a: PowerCurve(n_reps=4, test="energy", alpha=0.05, **a),
            grid=np.array([0.0, 1.0]), power_before=np.array([0.0, 0.5]),
            power_after=np.array([0.25, 1.0]))),
        ("ScalingReport", lambda: build(
            lambda **a: lab.ScalingReport("x", slope=1.0, slope_halfwidth=0.1, **a),
            grid=np.array([1.0, 2.0]), values=np.array([3.0, 4.0]))),
        ("LevelSetSpec", lambda: build(
            lambda **a: lab.LevelSetSpec(nrm.density, level, **a),
            boundary_points=np.array([[-1.0], [1.0]]))),
    ]


@pytest.mark.parametrize("name", [name for name, _ in _stored_arrays()])
def test_public_types_store_read_only_copies(name):
    obj, given = dict(_stored_arrays())[name]()
    for field, arr in given.items():
        stored = getattr(obj, field)
        assert arr.flags.writeable, f"{name}.{field} froze the caller's array"
        assert not stored.flags.writeable, f"{name}.{field} is writeable"
        assert not np.shares_memory(stored, arr), f"{name}.{field} keeps the caller's array"
        assert np.array_equal(stored.ravel(), arr.ravel())


def _point_entry_points():
    """(name, call) for every public function that takes a sample of points."""
    from msdenoise import theory_lab as lab
    from msdenoise.anomaly import anomaly_scores
    from msdenoise.clustering import hierarchical, kmeans, spectral
    from msdenoise.shift import ShiftOperator, denoise
    from msdenoise.twosample import energy_statistic, mmd2_biased, msd_pipeline, permutation_test

    good = np.random.default_rng(0).normal(size=(12, 2))
    model = fit(good, 1.0)
    return [
        ("fit", lambda x: fit(x, 1.0)),
        ("denoise", lambda x: denoise(x, ShiftOperator(model))),
        ("select_bandwidth_normal_scale", select_bandwidth_normal_scale),
        ("select_bandwidth_scv", select_bandwidth_scv),
        ("standardize", standardize),
        ("kmeans", lambda x: kmeans(x, 2)),
        ("spectral", lambda x: spectral(x, 2)),
        ("hierarchical", lambda x: hierarchical(x, 2)),
        ("energy_statistic", lambda x: energy_statistic(good, x)),
        ("mmd2_biased", lambda x: mmd2_biased(x, good)),
        ("permutation_test", lambda x: permutation_test("energy", x, good, n_perm=99)),
        ("msd_pipeline", msd_pipeline),
        ("anomaly_scores", lambda x: anomaly_scores(x, model)),
        ("geometric_density_at", lambda x: lab.geometric_density_at(x, [0.0, 0.0], 1.0)),
        ("monotone_ascent_audit", lambda x: lab.monotone_ascent_audit(model, x)),
        ("LevelSetSpec.contains", lambda x: lab.LevelSetSpec(lambda q: q[:, 0], 1.0).contains(x)),
    ]


@pytest.mark.parametrize("case", ["nan_row", "empty"])
@pytest.mark.parametrize("name", [name for name, _ in _point_entry_points()])
def test_point_entry_points_reject_bad_samples(name, case):
    call = dict(_point_entry_points())[name]
    if case == "empty":
        bad = np.empty((0, 2))
    else:
        bad = np.random.default_rng(1).normal(size=(12, 2))
        bad[4] = np.nan
    with pytest.raises(ValueError):
        call(bad)


def test_points_reads_a_cloud_or_an_array_where_it_lies():
    cloud = PointCloud([[1.0, 2.0], [3.0, 4.0]])
    assert density._points(cloud) is cloud.points
    assert fit(cloud, 1.0).data is cloud
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.shares_memory(density._points(x), x)
    assert density._points([[1.0, 2.0]]).shape == (1, 2)
    assert density._points(np.arange(3.0)).shape == (3, 1)


def _strided(x):
    """`x` as a view whose rows are not adjacent in memory."""
    view = np.repeat(x, 2, axis=0)[::2]
    assert not view.flags.c_contiguous and np.array_equal(view, x)
    return view


def _bits(result):
    """A result's numbers as bytes, field by field for a dataclass."""
    if dataclasses.is_dataclass(result):
        return [_bits(v) for v in vars(result).values()]
    return None if result is None else np.asarray(result).tobytes()


@pytest.mark.parametrize("name", [name for name, _ in _point_entry_points()])
def test_point_entry_points_read_the_caller_array_without_writing_it(name):
    call = dict(_point_entry_points())[name]
    x = np.random.default_rng(3).normal(size=(12, 2))
    before = x.copy()
    result = call(x)
    assert x.flags.writeable and np.array_equal(x, before)
    assert _bits(call(_strided(x))) == _bits(result)


def test_fit_selects_scv_by_name():
    x = np.random.default_rng(4).normal(size=(200, 2))
    assert fit(x, "scv").bandwidth == select_bandwidth_scv(x)


@pytest.mark.parametrize("value", [1.5, math.nan, math.inf, "3", "SCV", None])
def test_count_refuses_what_is_not_a_whole_number_by_name(value):
    with pytest.raises(ValueError, match=r"sweeps must be >= 1, got "):
        density._count(value, "sweeps")


def test_count_takes_a_whole_number_from_its_floor():
    assert density._count(2.0, "n") == 2 and type(density._count(np.int64(7), "n")) is int
    assert density._count(0, "seed", 0) == 0
    with pytest.raises(ValueError, match=r"n_perm must be >= 99, got 98"):
        density._count(98, "n_perm", 99)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, "SCV", None])
def test_positive_refuses_by_name(value):
    with pytest.raises(ValueError, match=r"^bandwidth must be (a )?positive"):
        density._positive(value, "bandwidth")
    with pytest.raises(ValueError, match=r"^bandwidth must be (a )?positive"):
        fit(np.zeros((3, 1)), value)


def test_query_dimension_mismatch():
    m = fit(np.zeros((3, 2)), 1.0)
    with pytest.raises(ValueError):
        density_at(m, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        gradient_at(m, np.zeros((4, 3)))


def test_scalar_query_is_one_point_in_1d_only():
    m1 = fit([[0.0], [1.0], [3.0]], 0.7)
    assert density._as_queries(0.5, 1)[1] is True
    assert density_at(m1, 0.5) == density_at(m1, [0.5])
    assert gradient_at(m1, np.float64(0.5)).tolist() == gradient_at(m1, [0.5]).tolist()
    m2 = fit(np.zeros((3, 2)), 1.0)
    with pytest.raises(ValueError, match="scalar query only valid for 1-D models"):
        density_at(m2, 0.5)


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
    # finite data whose variance overflows: an error naming the data, not
    # h = inf, and no RuntimeWarning
    with pytest.raises(ValueError, match="of the data has a spread that overflows"):
        select_bandwidth_normal_scale(np.linspace(0.0, 1e200, 3))


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


def exact_scv_criterion(points, g):
    """Exact smoothed CV scores over the n(n-1)/2 pair distances; the oracle."""
    n, d = points.shape
    upper = np.triu_indices(n, 1)
    tri = sum(np.square(points[:, k, None] - points[None, :, k]) for k in range(d))[upper]

    def pair_sums(variances):
        return np.array([(2.0 * math.pi * v) ** (-0.5 * d) * (n + 2.0 * np.exp(tri * (-0.5 / v)).sum())
                         for v in variances])

    return density._scv_score(pair_sums, n, d, g)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_scv_criterion_matches_naive_double_loop(d):
    data = np.random.default_rng(20 + d).normal(size=(12, d))
    g = select_bandwidth_normal_scale(data)
    hs = [g / 3.0, g, 3.0 * g]
    got = exact_scv_criterion(data, g)(hs)
    for h, value in zip(hs, got):
        assert value == pytest.approx(naive_scv_score(data, g, h), rel=1e-10)


@pytest.mark.parametrize("block", [7, 100, density._BLOCK_FLOATS])
@pytest.mark.parametrize("d", [2, 3])
def test_distance_counts_match_direct_binning(monkeypatch, d, block):
    """Blocked counts equal linear binning of the full ordered-pair distance matrix."""
    monkeypatch.setattr(density, "_BLOCK_FLOATS", block)
    rng = np.random.default_rng(40 + d)
    points = np.vstack([rng.normal(size=(60, d)), rng.normal(size=(13, d)) * 5.0 + 3.0])
    points = np.vstack([points, points[:9]])  # duplicated rows: distance 0 off the diagonal
    delta = 0.07
    dist = np.sqrt(sum(np.square(points[:, k, None] - points[None, :, k]) for k in range(d))).ravel()
    pos = dist / delta
    left = np.floor(pos).astype(np.intp)
    frac = pos - left
    m = left.max() + 2
    ref = np.bincount(left, 1.0 - frac, m) + np.bincount(left + 1, frac, m)
    got = density._distance_counts(points, delta)
    np.testing.assert_allclose(got, np.trim_zeros(ref, "b"), rtol=1e-12, atol=1e-9)
    assert got[0] >= len(points) + 2 * 9
    assert got.sum() == pytest.approx(len(points) ** 2, rel=1e-14)


def test_distance_counts_take_no_empty_block(monkeypatch):
    """The last row block has no later rows to be counted against."""
    shapes = []
    sq_distances = density._sq_distances

    def spy(out, scratch, cols, q):
        shapes.append(out.shape)
        sq_distances(out, scratch, cols, q)

    monkeypatch.setattr(density, "_sq_distances", spy)
    select_bandwidth_scv(np.random.default_rng(41).normal(size=(600, 2)))
    assert len(shapes) == 13 and min(min(s) for s in shapes) > 0


def _binned_scv_inputs():
    rng = np.random.default_rng(30)
    return {
        "gmm": gen_gmm_1d(1000, rng_seed=31).points[:, 0],
        "outlier": np.append(rng.normal(size=500), 1e4),
        "cauchy": rng.standard_cauchy(1000),
        "duplicates": np.repeat(rng.normal(size=100), 3),
        "n10": rng.normal(size=10),
    }


@pytest.mark.parametrize("name", ["gmm", "outlier", "cauchy", "duplicates", "n10"])
def test_scv_binned_criterion_matches_exact(name):
    x = _binned_scv_inputs()[name][:, None]
    g = select_bandwidth_normal_scale(x)
    grid = np.geomspace(g / 10.0, g * 10.0, density._SCV_GRID)
    binned = density._scv_binned_criterion_factory(x, g)(grid)
    np.testing.assert_allclose(binned, exact_scv_criterion(x, g)(grid), rtol=1e-5, atol=0)


@pytest.mark.parametrize("name", ["gmm", "outlier", "cauchy", "duplicates", "n10"])
def test_scv_binned_selection_matches_exact(monkeypatch, name):
    x = _binned_scv_inputs()[name]
    binned = select_bandwidth_scv(x)
    monkeypatch.setattr(density, "_scv_binned_criterion_factory", exact_scv_criterion)
    assert binned == pytest.approx(select_bandwidth_scv(x), rel=2e-6)


def t2_outlier_mixture(n, d, seed):
    """Two gaussian clusters plus a tenth of the rows from a t distribution with 2 dof."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d))
    points[: n // 2, 0] += 4.0
    points[: n // 10] = rng.standard_t(2, size=(n // 10, d)) * 3.0
    return points


@pytest.mark.parametrize("d", [2, 3, 5])
def test_scv_distance_binned_criterion_matches_exact(d):
    x = t2_outlier_mixture(400, d, seed=50 + d)
    g = select_bandwidth_normal_scale(x)
    grid = np.geomspace(g / 10.0, g * 10.0, density._SCV_GRID)
    binned = density._scv_binned_criterion_factory(x, g)(grid)
    np.testing.assert_allclose(binned, exact_scv_criterion(x, g)(grid), rtol=1e-5, atol=0)


def _distance_binned_scv_inputs(name):
    from msdenoise.synthetic import _generate_case

    if name == "t2-mixture-3d":
        return t2_outlier_mixture(900, 3, seed=61)
    return _generate_case(name, np.random.default_rng(60)).cloud.points


@pytest.mark.parametrize("name", ["bullseye1", "spiral4", "t2-mixture-3d"])
def test_scv_distance_binned_selection_matches_exact(monkeypatch, name):
    x = _distance_binned_scv_inputs(name)
    binned = select_bandwidth_scv(x)
    monkeypatch.setattr(density, "_scv_binned_criterion_factory", exact_scv_criterion)
    assert binned == pytest.approx(select_bandwidth_scv(x), rel=2e-6)


def _peak_traced_bytes(f, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scv_binned_memory_at_20k_points():
    # the exact criterion would hold n(n-1)/2 floats, 1.6 GB here
    x = np.random.default_rng(32).normal(size=20_000)
    h, peak = _peak_traced_bytes(select_bandwidth_scv, x)
    assert peak < 50e6
    assert select_bandwidth_normal_scale(x) / 2.0 < h < select_bandwidth_normal_scale(x) * 2.0


def test_scv_distance_binned_memory_at_20k_points():
    # a condensed array of the pair distances would be 1.6 GB here; the
    # blocked counts hold three block buffers and the grid counts
    x = np.random.default_rng(32).normal(size=(20_000, 2))
    h, peak = _peak_traced_bytes(select_bandwidth_scv, x)
    assert peak < 10e6
    assert select_bandwidth_normal_scale(x) / 2.0 < h < select_bandwidth_normal_scale(x) * 2.0


def test_scv_requires_ten_points():
    with pytest.raises(ValueError):
        select_bandwidth_scv(np.arange(9.0))


def test_scv_rejects_degenerate_data():
    with pytest.raises(ValueError):
        select_bandwidth_scv(np.zeros((20, 1)))
    # an overflowing spread: an error naming the data, not h = nan
    with pytest.raises(ValueError, match="of the data has a spread that overflows"):
        select_bandwidth_scv(np.linspace(0.0, 1e200, 20))


_SEEDS_CSV = os.environ.get("MSDENOISE_SEEDS_CSV", os.path.join(os.path.dirname(__file__), "data", "seeds.csv"))


@pytest.mark.skipif(not os.path.exists(_SEEDS_CSV), reason="seeds dataset not available locally")
def test_scv_on_seeds_dataset_loose():
    """Published reference value for this dataset is 0.613; allow factor 2."""
    from msdenoise.cli import load_dataset

    cloud, _ = load_dataset("seeds", _SEEDS_CSV)
    h = select_bandwidth_scv(cloud)
    assert 0.613 / 2.0 < h < 0.613 * 2.0


def test_standardize_frozen_two_point_values():
    # {0, 2}: mean 1, sample sd sqrt(2) -> +-1/sqrt(2)
    out = standardize(np.array([0.0, 2.0]))
    assert out.points[:, 0] == pytest.approx([-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], rel=1e-14)


def test_standardize_unit_spread_and_idempotent():
    rng = np.random.default_rng(8)
    data = rng.normal(loc=[3.0, -2.0, 0.5], scale=[2.0, 0.1, 5.0], size=(40, 3))
    out = standardize(data)
    assert np.allclose(out.points.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.points.std(axis=0, ddof=1), 1.0, rtol=1e-12)
    # standardizing standardized data is the identity map
    assert np.allclose(standardize(out).points, out.points, atol=1e-12)


def test_standardize_rejects_degenerate():
    with pytest.raises(ValueError):
        standardize(np.column_stack([np.arange(6.0), np.full(6, 3.0)]))
    # a spread that overflows is no scale either
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflows"):
        standardize(np.array([0.0, 1e200]))


def test_model_accepts_raw_arrays():
    m = fit(np.arange(10.0), 0.5)
    assert isinstance(m, DensityModel)
    assert m.dim == 1
