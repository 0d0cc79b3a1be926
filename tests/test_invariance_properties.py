"""Property tests of the invariances the mean shift maths promises.

`denoise` under a fixed operator moves each query row on its own, so
reordering the queries reorders the output bit for bit.  Reordering the
data rows, or translating or rotating data and queries together, changes
only the order and rounding of the kernel sums, so those agree to a stated
tolerance; so do the path-length anomaly scores under data translation and
row order, whose ranking is the same up to tied scores.  The normal-scale
bandwidth is translation and row-permutation invariant and
scale equivariant.  k-means labels do not move when the sample is
translated by up to 1e8.  Examples are derandomized so every run checks the same
cases.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from msdenoise import (  # noqa: E402
    ShiftOperator,
    anomaly_scores,
    denoise,
    fit,
    kmeans,
    select_bandwidth_normal_scale,
)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# Translating by up to 1e4 rounds the query-datum differences at about
# 1e4 * 2^-52; with the bandwidths drawn here the shifted points agree to
# 1e-12 of their coordinates (worst seen 1.5e-11 absolute at |offset| 1e4).
SHIFT_RTOL = 1e-12
# Anomaly scores sum the step lengths of each path under an absolute
# tolerance; translation and data row order change only the rounding of the
# steps (worst seen 5.4e-12 at |offset| 1e4), so scores agree to 1e-9 and the
# ranking is the same up to the order of tied scores.
ANOMALY_TOL = 1e-6
ANOMALY_RTOL = 1e-9
# The normal-scale rule centres each coordinate before taking the spread,
# which loses |offset| / sd of relative precision (worst seen 5e-13).
SD_TRANSLATION_RTOL = 1e-9


@st.composite
def shift_cases(draw, dims=(1, 3)):
    """Data, queries, bandwidth and sweep count for a small KDE operator."""
    d = draw(st.integers(*dims))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=(n, d))
    queries = rng.normal(scale=2.0, size=(draw(st.integers(1, 40)), d))
    h = draw(st.floats(0.3, 2.0))
    sweeps = draw(st.integers(1, 3))
    return data, queries, h, sweeps


def _denoised(data, queries, h, sweeps):
    return denoise(queries, ShiftOperator(fit(data, h)), sweeps).points


@SETTINGS
@given(case=shift_cases(), data=st.data())
def test_denoise_query_permutation_is_exact(case, data):
    x, q, h, sweeps = case
    order = np.array(data.draw(st.permutations(range(len(q)))))
    assert np.array_equal(_denoised(x, q[order], h, sweeps), _denoised(x, q, h, sweeps)[order])


@SETTINGS
@given(case=shift_cases(), data=st.data())
def test_denoise_data_permutation_invariant(case, data):
    x, q, h, sweeps = case
    order = np.array(data.draw(st.permutations(range(len(x)))))
    np.testing.assert_allclose(_denoised(x[order], q, h, sweeps), _denoised(x, q, h, sweeps),
                               rtol=SHIFT_RTOL, atol=SHIFT_RTOL)


@SETTINGS
@given(case=shift_cases(), data=st.data())
def test_denoise_translation_equivariant(case, data):
    x, q, h, sweeps = case
    offset = np.array(data.draw(st.lists(st.floats(-1e4, 1e4), min_size=x.shape[1],
                                         max_size=x.shape[1])))
    np.testing.assert_allclose(_denoised(x + offset, q + offset, h, sweeps),
                               _denoised(x, q, h, sweeps) + offset,
                               rtol=SHIFT_RTOL, atol=SHIFT_RTOL)


@st.composite
def spread_samples(draw):
    """A gaussian sample of 2 to 40 rows in 1 to 8 dimensions, at any scale."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(n, d)) * draw(st.floats(0.01, 100.0))


@SETTINGS
@given(x=spread_samples(), data=st.data())
def test_normal_scale_translation_invariant(x, data):
    offset = np.array(data.draw(st.lists(st.floats(-1e4, 1e4), min_size=x.shape[1],
                                         max_size=x.shape[1])))
    assert select_bandwidth_normal_scale(x + offset) == pytest.approx(
        select_bandwidth_normal_scale(x), rel=SD_TRANSLATION_RTOL)


@SETTINGS
@given(x=spread_samples(), data=st.data())
def test_normal_scale_row_permutation_invariant(x, data):
    order = np.array(data.draw(st.permutations(range(len(x)))))
    assert select_bandwidth_normal_scale(x[order]) == pytest.approx(
        select_bandwidth_normal_scale(x), rel=1e-12)


@pytest.mark.parametrize("factor", [7.0, 1e-3])
@SETTINGS
@given(x=spread_samples())
def test_normal_scale_equivariant(factor, x):
    assert select_bandwidth_normal_scale(x * factor) == pytest.approx(
        factor * select_bandwidth_normal_scale(x), rel=1e-12)


@SETTINGS
@given(case=shift_cases(dims=(2, 2)), theta=st.floats(0.0, 2.0 * np.pi))
def test_denoise_rotation_equivariant(case, theta):
    x, q, h, sweeps = case
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    np.testing.assert_allclose(_denoised(x @ rot.T, q @ rot.T, h, sweeps),
                               _denoised(x, q, h, sweeps) @ rot.T,
                               rtol=SHIFT_RTOL, atol=SHIFT_RTOL)


@st.composite
def anomaly_cases(draw):
    """A small gaussian sample with a few spread-out points and a bandwidth."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(n, d))
    pts[: max(1, n // 10)] *= 4.0
    return pts, draw(st.floats(0.3, 1.5))


def _anomaly(pts, h):
    return anomaly_scores(pts, fit(pts, h), tol=ANOMALY_TOL, max_iter=200)


def _assert_same_ranking(got, want, scores):
    """The rankings are equal but for the order of scores tied within ANOMALY_RTOL.

    Ties are real: a point with no neighbour in reach never moves (score 0),
    and a symmetric pair moves the same distance.
    """
    np.testing.assert_allclose(scores[got], scores[want], rtol=ANOMALY_RTOL, atol=ANOMALY_RTOL)
    apart = np.abs(np.diff(scores[want])) > ANOMALY_RTOL * (1.0 + np.abs(scores[want][1:]))
    untied = np.concatenate([[True], apart]) & np.concatenate([apart, [True]])
    assert np.array_equal(got[untied], want[untied])


@SETTINGS
@given(case=anomaly_cases(), data=st.data())
def test_anomaly_scores_translation_invariant(case, data):
    x, h = case
    offset = np.array(data.draw(st.lists(st.floats(-1e4, 1e4), min_size=x.shape[1],
                                         max_size=x.shape[1])))
    moved, base = _anomaly(x + offset, h), _anomaly(x, h)
    _assert_same_ranking(moved.ranking, base.ranking, base.scores)
    np.testing.assert_allclose(moved.scores, base.scores, rtol=ANOMALY_RTOL, atol=ANOMALY_RTOL)


@SETTINGS
@given(case=anomaly_cases(), data=st.data())
def test_anomaly_scores_row_permutation_equivariant(case, data):
    x, h = case
    order = np.array(data.draw(st.permutations(range(len(x)))))
    permuted, base = _anomaly(x[order], h), _anomaly(x, h)
    _assert_same_ranking(order[permuted.ranking], base.ranking, base.scores)
    np.testing.assert_allclose(permuted.scores, base.scores[order],
                               rtol=ANOMALY_RTOL, atol=ANOMALY_RTOL)


@st.composite
def cluster_samples(draw):
    """Two to four gaussian clusters of unit spread, 1 to 4 apart, in 1 to 3 dimensions."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = np.zeros((k, d))
    centres[:, 0] = np.cumsum(rng.uniform(1.0, 4.0, size=k))
    sizes = rng.integers(5, 40, size=k)
    pts = np.vstack([c + rng.normal(size=(m, d)) for c, m in zip(centres, sizes)])
    return pts, k


@SETTINGS
@given(case=cluster_samples(), data=st.data())
def test_kmeans_translation_invariant(case, data):
    """Distances from direct differences keep the labels at offsets up to 1e8."""
    x, k = case
    offset = np.array(data.draw(st.lists(st.floats(-1e8, 1e8), min_size=x.shape[1],
                                         max_size=x.shape[1])))
    assert np.array_equal(kmeans(x + offset, k, rng_seed=3).labels, kmeans(x, k, rng_seed=3).labels)
