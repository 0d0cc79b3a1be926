"""Property tests of smoothed cross-validation bandwidth selection.

The selected bandwidth must not move when the sample is translated or its
rows are reordered, and must scale with the sample.  d = 1 bins positions
and takes lag counts by FFT; d = 2 and 3 bin the pair distances in row
blocks.  Samples are small gaussian mixtures, some with duplicated rows;
examples are derandomized so every run checks the same cases.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from msdenoise import select_bandwidth_scv  # noqa: E402

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def samples(draw, d):
    """A mixture of two gaussian clusters, with some rows repeated."""
    n = draw(st.integers(10, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    separation = draw(st.floats(0.0, 8.0))
    share = draw(st.floats(0.1, 0.9))
    points = rng.normal(size=(n, d))
    points[rng.random(n) < share, 0] += separation
    repeats = draw(st.integers(0, n // 2))
    return np.vstack([points, points[:repeats]])


@pytest.mark.parametrize("d", [1, 2, 3])
@SETTINGS
@given(data=st.data())
def test_translation_invariant(d, data):
    x = data.draw(samples(d))
    offset = data.draw(st.floats(-1e8, 1e8))
    assert select_bandwidth_scv(x + offset) == pytest.approx(select_bandwidth_scv(x), rel=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3])
@SETTINGS
@given(data=st.data())
def test_row_permutation_invariant(d, data):
    x = data.draw(samples(d))
    order = data.draw(st.permutations(range(len(x))))
    assert select_bandwidth_scv(x[order]) == pytest.approx(select_bandwidth_scv(x), rel=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("factor", [7.0, 1e-3])
@SETTINGS
@given(data=st.data())
def test_scale_equivariant(d, factor, data):
    x = data.draw(samples(d))
    assert select_bandwidth_scv(x * factor) == pytest.approx(factor * select_bandwidth_scv(x), rel=1e-6)
