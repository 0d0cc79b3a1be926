"""Gaussian kernel density estimation with analytic gradients.

The estimator over a sample ``X_1..X_n`` in ``R^d`` with bandwidth ``h`` is

    p(x) = (1 / (n h^d)) * sum_i K((x - X_i) / h)

with the gaussian profile ``K(u) = (2 pi)^(-d/2) exp(-||u||^2 / 2)`` and
gradient

    grad p(x) = (1 / (n h^(d+2))) * sum_i (X_i - x) K((x - X_i) / h).

Sums run over the data axis in fixed index order, so repeated evaluation of
the same model at the same points is bit-for-bit reproducible.  Batch
evaluation runs over cache-sized blocks of query rows: two ``(rows, n)``
buffers of about ``_BLOCK_FLOATS`` floats each are allocated once per range
of rows and reused for every block, so memory does not grow with the batch
size and no ``(rows, n, d)`` temporary is formed.  Each coordinate
difference is formed by copying the data row into the block and subtracting
the query column in place.  Each row's weighted sums (of the weights, of the
weights times a data coordinate, of the weights times a difference) come
from `np.einsum` in one pass, without storing the products, over fixed
chunks of at most ``_ROW_CHUNK`` = 8192 columns whose sums are added left
to right.  The chunks keep a row's rounding independent of where it sits in
the block: einsum itself would cut a longer row at its 8192-element buffer
boundary, wherever that falls.  No BLAS call is used, because a BLAS
product rounds differently in a batch than row by row and with the number
of BLAS threads.  A batch of at least
``_SPLIT_PAIRS`` query x data pairs takes blocks of ``_SPLIT_BLOCK_FLOATS``
and is split into contiguous ranges of whole blocks, one per usable CPU; the
calling thread takes the first range and one thread per further CPU takes
each of the others (``numpy.exp`` and the other ufuncs release the
interpreter lock).  Each row is reduced on its own, so a batch gives the
same bits as evaluating its rows one at a time, for any block size and any
number of ranges.

Smoothed cross-validation bins a 1-D sample linearly onto a grid of spacing
``h_ns / _SCV_BINS_PER_PILOT`` from its minimum and takes the lag counts of
the bins from one real FFT; each score is then one gaussian-weighted sum over
the lags, so a selection costs O(n + M log M) time and O(M) memory for M grid
points, and the bandwidth is within about 1e-6 relative of the exact
criterion's.  For d >= 2 the criterion is exact: it works on one condensed
array of the n(n-1)/2 squared pair distances, taken once per selection from
direct differences (``scipy.spatial.distance.pdist``).  Its scores are sums
of ``exp`` over that array in blocks of ``_BLOCK_FLOATS``, several variances
per block, through one reused buffer, on the calling thread: memory is
n(n-1)/2 floats plus one block, up to `_MAX_SCV_PAIRS` pairs.  The binned
grid starts at the sample minimum and the exact path takes direct
differences, so the selected bandwidth does not depend on where the sample
sits.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointCloud",
    "DensityModel",
    "StandardizeTransform",
    "fit",
    "density_at",
    "gradient_at",
    "select_bandwidth_normal_scale",
    "select_bandwidth_scv",
    "standardize",
]

# Floats per (rows, n) work buffer of blocked evaluation; two such buffers
# (weights and scratch) fit in a per-core L2 cache.  The SCV pair sums use
# the same block, whose grouping fixes the rounding of each score.
_BLOCK_FLOATS = 32_768

# Columns per `np.einsum` call of a row reduction (`_row_sums`).  einsum
# hands a row longer than its 8192-element iterator buffer to its inner loop
# in pieces whose ends depend on where the row sits in the block, and each
# piece rounds on its own, so a longer row would sum differently in a batch
# than alone.
_ROW_CHUNK = 8192

# Query x data pairs from which a batch is split across the usable CPUs.
# Below it, a thread hand-off costs more than it saves.
_SPLIT_PAIRS = 1 << 22

# Floats per work buffer of a split batch.  Each block costs a fixed number
# of numpy calls, and a thread that finishes one while the other holds the
# interpreter lock waits to be woken, so larger blocks split better: on two
# cores a 1000 x 200k step took 1.8 ns per pair at 131,072 floats against
# 2.3 at 65,536 and 2.2 at 262,144 (1 MB per buffer fits a 2 MB L2 cache,
# 2 MB does not).  Smaller batches keep `_BLOCK_FLOATS`, which costs them
# fewer cache misses and page faults.
_SPLIT_BLOCK_FLOATS = 131_072

# Points of the coarse SCV grid over [h_ns / 10, 10 h_ns] and the
# golden-section tolerance on log h.
_SCV_GRID = 24
_SCV_LOG_TOL = 1e-6

# The exact SCV criterion holds one float64 per pair, n(n-1)/2 of them.  At
# this limit (n = 16384) that array is 1 GiB.
_MAX_SCV_PAIRS = 1 << 27

# Grid points per pilot bandwidth of the binned 1-D SCV criterion.  Spacing
# g / 300 kept the selected h within 1e-6 relative of the exact criterion,
# also with far outliers and heavy tails, where a fixed grid size does not.
_SCV_BINS_PER_PILOT = 300

# Binned lag sums stop where the gaussian exponent falls below this: the
# rest are below 1e-304 of the zero-lag term, and exp of a more negative
# argument returns subnormals, which are slow.
_EXP_FLOOR = -700.0


@dataclass(frozen=True)
class PointCloud:
    """Immutable sample of n points in R^d.

    Accepts any array-like of shape ``(n, d)``; a 1-D array-like is treated
    as n points in one dimension.  The stored array is a float64 copy with
    the writeable flag cleared, so a cloud can be shared freely between
    models and operators.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"points must be (n, d), got ndim={pts.ndim}")
        n, d = pts.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least one point and one coordinate, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite (no NaN or inf)")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.size


def _as_cloud(data) -> PointCloud:
    """`data` itself if it is a PointCloud, else a validated PointCloud of it."""
    return data if isinstance(data, PointCloud) else PointCloud(data)


@dataclass(frozen=True)
class DensityModel:
    """A fitted gaussian kernel density estimate: data cloud and bandwidth."""

    data: PointCloud
    bandwidth: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _as_cloud(self.data))
        b = float(self.bandwidth)
        if not math.isfinite(b) or b <= 0.0:
            raise ValueError(f"bandwidth must be a positive finite real, got {self.bandwidth!r}")
        object.__setattr__(self, "bandwidth", b)

    @property
    def dim(self) -> int:
        return self.data.dim

    def density_at(self, x):
        return density_at(self, x)

    def gradient_at(self, x):
        return gradient_at(self, x)


def fit(data, bandwidth: float) -> DensityModel:
    """Build a density model over `data` (PointCloud or array-like)."""
    return DensityModel(data, bandwidth)


def _as_queries(x, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce a single point or a batch to shape (m, dim).

    Returns the array and a flag saying whether the input was a single point.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if dim != 1:
            raise ValueError(f"scalar query only valid for 1-D models, model dim is {dim}")
        arr = arr.reshape(1, 1)
        return arr, True
    if arr.ndim == 1:
        if arr.shape[0] == dim:
            return arr.reshape(1, dim), True
        if dim == 1:
            return arr.reshape(-1, 1), False
        raise ValueError(f"query of length {arr.shape[0]} does not match model dim {dim}")
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise ValueError(f"query dim {arr.shape[1]} does not match model dim {dim}")
        return arr, False
    raise ValueError(f"query must be a point or an (m, d) batch, got ndim={arr.ndim}")


def _differences(out: np.ndarray, row: np.ndarray, q: np.ndarray) -> None:
    """``out[i, k] = row[k] - q[i]``: the data row copied into every block row,
    then the query column subtracted in place (faster than a subtraction that
    broadcasts both operands, and the same bits)."""
    out[...] = row
    np.subtract(out, q[:, None], out=out)


def _row_sums(w: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
    """Row sums of `w`, or of ``w * x`` for an ``(n,)`` row or a block `x` like `w`.

    One `np.einsum` pass per chunk of at most `_ROW_CHUNK` columns, so no
    product is stored; the chunk sums are added left to right, so each row is
    summed the same way in any block.
    """
    spec = "ij->i" if x is None else ("ij,j->i" if x.ndim == 1 else "ij,ij->i")
    operands = (w,) if x is None else (w, x)
    if w.shape[1] <= _ROW_CHUNK:
        return np.einsum(spec, *operands)
    total = np.einsum(spec, *(a[..., :_ROW_CHUNK] for a in operands))
    for c in range(_ROW_CHUNK, w.shape[1], _ROW_CHUNK):
        total += np.einsum(spec, *(a[..., c : c + _ROW_CHUNK] for a in operands))
    return total


def _kernel_blocks(cols: np.ndarray, h: float, queries: np.ndarray, rows: int):
    """Gaussian kernel weights of query rows against the data, block by block.

    `cols` is the data transposed to ``(d, n)`` with contiguous rows.  Yields
    ``(lo, hi, w, scratch)`` where ``w[i, k] = exp(-||q_{lo+i} - X_k||^2 / (2 h^2))``
    for the query rows ``lo:hi`` (at most `rows` of them) and `scratch` is a
    free buffer of the same shape for the caller's reductions.  Both buffers
    are reused: a block's values are valid only until the next one is
    requested.
    """
    d, n = cols.shape
    m = queries.shape[0]
    wbuf = np.empty((rows, n))
    sbuf = np.empty((rows, n))
    inv2h2 = -0.5 / (h * h)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        w, scratch = wbuf[: hi - lo], sbuf[: hi - lo]
        _differences(w, cols[0], queries[lo:hi, 0])
        np.square(w, out=w)
        for j in range(1, d):
            _differences(scratch, cols[j], queries[lo:hi, j])
            np.square(scratch, out=scratch)
            np.add(w, scratch, out=w)
        np.multiply(w, inv2h2, out=w)
        np.exp(w, out=w)
        yield lo, hi, w, scratch


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _reduce_kernel_blocks(cols: np.ndarray, h: float, queries: np.ndarray, reduce) -> None:
    """Call ``reduce(lo, hi, w, scratch)`` on every block of `_kernel_blocks`.

    `lo` and `hi` index the whole batch, and `reduce` must write only its
    rows ``lo:hi``.  A batch of at least `_SPLIT_PAIRS` pairs is cut into
    blocks of `_SPLIT_BLOCK_FLOATS` and, if there are two or more, into
    contiguous ranges of whole blocks, one per usable CPU: the calling thread
    reduces the first range and a thread of its own each further one, every
    range with its own two buffers.  All threads are joined before an error
    is raised; if several ranges fail, the error of the earliest one is
    raised, so the lowest failing row is reported.
    """
    n = cols.shape[1]
    m = queries.shape[0]
    split = m * n >= _SPLIT_PAIRS
    rows = max(1, min(m, (_SPLIT_BLOCK_FLOATS if split else _BLOCK_FLOATS) // n))
    blocks = -(-m // rows)
    workers = min(_usable_cpus(), blocks) if split else 1

    def run(lo: int, hi: int) -> None:
        for blo, bhi, w, scratch in _kernel_blocks(cols, h, queries[lo:hi], rows):
            reduce(lo + blo, lo + bhi, w, scratch)

    if workers < 2:
        run(0, m)
        return
    per, extra = divmod(blocks, workers)
    starts = [rows * (i * per + min(i, extra)) for i in range(workers)] + [m]
    errors: list = [None] * workers

    def run_range(i: int) -> None:
        try:
            run(starts[i], starts[i + 1])
        except Exception as exc:  # raised again by the calling thread
            errors[i] = exc

    threads = [threading.Thread(target=run_range, args=(i,)) for i in range(1, workers)]
    for t in threads:
        t.start()
    try:
        run(starts[0], starts[1])
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _kde_eval(data: np.ndarray, h: float, queries: np.ndarray, want_grad: bool):
    """Blocked evaluation of the estimate (and optionally its gradient)."""
    n, d = data.shape
    m = queries.shape[0]
    norm = (2.0 * math.pi) ** (-0.5 * d) / (n * h**d)
    gnorm = norm / (h * h)
    dens = np.empty(m)
    grad = np.empty((m, d)) if want_grad else None
    cols = np.ascontiguousarray(data.T)

    def reduce(lo, hi, w, scratch):
        dens[lo:hi] = _row_sums(w) * norm
        if want_grad:
            for j in range(d):
                _differences(scratch, cols[j], queries[lo:hi, j])
                grad[lo:hi, j] = _row_sums(w, scratch) * gnorm

    _reduce_kernel_blocks(cols, h, queries, reduce)
    return (dens, grad) if want_grad else dens


def density_at(model: DensityModel, x):
    """Density estimate at a point (returns float) or batch (returns (m,) array)."""
    q, single = _as_queries(x, model.dim)
    dens = _kde_eval(model.data.points, model.bandwidth, q, want_grad=False)
    return float(dens[0]) if single else dens


def gradient_at(model: DensityModel, x):
    """Gradient of the estimate at a point ((d,) array) or batch ((m, d) array)."""
    q, single = _as_queries(x, model.dim)
    _, grad = _kde_eval(model.data.points, model.bandwidth, q, want_grad=True)
    return grad[0] if single else grad


def _sample_sd(points: np.ndarray, undefined: str) -> np.ndarray:
    """Per-coordinate sample sd (n-1 divisor); a zero sd raises, naming `undefined`."""
    if points.shape[0] < 2:
        raise ValueError("need at least 2 points to estimate spread")
    sd = points.std(axis=0, ddof=1)
    if np.any(sd == 0.0):
        bad = int(np.flatnonzero(sd == 0.0)[0])
        raise ValueError(f"coordinate {bad} has zero spread; {undefined}")
    return sd


def select_bandwidth_normal_scale(data) -> float:
    """Normal-scale bandwidth rule.

    ``h = (4 / (d + 2))^(1/(d+4)) * n^(-1/(d+4)) * sigma`` where ``sigma``
    is the mean of the per-coordinate sample standard deviations (n-1
    divisor).  Degenerate coordinates (zero spread) are rejected.
    """
    cloud = _as_cloud(data)
    n, d = cloud.size, cloud.dim
    sigma = float(_sample_sd(cloud.points, "scale-based bandwidth undefined").mean())
    return float((4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0)) * sigma)


def _scv_score(pair_sums, n: int, d: int, g: float):
    """Smoothed cross-validation scores as a function of h.

    Score(h) = R(K) / (n h^d)
             + n^-2 * sum_{i,j} (phi_{2h^2+2g^2} - 2 phi_{h^2+2g^2} + phi_{2g^2})(X_i - X_j)

    with phi_v the isotropic gaussian with per-axis variance v, the double
    sum over all ordered pairs including i = j, and g the pilot bandwidth.
    `pair_sums(variances)` gives that double sum of phi_v for each v.  The
    constant pilot term is summed once.  Returns `score(hs)`, the scores of a
    sequence of bandwidths from one call of `pair_sums`.
    """
    rk = (4.0 * math.pi) ** (-0.5 * d)
    pilot_var = 2.0 * g * g
    pilot = pair_sums(np.array([pilot_var]))[0]

    def score(hs) -> np.ndarray:
        h = np.asarray(hs, dtype=float)
        h2 = h * h
        sums = pair_sums(np.concatenate([2.0 * h2 + pilot_var, h2 + pilot_var]))
        mix = sums[: h.size] - 2.0 * sums[h.size :] + pilot
        return rk / (n * h**d) + mix / (n * n)

    return score


def _scv_criterion_factory(points: np.ndarray, g: float):
    """Exact smoothed cross-validation scores (see `_scv_score`).

    The squared distances of the n(n-1)/2 pairs i < j are taken once, from
    direct differences, into one condensed array, and each call of
    `score(hs)` is one blocked pass over the pairs.  More than
    `_MAX_SCV_PAIRS` pairs raise ValueError before that array is allocated.
    """
    from scipy.spatial.distance import pdist

    n, d = points.shape
    if n * (n - 1) // 2 > _MAX_SCV_PAIRS:
        raise ValueError(
            f"exact smoothed CV holds n(n-1)/2 pair distances; n={n} exceeds the "
            f"limit of {_MAX_SCV_PAIRS} pairs"
        )
    tri = pdist(points, "sqeuclidean")
    step = min(tri.size, _BLOCK_FLOATS)
    buf = np.empty(step)

    def pair_sums(variances: np.ndarray) -> np.ndarray:
        # sum over all ordered pairs of phi_v(X_i - X_j), for each v
        coefs = -0.5 / variances
        acc = np.zeros(variances.size)
        for lo in range(0, tri.size, step):
            block = tri[lo : lo + step]
            w = buf[: block.size]
            for k, c in enumerate(coefs):
                np.multiply(block, c, out=w)
                np.exp(w, out=w)
                acc[k] += w.sum()
        return (2.0 * math.pi * variances) ** (-0.5 * d) * (n + 2.0 * acc)

    return _scv_score(pair_sums, n, d, g)


def _scv_binned_criterion_factory(x: np.ndarray, g: float):
    """Smoothed cross-validation scores of a 1-D sample from binned pair sums.

    The score of `_scv_score`, with each pair sum taken over the sample
    linearly binned onto the grid ``min(x) + j delta``, ``delta = g /
    _SCV_BINS_PER_PILOT``.  With ``c_j`` the binned counts and
    ``L[k] = sum_j c_j c_{j+k}`` the lag counts, from one zero-padded real
    FFT,

        sum_{i,j} phi_v(X_i - X_j) ~ phi_v(0) L[0] + 2 sum_{k>=1} L[k] phi_v(k delta).

    Each variance's lag sum stops where the exponent passes `_EXP_FLOOR`.
    Time is O(n + M log M) and memory O(M) for the M grid points, with no
    pair array.  With g the normal-scale bandwidth, M is below about
    283 sqrt(2n) n^(1/5) + 2 (5e4 at n = 1000, 4e5 at n = 20000), because a
    sample's range is at most sqrt(2(n-1)) standard deviations.
    """
    from numpy.fft import irfft, rfft

    delta = g / _SCV_BINS_PER_PILOT
    pos = (x - x.min()) / delta
    left = pos.astype(np.intp)  # floor, as pos >= 0
    frac = pos - left
    m = int(left.max()) + 2
    counts = np.bincount(left, 1.0 - frac, m) + np.bincount(left + 1, frac, m)
    size = 1 << (2 * m - 2).bit_length()  # at least 2m - 1: no circular wrap
    spec = rfft(counts, size)
    lags = irfft(spec.real**2 + spec.imag**2, size)[:m]
    lags[1:] *= 2.0  # lags k and -k
    sq = np.square(np.arange(m) * delta)
    buf = np.empty(m)

    def pair_sums(variances: np.ndarray) -> np.ndarray:
        # binned sum over all ordered pairs of phi_v(X_i - X_j), for each v
        acc = np.empty(variances.size)
        for i, v in enumerate(variances):
            k = int(np.searchsorted(sq, -2.0 * _EXP_FLOOR * v, side="right"))
            w = buf[:k]
            np.multiply(sq[:k], -0.5 / v, out=w)
            np.exp(w, out=w)
            np.multiply(w, lags[:k], out=w)
            acc[i] = w.sum()
        return acc / np.sqrt(2.0 * math.pi * variances)

    return _scv_score(pair_sums, x.size, 1, g)


def select_bandwidth_scv(data) -> float:
    """Smoothed cross-validation bandwidth.

    Minimizes the smoothed CV score with a gaussian pilot at the
    normal-scale bandwidth: a coarse geometric grid of ``_SCV_GRID`` points
    over ``[h_ns / 10, 10 h_ns]`` locates the basin, then golden-section
    search on log h refines it to ``_SCV_LOG_TOL``.  A 1-D sample is scored
    on the binned criterion (`_scv_binned_criterion_factory`): O(n + M log M)
    time and O(M) memory for M grid points, with h within about 1e-6
    relative of the exact criterion's.  For d >= 2 every score is a sum over
    one condensed array of the n(n-1)/2 pair squared distances, taken from
    direct differences, so memory is n(n-1)/2 floats plus one block, and
    more than `_MAX_SCV_PAIRS` pairs raise ValueError before allocating.
    Either way the result does not depend on where the sample sits.  Needs
    at least 10 points; rejects degenerate data.
    """
    cloud = _as_cloud(data)
    if cloud.size < 10:
        raise ValueError(f"smoothed CV needs at least 10 points, got {cloud.size}")
    h_ns = select_bandwidth_normal_scale(cloud)
    if cloud.dim == 1:
        score = _scv_binned_criterion_factory(cloud.points[:, 0], g=h_ns)
    else:
        score = _scv_criterion_factory(cloud.points, g=h_ns)

    grid = np.geomspace(h_ns / 10.0, h_ns * 10.0, _SCV_GRID)
    k = int(np.argmin(score(grid)))
    lo = math.log(grid[max(k - 1, 0)])
    hi = math.log(grid[min(k + 1, _SCV_GRID - 1)])

    # golden-section on log h
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = score([math.exp(x1), math.exp(x2)])
    while (b - a) > _SCV_LOG_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = score([math.exp(x1)])[0]
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = score([math.exp(x2)])[0]
    return float(math.exp(0.5 * (a + b)))


@dataclass(frozen=True)
class StandardizeTransform:
    """Per-coordinate affine map ``x -> (x - mean) / scale`` and its inverse."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mean, dtype=float).copy()
        s = np.asarray(self.scale, dtype=float).copy()
        if m.shape != s.shape or m.ndim != 1:
            raise ValueError("mean and scale must be matching 1-D arrays")
        if np.any(s <= 0.0) or not np.all(np.isfinite(s)) or not np.all(np.isfinite(m)):
            raise ValueError("scale entries must be positive and finite")
        m.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "scale", s)

    def apply(self, data) -> PointCloud:
        cloud = _as_cloud(data)
        if cloud.dim != self.mean.shape[0]:
            raise ValueError(f"data dim {cloud.dim} does not match transform dim {self.mean.shape[0]}")
        return PointCloud((cloud.points - self.mean) / self.scale)

    def invert(self, data) -> PointCloud:
        cloud = _as_cloud(data)
        if cloud.dim != self.mean.shape[0]:
            raise ValueError(f"data dim {cloud.dim} does not match transform dim {self.mean.shape[0]}")
        return PointCloud(cloud.points * self.scale + self.mean)


def standardize(data) -> tuple[PointCloud, StandardizeTransform]:
    """Center each coordinate and divide by its sample standard deviation.

    Uses the n-1 divisor.  Zero-spread coordinates are rejected rather than
    silently left unscaled.
    """
    cloud = _as_cloud(data)
    sd = _sample_sd(cloud.points, "cannot standardize")
    t = StandardizeTransform(mean=cloud.points.mean(axis=0), scale=sd)
    return t.apply(cloud), t
