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
difference of a block is one subtraction that broadcasts the data row and
the query column, with numpy's ufunc buffer capped at one row so that the
rows stream through without being copied into it (`_by_column`).  Each
row's weighted sums (of the weights, of the weights times a data
coordinate, of the weights times a difference) come from `np.einsum` in one
pass, without storing the products, over fixed chunks of at most
``_ROW_CHUNK`` = 8192 columns whose sums are added left to right.  The
chunks keep a row's rounding independent of where it sits in the block:
einsum itself would cut a longer row at its 8192-element buffer boundary,
wherever that falls.  No BLAS call is used, because a BLAS product rounds
differently in a batch than row by row and with the number of BLAS
threads.  A batch of at least ``_SPLIT_PAIRS`` query x data pairs takes
blocks of ``_SPLIT_BLOCK_FLOATS`` and is split into contiguous ranges of
whole blocks, one per usable CPU; the calling thread takes the first range
and one thread per further CPU takes each of the others (``numpy.exp`` and
the other ufuncs release the interpreter lock).  Each row is reduced on its
own, so a batch gives the same bits as evaluating its rows one at a time,
for any block size and any number of ranges.

Smoothed cross-validation bins the pair distances once per selection,
linearly, onto ``r = j delta``, ``delta = h_ns / _SCV_BINS_PER_PILOT``, and
scores each bandwidth as one gaussian-weighted sum over the M grid counts.
In 1-D the counts are the lag counts of the binned positions, from one real
FFT; in d >= 2 the distances are taken in row blocks from direct differences
and counted with `np.bincount`.  Memory is O(M) plus one block, h is within
about 1e-6 relative of the exact criterion's, and it does not depend on
where the sample sits.
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
    "fit",
    "density_at",
    "gradient_at",
    "select_bandwidth_normal_scale",
    "select_bandwidth_scv",
    "standardize",
]

# Floats per (rows, n) work buffer of blocked evaluation; two such buffers
# (weights and scratch) fit in a per-core L2 cache.  The SCV distance
# binning uses blocks of the same size.
_BLOCK_FLOATS = 32_768

# 8-byte words the largest array of a quadratic path (pair matrices, GEMM
# operands, path records) may hold: 512 MiB.  Each caller of `_check_words`
# states its peak as a multiple of the size it checks.
_WORD_BUDGET = 1 << 26

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
# cores a 1-D 1000 x 200k weighted-mean step took 2.0 ns per pair at 131,072
# floats against 2.3 at 65,536 and 2.1 at 262,144 (medians of 10 alternating
# timings; 1 MB per buffer fits a 2 MB L2 cache, 2 MB does not).  Smaller
# batches keep `_BLOCK_FLOATS`, which costs them fewer cache misses and page
# faults.
_SPLIT_BLOCK_FLOATS = 131_072

# Points of the coarse SCV grid over [h_ns / 10, 10 h_ns] and the
# golden-section tolerance on log h.
_SCV_GRID = 24
_SCV_LOG_TOL = 1e-6

# Grid points per pilot bandwidth of the binned SCV criterion.  Spacing
# g / 300 kept the selected h within 1e-6 relative of the exact criterion,
# also with far outliers and heavy tails, where a fixed grid size does not.
_SCV_BINS_PER_PILOT = 300

# Binned pair sums stop where the gaussian exponent falls below this: the
# rest are below 1e-304 of the zero-lag term, and exp of a more negative
# argument returns subnormals, which are slow.
_EXP_FLOOR = -700.0


def _check_words(words: int, what: str) -> None:
    """Refuse, before it is allocated, an array of `words` 8-byte words over
    `_WORD_BUDGET`; `what` says which."""
    if words > _WORD_BUDGET:
        raise ValueError(f"{what} needs {words} words, over the limit of {_WORD_BUDGET}")


def _positive(value, name: str, zero: bool = False) -> float:
    """`value` as a float, refused by `name` unless positive (with `zero`,
    nonnegative) and finite."""
    sign = "nonnegative" if zero else "positive"
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a {sign} finite number, got {value!r}") from None
    if not (0.0 <= v if zero else 0.0 < v) or v == math.inf:
        raise ValueError(f"{name} must be {sign} and finite, got {v}")
    return v


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only copy of `values` as an array of `dtype`: how every public
    type stores an array, so none freezes or keeps a caller's own array."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _count(value, name: str, low: int = 1, high: int | None = None) -> int:
    """`value` as an int, refused by `name` unless it is a whole number in
    low..high (no upper bound without `high`): the rule of every count
    (replicates, permutations, sizes, clusters, neighbours, top scores)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or n < low or (high is not None and n > high):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {span}, got {value!r}")
    return n


def _points(data) -> np.ndarray:
    """A sample as an (n, d) float array, read where it lies: a PointCloud's
    own array, or an array-like as a C-contiguous float64 array (the caller's
    own array when it already is one), a 1-D array-like being n points in one
    coordinate.  The point rule: at least one point, all of them finite.
    Callers only read it; `PointCloud` is what stores a copy."""
    if isinstance(data, PointCloud):
        return data.points
    arr = np.asarray(data, dtype=float, order="C")
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"points must be (n, d), got ndim={arr.ndim}")
    n, d = arr.shape
    if n < 1 or d < 1:
        raise ValueError(f"need at least one point and one coordinate, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite (no NaN or inf)")
    return arr


@dataclass(frozen=True)
class PointCloud:
    """Immutable sample of n points in R^d.

    Accepts any array-like of shape ``(n, d)``; a 1-D array-like is treated
    as n points in one dimension.  The stored array is a read-only float64
    copy (`_frozen`, the storage rule of every public type), so a cloud can
    be shared freely between models and operators.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _points(_frozen(self.points)))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class DensityModel:
    """A fitted gaussian kernel density estimate: data cloud and bandwidth."""

    data: PointCloud
    bandwidth: float

    def __post_init__(self) -> None:
        if not isinstance(self.data, PointCloud):
            object.__setattr__(self, "data", PointCloud(self.data))
        object.__setattr__(self, "bandwidth", _positive(self.bandwidth, "bandwidth"))

    @property
    def dim(self) -> int:
        return self.data.dim


def fit(data, bandwidth) -> DensityModel:
    """Build a density model over `data` (PointCloud or array-like) at
    `bandwidth`, a positive number or "scv" (`select_bandwidth_scv`)."""
    if isinstance(bandwidth, str) and bandwidth == "scv":
        data = data if isinstance(data, PointCloud) else PointCloud(data)
        bandwidth = select_bandwidth_scv(data)
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


def _as_point(x, dim: int) -> np.ndarray:
    """A single point (`_as_queries`) as a (1, dim) row; a batch raises
    ValueError naming the dimension."""
    q, single = _as_queries(x, dim)
    if not single:
        raise ValueError(f"need a single point of dimension {dim}, got {q.shape[0]} points")
    return q


def _by_column(ufunc, a: np.ndarray, col: np.ndarray, out: np.ndarray) -> None:
    """``ufunc(a, col[:, None], out=out)`` for a 2-D `out`, with numpy's
    ufunc buffer capped at one row of `out` for this call and restored after
    it, so that the rows stream through without being copied into the buffer.
    The cap is rounded up to the multiple of 16 numpy requires, at least 16
    for a block with no columns.  numpy keeps the setting in a context
    variable, so each thread sets and restores its own.
    """
    prev = np.setbufsize(max(16, -(-out.shape[1] // 16) * 16))
    try:
        ufunc(a, col[:, None], out=out)
    finally:
        np.setbufsize(prev)


def _sq_distances(out: np.ndarray, scratch: np.ndarray, cols: np.ndarray, q: np.ndarray) -> None:
    """``out[i, k] = ||X_k - q_i||^2``, summed over the coordinates in order
    (`cols` is the data as ``(d, n)``; `scratch`, a buffer like `out`, is
    used only when d > 1)."""
    _by_column(np.subtract, cols[0], q[:, 0], out)
    np.square(out, out=out)
    for j in range(1, cols.shape[0]):
        _by_column(np.subtract, cols[j], q[:, j], scratch)
        np.square(scratch, out=scratch)
        np.add(out, scratch, out=out)


def _pair_sq_distances(points: np.ndarray) -> np.ndarray:
    """The (n, n) squared pair distances of an (n, d) sample, by `_sq_distances`
    in row blocks of about `_BLOCK_FLOATS`: exactly 0 on the diagonal, and
    exactly symmetric, as a difference and its negation square alike."""
    n = points.shape[0]
    cols = np.ascontiguousarray(points.T)
    rows = max(1, _BLOCK_FLOATS // n)
    sq, scratch = np.empty((n, n)), np.empty((min(rows, n), n))
    for lo in range(0, n, rows):
        block = sq[lo : lo + rows]
        _sq_distances(block, scratch[: block.shape[0]], cols, points[lo : lo + rows])
    return sq


def _median_pair_distance(sq: np.ndarray) -> float:
    """Median pair distance of the squared pair distances `sq`, 0.0 if there
    are no pairs: the roots of the one or two middle entries of the upper
    triangle (copied out row by row, then partitioned in place), averaged as
    `np.median` does."""
    upper = np.concatenate([row[i + 1 :] for i, row in enumerate(sq)])
    size = upper.size
    if not size:
        return 0.0
    kth = [size // 2] if size % 2 else [size // 2 - 1, size // 2]
    upper.partition(kth)
    return float(np.median(np.sqrt(upper[kth])))


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
    n = cols.shape[1]
    m = queries.shape[0]
    wbuf = np.empty((rows, n))
    sbuf = np.empty((rows, n))
    inv2h2 = -0.5 / (h * h)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        w, scratch = wbuf[: hi - lo], sbuf[: hi - lo]
        _sq_distances(w, scratch, cols, queries[lo:hi])
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
                _by_column(np.subtract, cols[j], queries[lo:hi, j], scratch)
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
    """Per-coordinate sample sd (n-1 divisor).

    A zero sd, or one that overflows, raises ValueError naming `undefined`.
    """
    if points.shape[0] < 2:
        raise ValueError("need at least 2 points to estimate spread")
    with np.errstate(over="ignore", invalid="ignore"):
        sd = points.std(axis=0, ddof=1)
    if np.any(sd == 0.0):
        bad = int(np.flatnonzero(sd == 0.0)[0])
        raise ValueError(f"coordinate {bad} has zero spread; {undefined}")
    if not np.all(np.isfinite(sd)):
        bad = int(np.flatnonzero(~np.isfinite(sd))[0])
        raise ValueError(f"coordinate {bad} of the data has a spread that overflows; {undefined}")
    return sd


def select_bandwidth_normal_scale(data) -> float:
    """Normal-scale bandwidth rule.

    ``h = (4 / (d + 2))^(1/(d+4)) * n^(-1/(d+4)) * sigma`` where ``sigma``
    is the mean of the per-coordinate sample standard deviations (n-1
    divisor).  Degenerate coordinates (zero spread) are rejected.
    """
    pts = _points(data)
    n, d = pts.shape
    sigma = float(_sample_sd(pts, "scale-based bandwidth undefined").mean())
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


def _lag_counts(x: np.ndarray, delta: float) -> np.ndarray:
    """Ordered-pair counts of a 1-D sample at the lags ``k delta``: the lag
    counts ``sum_j c_j c_{j+k}`` of its linear binning onto ``min(x) + j delta``,
    from one zero-padded real FFT.  M < 283 sqrt(2n) n^(1/5) + 2 at delta =
    h_ns / 300, as a sample's range is at most sqrt(2(n-1)) sds."""
    from numpy.fft import irfft, rfft

    pos = (x - x.min()) / delta
    left = pos.astype(np.intp)  # floor, as pos >= 0
    frac = pos - left
    m = int(left.max()) + 2
    counts = np.bincount(left, 1.0 - frac, m) + np.bincount(left + 1, frac, m)
    size = 1 << (2 * m - 2).bit_length()  # at least 2m - 1: no circular wrap
    spec = rfft(counts, size)
    lags = irfft(spec.real**2 + spec.imag**2, size)[:m]
    lags[1:] *= 2.0  # lags k and -k
    return lags


def _distance_counts(points: np.ndarray, delta: float) -> np.ndarray:
    """Ordered-pair counts of an (n, d) sample at the distances ``j delta``.

    Each distance is binned linearly; the n diagonal pairs fall exactly on 0.
    Rows go in blocks of about `_BLOCK_FLOATS` pairs: a block against itself
    (its ordered pairs and diagonal), then against the later rows, counted
    twice.  Memory is three block buffers plus M counts, M below the
    bounding-box diagonal over delta plus 2: at delta = h_ns / 300, below
    325 d sqrt(2n) n^(1/(d+4)) + 2, as a coordinate's range is at most
    sqrt(2(n-1)) sds."""
    n = points.shape[0]
    grid = points / delta  # distances in grid steps
    cols = np.ascontiguousarray(grid.T)
    diag2 = 0.0  # summed like every squared distance, so none bins past it
    for e in grid.max(axis=0) - grid.min(axis=0):
        diag2 += e * e
    m = int(math.sqrt(diag2)) + 2
    size = max(_BLOCK_FLOATS, n)
    dist, scratch, left = np.empty(size), np.empty(size), np.empty(size, dtype=np.intp)
    whole = np.zeros(m, dtype=np.int64)  # distances with their floor at bin j
    frac = np.zeros(m)  # their summed fractional parts, owed to bin j + 1
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, _BLOCK_FLOATS // (n - lo)))
        for c0, c1, times in ((lo, hi, 1), (hi, n, 2)):
            if c0 == c1:  # the last block has no later rows
                continue
            shape = (hi - lo, c1 - c0)
            k = shape[0] * shape[1]
            r, f, j = dist[:k], scratch[:k], left[:k]
            _sq_distances(r.reshape(shape), f.reshape(shape), cols[:, c0:c1], grid[lo:hi])
            np.sqrt(r, out=r)
            np.floor(r, out=f)
            np.copyto(j, f, casting="unsafe")
            np.subtract(r, f, out=r)
            counted, fracs = np.bincount(j), np.bincount(j, r)
            whole[: counted.size] += times * counted
            frac[: fracs.size] += times * fracs
        lo = hi
    counts = whole - frac
    counts[1:] += frac[:-1]
    return np.trim_zeros(counts, "b")


def _scv_binned_criterion_factory(points: np.ndarray, g: float):
    """Smoothed cross-validation scores (`_scv_score`) from binned pair sums.

    With ``C[j]`` the ordered-pair counts at ``j delta``, ``delta = g /
    _SCV_BINS_PER_PILOT`` (`_lag_counts` for d = 1, else `_distance_counts`),
    ``sum_{i,j} phi_v(X_i - X_j) ~ (2 pi v)^(-d/2) sum_j C[j] exp(-(j delta)^2
    / (2 v))``, each sum stopping where the exponent passes `_EXP_FLOOR`.
    """
    n, d = points.shape
    delta = g / _SCV_BINS_PER_PILOT
    counts = _lag_counts(points[:, 0], delta) if d == 1 else _distance_counts(points, delta)
    sq = np.square(np.arange(counts.size) * delta)
    buf = np.empty(counts.size)

    def pair_sums(variances: np.ndarray) -> np.ndarray:
        # binned sum over all ordered pairs of phi_v(X_i - X_j), for each v
        acc = np.empty(variances.size)
        for i, v in enumerate(variances):
            k = int(np.searchsorted(sq, -2.0 * _EXP_FLOOR * v, side="right"))
            w = buf[:k]
            np.multiply(sq[:k], -0.5 / v, out=w)
            np.exp(w, out=w)
            np.multiply(w, counts[:k], out=w)
            acc[i] = w.sum()
        return acc / np.sqrt(2.0 * math.pi * variances) ** d

    return _scv_score(pair_sums, n, d, g)


def select_bandwidth_scv(data) -> float:
    """Smoothed cross-validation bandwidth.

    Minimizes the smoothed CV score with a gaussian pilot at the
    normal-scale bandwidth: a coarse geometric grid of ``_SCV_GRID`` points
    over ``[h_ns / 10, 10 h_ns]`` locates the basin, then golden-section
    search on log h refines it to ``_SCV_LOG_TOL``.  The scores come from
    the pair distances binned once onto a grid of spacing h_ns / 300
    (`_scv_binned_criterion_factory`), so h is within about 1e-6 relative of
    the exact criterion's.  For M grid points, d = 1 takes O(n + M log M)
    time; d >= 2 takes one O(n^2) pass, with M below about
    325 d sqrt(2n) n^(1/(d+4)).  Memory is O(M) plus one block, and the
    result does not depend on where the sample sits.  Needs at least 10
    points; rejects degenerate data.
    """
    pts = _points(data)
    if pts.shape[0] < 10:
        raise ValueError(f"smoothed CV needs at least 10 points, got {pts.shape[0]}")
    h_ns = select_bandwidth_normal_scale(pts)
    score = _scv_binned_criterion_factory(pts, g=h_ns)

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


def standardize(data) -> PointCloud:
    """Center each coordinate and divide by its sample standard deviation.

    Uses the n-1 divisor.  Zero-spread coordinates are rejected rather than
    silently left unscaled, and so is a spread that overflows.
    """
    pts = _points(data)
    sd = _sample_sd(pts, "cannot standardize")
    return PointCloud((pts - pts.mean(axis=0)) / sd)
