"""Gaussian kernel density estimation with analytic gradients.

The estimator over a sample ``X_1..X_n`` in ``R^d`` with bandwidth ``h`` is

    p(x) = (1 / (n h^d)) * sum_i K((x - X_i) / h)

with the gaussian profile ``K(u) = (2 pi)^(-d/2) exp(-||u||^2 / 2)`` and
gradient

    grad p(x) = (1 / (n h^(d+2))) * sum_i (X_i - x) K((x - X_i) / h).

Sums run over the data axis in fixed index order, so repeated evaluation of
the same model at the same points is bit-for-bit reproducible.  Batch
evaluation runs over cache-sized blocks of query rows: two ``(rows, n)``
buffers of about ``_BLOCK_FLOATS`` floats each are allocated once per call
and reused for every block, so memory does not grow with the batch size and
no ``(rows, n, d)`` temporary is formed.  Each row is reduced on its own, so
a batch gives the same bits as evaluating its rows one at a time.

Smoothed cross-validation works on one condensed array of the n(n-1)/2
squared pair distances, taken once per selection from direct differences
(``scipy.spatial.distance.pdist``), so the selected bandwidth does not
depend on where the sample sits.  Scores are sums of ``exp`` over that
array in blocks of ``_BLOCK_FLOATS``, several variances per block, through
one reused buffer: memory is n(n-1)/2 floats plus one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointCloud",
    "KernelSpec",
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
# (weights and scratch) fit in a per-core L2 cache.
_BLOCK_FLOATS = 32_768

# Points of the coarse SCV grid over [h_ns / 10, 10 h_ns] and the
# golden-section tolerance on log h.
_SCV_GRID = 24
_SCV_LOG_TOL = 1e-6


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


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its profile constant.

    The profile constant ``c`` ties the gradient-ratio form of a shift step
    to the weighted-mean form; for the gaussian family it is exactly 1 and
    other values are rejected.
    """

    family: str = "gaussian"
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.family != "gaussian":
            raise ValueError(f"unsupported kernel family {self.family!r}")
        if self.c != 1.0:
            raise ValueError("gaussian kernel has profile constant c = 1")


@dataclass(frozen=True)
class DensityModel:
    """A fitted kernel density estimate: data cloud, bandwidth, kernel."""

    data: PointCloud
    bandwidth: float
    kernel: KernelSpec = KernelSpec()

    def __post_init__(self) -> None:
        if not isinstance(self.data, PointCloud):
            object.__setattr__(self, "data", PointCloud(self.data))
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


def fit(data, bandwidth: float, kernel: KernelSpec = KernelSpec()) -> DensityModel:
    """Build a density model over `data` (PointCloud or array-like)."""
    cloud = data if isinstance(data, PointCloud) else PointCloud(data)
    return DensityModel(cloud, bandwidth, kernel)


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


def _kernel_blocks(cols: np.ndarray, h: float, queries: np.ndarray):
    """Gaussian kernel weights of query rows against the data, block by block.

    `cols` is the data transposed to ``(d, n)`` with contiguous rows.  Yields
    ``(lo, hi, w, scratch)`` where ``w[i, k] = exp(-||q_{lo+i} - X_k||^2 / (2 h^2))``
    for the query rows ``lo:hi`` and `scratch` is a free buffer of the same
    shape for the caller's reductions.  Both buffers are reused: a block's
    values are valid only until the next one is requested.
    """
    d, n = cols.shape
    m = queries.shape[0]
    rows = max(1, min(m, _BLOCK_FLOATS // n))
    wbuf = np.empty((rows, n))
    sbuf = np.empty((rows, n))
    inv2h2 = -0.5 / (h * h)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        w, scratch = wbuf[: hi - lo], sbuf[: hi - lo]
        np.subtract(cols[0], queries[lo:hi, 0, None], out=w)
        np.square(w, out=w)
        for j in range(1, d):
            np.subtract(cols[j], queries[lo:hi, j, None], out=scratch)
            np.square(scratch, out=scratch)
            np.add(w, scratch, out=w)
        np.multiply(w, inv2h2, out=w)
        np.exp(w, out=w)
        yield lo, hi, w, scratch


def _kde_eval(data: np.ndarray, h: float, queries: np.ndarray, want_grad: bool):
    """Blocked evaluation of the estimate (and optionally its gradient)."""
    n, d = data.shape
    m = queries.shape[0]
    norm = (2.0 * math.pi) ** (-0.5 * d) / (n * h**d)
    gnorm = norm / (h * h)
    dens = np.empty(m)
    grad = np.empty((m, d)) if want_grad else None
    cols = np.ascontiguousarray(data.T)
    for lo, hi, w, scratch in _kernel_blocks(cols, h, queries):
        dens[lo:hi] = w.sum(axis=1) * norm
        if want_grad:
            for j in range(d):
                np.subtract(cols[j], queries[lo:hi, j, None], out=scratch)
                np.multiply(scratch, w, out=scratch)
                grad[lo:hi, j] = scratch.sum(axis=1) * gnorm
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


def _density_and_gradient(model: DensityModel, queries: np.ndarray):
    """Single-pass batch evaluation used by shift operators."""
    return _kde_eval(model.data.points, model.bandwidth, queries, want_grad=True)


def _sample_sd(points: np.ndarray) -> np.ndarray:
    if points.shape[0] < 2:
        raise ValueError("need at least 2 points to estimate spread")
    return points.std(axis=0, ddof=1)


def select_bandwidth_normal_scale(data) -> float:
    """Normal-scale bandwidth rule.

    ``h = (4 / (d + 2))^(1/(d+4)) * n^(-1/(d+4)) * sigma`` where ``sigma``
    is the mean of the per-coordinate sample standard deviations (n-1
    divisor).  Degenerate coordinates (zero spread) are rejected.
    """
    cloud = data if isinstance(data, PointCloud) else PointCloud(data)
    n, d = cloud.size, cloud.dim
    sd = _sample_sd(cloud.points)
    if np.any(sd == 0.0):
        bad = int(np.flatnonzero(sd == 0.0)[0])
        raise ValueError(f"coordinate {bad} has zero spread; scale-based bandwidth undefined")
    sigma = float(sd.mean())
    return float((4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0)) * sigma)


def _scv_criterion_factory(points: np.ndarray, g: float):
    """Smoothed cross-validation scores as a function of h.

    Score(h) = R(K) / (n h^d)
             + n^-2 * sum_{i,j} (phi_{2h^2+2g^2} - 2 phi_{h^2+2g^2} + phi_{2g^2})(X_i - X_j)

    with phi_v the isotropic gaussian with per-axis variance v, the double
    sum over all ordered pairs including i = j, and g the pilot bandwidth.
    The squared distances of the n(n-1)/2 pairs i < j are taken once, from
    direct differences, into one condensed array; the constant pilot term is
    summed once.  Returns `score(hs)`, the scores of a sequence of bandwidths
    from one blocked pass over the pairs.
    """
    from scipy.spatial.distance import pdist

    n, d = points.shape
    tri = pdist(points, "sqeuclidean")
    step = min(tri.size, _BLOCK_FLOATS)
    buf = np.empty(step)
    rk = (4.0 * math.pi) ** (-0.5 * d)

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

    pilot_var = 2.0 * g * g
    pilot = pair_sums(np.array([pilot_var]))[0]

    def score(hs) -> np.ndarray:
        h = np.asarray(hs, dtype=float)
        h2 = h * h
        sums = pair_sums(np.concatenate([2.0 * h2 + pilot_var, h2 + pilot_var]))
        mix = sums[: h.size] - 2.0 * sums[h.size :] + pilot
        return rk / (n * h**d) + mix / (n * n)

    return score


def select_bandwidth_scv(data) -> float:
    """Smoothed cross-validation bandwidth.

    Minimizes the smoothed CV score with a gaussian pilot at the
    normal-scale bandwidth: a coarse geometric grid of ``_SCV_GRID`` points
    over ``[h_ns / 10, 10 h_ns]`` locates the basin, then golden-section
    search on log h refines it to ``_SCV_LOG_TOL``.  Every score is a sum
    over one condensed array of the n(n-1)/2 pair squared distances, taken
    from direct differences, so the result does not depend on where the
    sample sits and memory is n(n-1)/2 floats plus one block.  Needs at
    least 10 points; rejects degenerate data.
    """
    cloud = data if isinstance(data, PointCloud) else PointCloud(data)
    if cloud.size < 10:
        raise ValueError(f"smoothed CV needs at least 10 points, got {cloud.size}")
    h_ns = select_bandwidth_normal_scale(cloud)
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
        cloud = data if isinstance(data, PointCloud) else PointCloud(data)
        if cloud.dim != self.mean.shape[0]:
            raise ValueError(f"data dim {cloud.dim} does not match transform dim {self.mean.shape[0]}")
        return PointCloud((cloud.points - self.mean) / self.scale)

    def invert(self, data) -> PointCloud:
        cloud = data if isinstance(data, PointCloud) else PointCloud(data)
        if cloud.dim != self.mean.shape[0]:
            raise ValueError(f"data dim {cloud.dim} does not match transform dim {self.mean.shape[0]}")
        return PointCloud(cloud.points * self.scale + self.mean)


def standardize(data) -> tuple[PointCloud, StandardizeTransform]:
    """Center each coordinate and divide by its sample standard deviation.

    Uses the n-1 divisor.  Zero-spread coordinates are rejected rather than
    silently left unscaled.
    """
    cloud = data if isinstance(data, PointCloud) else PointCloud(data)
    sd = _sample_sd(cloud.points)
    if np.any(sd == 0.0):
        bad = int(np.flatnonzero(sd == 0.0)[0])
        raise ValueError(f"coordinate {bad} has zero spread; cannot standardize")
    t = StandardizeTransform(mean=cloud.points.mean(axis=0), scale=sd)
    return t.apply(cloud), t
