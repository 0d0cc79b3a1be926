"""Energy and kernel-MMD two-sample tests with permutation calibration.

The statistics are the classical energy distance and the biased (V-statistic)
squared maximum mean discrepancy under a gaussian kernel.  Calibration is by
random permutation of the pooled sample with the add-one p-value convention.
Power-curve harnesses rerun the tests over contamination grids, optionally
applying one empirical mean shift sweep to each sample first.

One-dimensional energy statistics come from the sorted pooled sample of
N = n + m values (the O(N log N) identity of Huo & Szekely 2016; Szekely &
Rizzo 2013): the sum of |a - b| over the ordered pairs of a set is
2 sum_k z_(k) (2k - 1 - size) over its members in sorted order.  So the 1-D
energy statistic and its permutation test build no pairwise matrix and hold
O(N) numbers per permutation, in blocks of `_PERM_BLOCK` permutations.
Energy for d >= 2 and MMD evaluate every permuted statistic from one pooled
N x N matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import _as_cloud, fit, select_bandwidth_scv
from .shift import ShiftOperator
from .synthetic import _rng, gen_gmm_1d

# uniform contamination support for the noise experiment: covers the mixture
# bulk [mu1 - 3 sigma, mu2 + 3 sigma]
_NOISE_LOW = -3.0
_NOISE_HIGH = 8.0


def _sample_pair(x, y):
    xa, ya = _as_cloud(x).points, _as_cloud(y).points
    if xa.shape[1] != ya.shape[1]:
        raise ValueError(f"dimension mismatch: {xa.shape[1]} vs {ya.shape[1]}")
    return xa, ya


def energy_statistic(x, y) -> float:
    """Sample energy distance, scaled by nm/(n+m).

    (nm/(n+m)) * (2 mean||Xi-Yj|| - mean||Xi-Xi'|| - mean||Yj-Yj'||), with the
    within-sample means taken over all ordered pairs including the diagonal.
    Samples in one dimension are scored in sorted order, without distances.
    """
    xa, ya = _sample_pair(x, y)
    n, m = xa.shape[0], ya.shape[0]
    if xa.shape[1] == 1:
        z, rank = _sorted_pool(xa, ya)
        return float(_sorted_energy(z, rank[np.newaxis], n)[0])
    from scipy.spatial.distance import cdist

    cross = cdist(xa, ya).mean()
    within_x = cdist(xa, xa).mean()
    within_y = cdist(ya, ya).mean()
    return float(n * m / (n + m) * (2.0 * cross - within_x - within_y))


def _sorted_pool(xa, ya):
    """Sorted pooled 1-D values less the median element, and each row's rank.

    rank[i] is the position of pooled row i (X rows first) in sorted order.
    """
    pooled = np.concatenate([xa[:, 0], ya[:, 0]])
    order = np.argsort(pooled)
    z = pooled[order]
    z -= z[(z.size - 1) // 2]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return z, rank


def _ordered_pair_sums(values):
    """Sum of |a - b| over the ordered pairs of each sorted row of `values`."""
    size = values.shape[-1]
    weights = np.arange(1 - size, size, 2, dtype=np.float64)  # 2k - 1 - size
    return 2.0 * (values * weights).sum(axis=-1)


def _sorted_energy(z, ranks, n):
    """1-D energy statistics of the splits in the rows of `ranks`.

    `z` is the sorted pooled sample; each row of `ranks` lists sorted
    positions, its first n those of the X side.  The cross sum comes from
    the grand sum, so each split costs two row sorts and two dot products.
    Each row's sums depend only on the values of its two sides, so a split
    scores the same bits in any block and as a direct statistic.
    """
    total = z.size
    m = total - n
    s_xx = _ordered_pair_sums(z[np.sort(ranks[:, :n], axis=1)])
    s_yy = _ordered_pair_sums(z[np.sort(ranks[:, n:], axis=1)])
    s_xy = 0.5 * (_ordered_pair_sums(z) - s_xx - s_yy)
    return n * m / total * (2.0 * s_xy / (n * m) - s_xx / n**2 - s_yy / m**2)


def _median_pairwise(pooled) -> float:
    from scipy.spatial.distance import pdist

    return _median_distance(pdist(pooled, "sqeuclidean"))


def _median_distance(sq_dists) -> float:
    """Median of the distances whose squares are `sq_dists`.

    The root is monotone, so the one or two middle squared distances give
    the median; their roots, averaged as `np.median` does, are the bits of
    `np.median(pdist(pooled))`.
    """
    size = sq_dists.size
    kth = [size // 2] if size % 2 else [size // 2 - 1, size // 2]
    med = float(np.median(np.sqrt(np.partition(sq_dists, kth)[kth]))) if size else 0.0
    if med > 0.0:
        return med
    positive = sq_dists[sq_dists > 0.0]
    # degenerate pools (mostly duplicated points): fall back to the smallest
    # positive spacing, or unit scale if every point coincides
    return float(np.sqrt(positive.min())) if positive.size else 1.0


def mmd2_biased(x, y, kernel_sigma="auto") -> float:
    """Biased V-statistic estimate of squared MMD with a gaussian kernel.

    kernel k(a, b) = exp(-||a-b||^2 / (2 sigma^2)); sigma defaults to the
    median pairwise distance of the pooled sample.
    """
    from scipy.spatial.distance import cdist

    xa, ya = _sample_pair(x, y)
    if kernel_sigma in (None, "auto"):
        sigma = _median_pairwise(np.vstack([xa, ya]))
    else:
        sigma = float(kernel_sigma)
        if not sigma > 0.0:
            raise ValueError("kernel_sigma must be positive")
    scale = -0.5 / sigma**2
    kxy = np.exp(scale * cdist(xa, ya, "sqeuclidean")).mean()
    kxx = np.exp(scale * cdist(xa, xa, "sqeuclidean")).mean()
    kyy = np.exp(scale * cdist(ya, ya, "sqeuclidean")).mean()
    return float(kxx + kyy - 2.0 * kxy)


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest case, despite the name

    statistic: float
    p_value: float
    n_permutations: int
    alpha: float
    reject: bool

    def __post_init__(self):
        if not 0.0 < self.p_value <= 1.0:
            raise ValueError("p_value must lie in (0, 1]")
        if self.n_permutations < 1:
            raise ValueError("n_permutations must be positive")


def _indicator_matrix(total, n_x, n_perm, rng):
    """0/1 columns marking which pooled rows each permutation sends to X."""
    u = np.zeros((total, n_perm))
    for b in range(n_perm):
        perm = rng.permutation(total)
        u[perm[:n_x], b] = 1.0
    return u


def permutation_test(stat, x, y, n_perm=999, rng_seed=0, alpha=0.05) -> TestResult:
    """Permutation two-sample test for a statistic that grows under H1.

    `stat` is either a callable (X, Y) -> float or one of the strings
    "energy" / "mmd".  For 1-D samples, "energy" scores every permutation in
    sorted order, in O(N) memory per permutation and with the same bits as
    the callable `energy_statistic`; otherwise the strings select a
    pooled-matrix evaluation that computes every permuted statistic with two
    matrix products.  All routes draw the same permutations in the same order
    from the seeded generator, so they are interchangeable.
    p = (1 + #{permuted >= observed}) / (1 + n_perm); reject when p <= alpha.
    """
    xa, ya = _sample_pair(x, y)
    if n_perm < 99:
        raise ValueError("n_perm must be at least 99")
    rng = np.random.default_rng(rng_seed)
    n, m = xa.shape[0], ya.shape[0]
    total = n + m

    if callable(stat):
        observed = float(stat(xa, ya))
        pooled = np.vstack([xa, ya])
        exceed = 0
        for _ in range(n_perm):
            perm = rng.permutation(total)
            if float(stat(pooled[perm[:n]], pooled[perm[n:]])) >= observed:
                exceed += 1
    elif stat in ("energy", "mmd"):
        if stat == "energy" and xa.shape[1] == 1:
            observed = energy_statistic(xa, ya)
            perm_stats = _sorted_permutation_stats(xa, ya, n_perm, rng)
        else:
            observed, perm_stats = _pooled_permutation_stats(stat, xa, ya, n_perm, rng)
        exceed = int((perm_stats >= observed).sum())
    else:
        raise ValueError("stat must be callable, 'energy', or 'mmd'")

    p = (1.0 + exceed) / (1.0 + n_perm)
    return TestResult(observed, p, n_perm, alpha, p <= alpha)


# Permutations drawn and scored together by the 1-D energy route: its index
# and value buffers hold _PERM_BLOCK x (n+m) entries.
_PERM_BLOCK = 64


def _sorted_permutation_stats(xa, ya, n_perm, rng):
    """Every permuted 1-D energy statistic, scored in sorted order.

    Each draw `rng.permutation(n+m)` is mapped through the sorted ranks of
    the pooled sample, in blocks of `_PERM_BLOCK` draws.
    """
    n, total = xa.shape[0], xa.shape[0] + ya.shape[0]
    z, rank = _sorted_pool(xa, ya)
    stats = np.empty(n_perm)
    for lo in range(0, n_perm, _PERM_BLOCK):
        hi = min(lo + _PERM_BLOCK, n_perm)
        ranks = rank[np.stack([rng.permutation(total) for _ in range(lo, hi)])]
        stats[lo:hi] = _sorted_energy(z, ranks, n)
    return stats


# The pooled route holds at most 1.75 (n+m)^2 float64 at once (MMD: the
# condensed pair array beside the square kernel matrix built from it, plus
# the GEMM operands; tracemalloc at n+m = 2000).  At this limit
# (n+m = 8192) that is about 900 MiB.
_MAX_POOLED_FLOATS = 1 << 26


def _pooled_permutation_stats(which, xa, ya, n_perm, rng):
    """Observed statistic plus all permuted values via pooled quadratic forms.

    For an indicator u of the X side, the three pair-sums over a symmetric
    matrix M are u'Mu, u'M(1-u) and (1-u)'M(1-u); each permutation then costs
    one matrix-vector product, batched into a single GEMM.  A pooled matrix
    of more than `_MAX_POOLED_FLOATS` entries raises ValueError before it is
    allocated.
    """
    from scipy.spatial.distance import cdist, pdist, squareform

    n, m = xa.shape[0], ya.shape[0]
    total = n + m
    if total * total > _MAX_POOLED_FLOATS:
        raise ValueError(
            f"the pooled permutation statistics build an (n+m) x (n+m) matrix; "
            f"n+m={total} exceeds the limit of {_MAX_POOLED_FLOATS} entries"
        )
    pooled = np.vstack([xa, ya])
    if which == "energy":
        matrix = cdist(pooled, pooled)
    else:
        # one pass over the pairs serves the median and the kernel matrix
        sq_dists = pdist(pooled, "sqeuclidean")
        sigma = _median_distance(sq_dists)
        sq_dists *= -0.5 / sigma**2
        matrix = squareform(np.exp(sq_dists, out=sq_dists))
        np.fill_diagonal(matrix, 1.0)
    # contiguous copies of the blocks hold the entries of the per-sample
    # matrices that energy_statistic and mmd2_biased build, in the same
    # layout, so their means (and the observed statistic) are the same bits
    cross = np.ascontiguousarray(matrix[:n, n:]).mean()
    within_x = np.ascontiguousarray(matrix[:n, :n]).mean()
    within_y = np.ascontiguousarray(matrix[n:, n:]).mean()
    if which == "energy":
        observed = float(n * m / total * (2.0 * cross - within_x - within_y))
    else:
        observed = float(within_x + within_y - 2.0 * cross)

    row_tot = matrix.sum(axis=1)
    grand = float(row_tot.sum())
    u = _indicator_matrix(total, n, n_perm, rng)
    ru = matrix @ u
    s_xx = np.einsum("ij,ij->j", u, ru)
    u_row = row_tot @ u
    s_xy = u_row - s_xx
    s_yy = grand - 2.0 * u_row + s_xx
    if which == "energy":
        stats = n * m / total * (2.0 * s_xy / (n * m) - s_xx / n**2 - s_yy / m**2)
    else:
        stats = s_xx / n**2 + s_yy / m**2 - 2.0 * s_xy / (n * m)
    return observed, stats


def msd_pipeline(points) -> np.ndarray:
    """One empirical mean shift sweep of a sample under its own fitted KDE.

    Bandwidth by smoothed cross-validation; every point moved once by the
    weighted-mean step.
    """
    pts = _as_cloud(points).points
    model = fit(pts, select_bandwidth_scv(pts))
    return ShiftOperator(model).step(pts)


@dataclass(frozen=True)
class PowerCurve:
    """Rejection rates across a scenario grid, before and after denoising."""

    grid: np.ndarray
    power_before: np.ndarray
    power_after: np.ndarray | None
    n_reps: int
    test: str
    alpha: float
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        before = np.asarray(self.power_before, dtype=np.float64)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "power_before", before)
        if grid.shape != before.shape or grid.ndim != 1:
            raise ValueError("grid and power_before must be 1-D and congruent")
        rates = [before]
        if self.power_after is not None:
            after = np.asarray(self.power_after, dtype=np.float64)
            if after.shape != grid.shape:
                raise ValueError("power_after length mismatch")
            object.__setattr__(self, "power_after", after)
            rates.append(after)
        for r in rates:
            if r.size and (r.min() < 0.0 or r.max() > 1.0):
                raise ValueError("rejection rates must lie in [0, 1]")
        if int(self.n_reps) < 1:
            raise ValueError("n_reps must be positive")
        object.__setattr__(self, "n_reps", int(self.n_reps))

    def to_dict(self) -> dict:
        after = None if self.power_after is None else self.power_after.tolist()
        out = {
            "grid": self.grid.tolist(),
            "power_before": self.power_before.tolist(),
            "power_after": after,
            "n_reps": self.n_reps,
            "test": self.test,
            "alpha": self.alpha,
        }
        out.update(self.extras)
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("grid,power_before,power_after,n_reps\n")
            for i, g in enumerate(self.grid):
                after = "nan" if self.power_after is None else (
                    "%.17g" % self.power_after[i])
                fh.write("%.17g,%.17g,%s,%d\n"
                         % (g, self.power_before[i], after, self.n_reps))


def _run_power_grid(make_samples, grid, n_reps, alpha, msd, rng_seed, test, n_perm):
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    before = np.zeros(len(grid))
    after = np.zeros(len(grid)) if msd else None
    for gi, value in enumerate(grid):
        hits_before = 0
        hits_after = 0
        for rep in range(n_reps):
            rng = _rng(rng_seed, gi, rep)
            s1, s2 = make_samples(value, rng)
            hits_before += permutation_test(test, s1, s2, n_perm, rng, alpha).reject
            if msd:
                d1, d2 = msd_pipeline(s1), msd_pipeline(s2)
                hits_after += permutation_test(test, d1, d2, n_perm, rng, alpha).reject
        before[gi] = hits_before / n_reps
        if msd:
            after[gi] = hits_after / n_reps
    return before, after


def _h0_extras(curve_grid, h0_value, after, alpha):
    extras = {}
    if after is not None:
        for gi, g in enumerate(curve_grid):
            if g == h0_value:
                rate = float(after[gi])
                extras["h0_after_rate"] = rate
                extras["h0_inflated"] = bool(rate > alpha)
    return extras


def power_experiment_uniform_noise(n0=1000, noise_grid=(0, 100, 200, 300, 400, 500),
                                   n_reps=200, alpha=0.05, msd=True, rng_seed=0,
                                   test="energy", n_perm=199) -> PowerCurve:
    """Rejection rates as uniform contamination is added to one sample.

    Both samples are n0 draws of the 0.7 N(0,1) + 0.3 N(5,1) mixture; the
    second additionally receives N1 uniform points on [-3, 8].  N1 = 0 is the
    null configuration.  With msd on, each sample is also denoised by one
    mean shift sweep under its own KDE and retested.
    """
    grid = [int(v) for v in noise_grid]
    if any(v < 0 for v in grid):
        raise ValueError("noise counts must be nonnegative")

    def make(value, rng):
        s1 = gen_gmm_1d(n0, rng_seed=rng).points
        s2 = gen_gmm_1d(n0, rng_seed=rng).points
        if value:
            noise = rng.uniform(_NOISE_LOW, _NOISE_HIGH, (int(value), 1))
            s2 = np.vstack([s2, noise])
        return s1, s2

    before, after = _run_power_grid(make, grid, n_reps, alpha, msd, rng_seed,
                                    test, n_perm)
    extras = _h0_extras(grid, 0, after, alpha)
    return PowerCurve(grid, before, after, n_reps, test, alpha, extras)


def power_experiment_mixture_proportion(pi_grid=(0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2),
                                        n0=1000, n_reps=200, alpha=0.05, msd=True,
                                        rng_seed=0, test="energy",
                                        n_perm=199) -> PowerCurve:
    """Rejection rates as the first sample's mixture weight departs from 0.5.

    The second sample keeps weight 0.5; the grid point 0.5 is the null
    configuration.  Same denoising option as the noise experiment.
    """
    grid = [float(p) for p in pi_grid]
    if any(not 0.0 < p < 1.0 for p in grid):
        raise ValueError("mixture weights must lie in (0, 1)")

    def make(value, rng):
        s1 = gen_gmm_1d(n0, mix=value, rng_seed=rng).points
        s2 = gen_gmm_1d(n0, mix=0.5, rng_seed=rng).points
        return s1, s2

    before, after = _run_power_grid(make, grid, n_reps, alpha, msd, rng_seed,
                                    test, n_perm)
    extras = _h0_extras(grid, 0.5, after, alpha)
    return PowerCurve(grid, before, after, n_reps, test, alpha, extras)
