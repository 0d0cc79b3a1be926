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
energy statistic and its permutation test build no pairwise matrix: the test
scores its permutations `_PERM_BLOCK` at a time, in one index and one value
buffer of `_PERM_BLOCK` x N numbers that it allocates once.
Energy for d >= 2 and MMD, direct and permuted alike, come from one pooled
N x N matrix, in place of its squared pair distances (`_pair_sq_distances`),
under the word budget of `_check_words` (N at most 8192 points): a direct
statistic is the observed value of the permutation route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import (_check_words, _count, _frozen, _median_pair_distance, _pair_sq_distances,
                      _points, _positive, fit)
from .shift import ShiftOperator
from .synthetic import _NOISE_HIGH, _NOISE_LOW, _rng, gen_gmm_1d


def _sample_pair(x, y):
    xa, ya = _points(x), _points(y)
    if xa.shape[1] != ya.shape[1]:
        raise ValueError(f"dimension mismatch: {xa.shape[1]} vs {ya.shape[1]}")
    return xa, ya


def energy_statistic(x, y) -> float:
    """Sample energy distance, scaled by nm/(n+m).

    (nm/(n+m)) * (2 mean||Xi-Yj|| - mean||Xi-Xi'|| - mean||Yj-Yj'||), with the
    within-sample means taken over all ordered pairs including the diagonal.
    Samples in one dimension are scored in sorted order, without distances,
    as the observed value of their permutation route.
    """
    xa, ya = _sample_pair(x, y)
    if xa.shape[1] == 1:
        return _sorted_permutation_stats(xa, ya, 0, None)[0]
    return _pooled_statistic("energy", xa, ya)[0]


def _sorted_pool(xa, ya):
    """The sorted pooled 1-D sample and what scores its splits.

    Returns the pooled values in sorted order less the median element; each
    row's rank, rank[i] being the sorted position of pooled row i (X rows
    first); the sum of |a - b| over the ordered pairs of the pool; and the
    pair weights of a sorted side of n values, then of one of m.
    """
    pooled = np.concatenate([xa[:, 0], ya[:, 0]])
    order = np.argsort(pooled)
    z = pooled[order]
    z -= z[(z.size - 1) // 2]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    grand = 2.0 * (z * _pair_weights(z.size)).sum()
    weights = np.concatenate([_pair_weights(xa.shape[0]), _pair_weights(ya.shape[0])])
    return z, rank, grand, weights


def _pair_weights(size):
    """Weight 2k - 1 - size of the k-th of `size` sorted values (k from 1)."""
    return np.arange(1 - size, size, 2, dtype=np.float64)


def _sorted_energy(z, ranks, n, grand, weights, values):
    """1-D energy statistics of the splits in the rows of `ranks`.

    `z`, `grand` and `weights` come from `_sorted_pool`; each row of `ranks`
    lists sorted positions, its first n those of the X side.  Both sides of
    each row are sorted in place, and `values`, a float array of the shape
    of `ranks`, is overwritten.  The cross sum comes from the grand sum, so
    each split costs two row sorts and two weighted sums.  Each row's sums
    depend only on the values of its two sides, so a split scores the same
    bits in any block and as a direct statistic.
    """
    m = z.size - n
    ranks[:, :n].sort(axis=1)
    ranks[:, n:].sort(axis=1)
    # the indices are in range: mode="clip" writes straight into `values`,
    # where the default mode would gather into a temporary copy first
    np.take(z, ranks, out=values, mode="clip")
    # in place over the whole contiguous block; a product into the strided
    # view of one side would be buffered through a copy
    values *= weights
    s_xx = 2.0 * values[:, :n].sum(axis=1)
    s_yy = 2.0 * values[:, n:].sum(axis=1)
    s_xy = 0.5 * (grand - s_xx - s_yy)
    return n * m / z.size * (2.0 * s_xy / (n * m) - s_xx / n**2 - s_yy / m**2)


def _median_distance(sq) -> float:
    """The automatic kernel scale: the median pair distance of the squared
    pair distances `sq`, or for a degenerate pool (mostly duplicated points)
    the least positive distance, or unit scale if every point coincides."""
    med = _median_pair_distance(sq)
    if med > 0.0:
        return med
    positive = sq[sq > 0.0]
    return float(np.sqrt(positive.min())) if positive.size else 1.0


def mmd2_biased(x, y, kernel_sigma="auto") -> float:
    """Biased V-statistic estimate of squared MMD with a gaussian kernel.

    kernel k(a, b) = exp(-||a-b||^2 / (2 sigma^2)); sigma defaults to the
    median pairwise distance of the pooled sample ("auto"); a given sigma
    must be positive and finite.
    """
    xa, ya = _sample_pair(x, y)
    sigma = None if kernel_sigma == "auto" else _positive(kernel_sigma, "kernel_sigma")
    return _pooled_statistic("mmd", xa, ya, sigma)[0]


def _pooled_statistic(which, xa, ya, sigma=None):
    """The statistic `which` of X against Y, and the pooled pair matrix.

    Energy takes the distance matrix of the pooled sample, MMD the gaussian
    kernel matrix at scale `sigma` (None: the median pair distance), both in
    place of its squared pair distances.  Each block mean is taken over a
    contiguous copy, so it sums in the order of a per-sample matrix rather
    than a strided view.  A matrix over `_check_words` raises ValueError
    before any distance is taken.
    """
    n, m = xa.shape[0], ya.shape[0]
    total = n + m
    # peak 1.5 (n+m)^2 words with the automatic MMD scale, 1.25 otherwise (tracemalloc, n+m = 2000)
    _check_words(total * total, f"the pooled (n+m) x (n+m) matrix at n+m={total}")
    matrix = _pair_sq_distances(np.vstack([xa, ya]))
    if which == "energy":
        np.sqrt(matrix, out=matrix)
    else:  # exp(0) = 1 on the diagonal
        matrix *= -0.5 / (_median_distance(matrix) if sigma is None else sigma) ** 2
        np.exp(matrix, out=matrix)
    cross = np.ascontiguousarray(matrix[:n, n:]).mean()
    within_x = np.ascontiguousarray(matrix[:n, :n]).mean()
    within_y = np.ascontiguousarray(matrix[n:, n:]).mean()
    if which == "energy":
        return float(n * m / total * (2.0 * cross - within_x - within_y)), matrix
    return float(within_x + within_y - 2.0 * cross), matrix


def _check_alpha(alpha) -> None:
    """Refuse a test level outside (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest case, despite the name

    statistic: float
    p_value: float
    n_permutations: int
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.p_value <= 1.0:
            raise ValueError("p_value must lie in (0, 1]")
        _count(self.n_permutations, "n_permutations")
        _check_alpha(self.alpha)

    @property
    def reject(self) -> bool:
        return self.p_value <= self.alpha


def permutation_test(stat, x, y, n_perm=999, rng_seed=0, alpha=0.05) -> TestResult:
    """Permutation two-sample test for a statistic that grows under H1.

    `stat` is either a callable (X, Y) -> float or one of the strings
    "energy" / "mmd".  For 1-D samples, "energy" scores every permutation in
    sorted order, in O(N) memory per permutation and with the same bits as
    the callable `energy_statistic`; otherwise the strings select a
    pooled-matrix evaluation that computes every permuted statistic with two
    matrix products.  All routes draw the same permutations in the same order
    from the seeded generator, so they are interchangeable.
    p = (1 + #{permuted >= observed}) / (1 + n_perm); reject when p <= alpha,
    which must lie in (0, 1).
    """
    xa, ya = _sample_pair(x, y)
    n_perm = _count(n_perm, "n_perm", 99)
    _check_alpha(alpha)
    rng = np.random.default_rng(rng_seed)
    n, m = xa.shape[0], ya.shape[0]

    if callable(stat):
        observed = float(stat(xa, ya))
        pooled = np.vstack([xa, ya])
        exceed = 0
        for _, perms in _permutation_blocks(np.arange(n + m), n_perm, rng):
            for perm in perms:
                if float(stat(pooled[perm[:n]], pooled[perm[n:]])) >= observed:
                    exceed += 1
    else:
        if stat == "energy" and xa.shape[1] == 1:
            observed, perm_stats = _sorted_permutation_stats(xa, ya, n_perm, rng)
        elif stat in ("energy", "mmd"):
            observed, perm_stats = _pooled_permutation_stats(stat, xa, ya, n_perm, rng)
        else:
            raise ValueError("stat must be callable, 'energy', or 'mmd'")
        exceed = int((perm_stats >= observed).sum())

    p = (1.0 + exceed) / (1.0 + n_perm)
    return TestResult(observed, p, n_perm, alpha)


# Permutations drawn together by every route.  The 1-D energy route reuses one
# intp and one float64 block of _PERM_BLOCK x (n+m) entries: 0.56 MiB at
# n+m = 2300, where the whole test (199 permutations) stays under a tracemalloc
# peak of 1 MiB.  16 was the fastest of 8, 16, 32 and 64 on the twosample
# benchmark (2 cores).
_PERM_BLOCK = 16


def _permutation_blocks(template, n_perm, rng):
    """(first index, rows) blocks of n_perm rows `template[rng.permutation(N)]`.

    Each row, a copy of the N entries of `template`, is shuffled in place by
    `rng.permuted`, which draws positions independently of the contents: the
    generator ends as after one `permutation` draw per row.  One block is
    reused, so its rows are overwritten when the next block is drawn.
    """
    block = np.empty((min(_PERM_BLOCK, n_perm), template.size), dtype=template.dtype)
    for lo in range(0, n_perm, _PERM_BLOCK):
        rows = block[:min(_PERM_BLOCK, n_perm - lo)]
        rows[:] = template
        rng.permuted(rows, axis=1, out=rows)
        yield lo, rows


def _sorted_permutation_stats(xa, ya, n_perm, rng):
    """The observed 1-D energy statistic and every permuted one, in sorted order.

    The observed split is scored on a copy of the sorted ranks, since
    `_sorted_energy` sorts its rows in place; the permuted ones are drawn
    over those ranks.
    """
    n, total = xa.shape[0], xa.shape[0] + ya.shape[0]
    z, rank, grand, weights = _sorted_pool(xa, ya)
    observed = _sorted_energy(z, rank[np.newaxis].copy(), n, grand, weights, np.empty((1, total)))
    values = np.empty((min(_PERM_BLOCK, n_perm), total))
    stats = np.empty(n_perm)
    for lo, ranks in _permutation_blocks(rank, n_perm, rng):
        rows = ranks.shape[0]
        stats[lo:lo + rows] = _sorted_energy(z, ranks, n, grand, weights, values[:rows])
    return float(observed[0]), stats


def _pooled_permutation_stats(which, xa, ya, n_perm, rng):
    """Observed statistic plus all permuted values via pooled quadratic forms.

    For an indicator u of the X side, the three pair-sums over the symmetric
    pooled matrix M are u'Mu, u'M(1-u) and (1-u)'M(1-u); each permutation then
    costs one matrix-vector product, batched into a single GEMM.  A GEMM
    operand pair over `_check_words` raises ValueError before any distance
    is taken.
    """
    n, m = xa.shape[0], ya.shape[0]
    total = n + m
    # peak (n+m)^2 + 2 (n+m) n_perm words: matrix, indicator, product (tracemalloc, n+m = 2000)
    _check_words(2 * total * n_perm,
                 f"the two (n+m) x n_perm GEMM operands at n+m={total} with n_perm={n_perm}")
    observed, matrix = _pooled_statistic(which, xa, ya)
    row_tot = matrix.sum(axis=1)
    grand = float(row_tot.sum())
    u = np.zeros((total, n_perm))
    for lo, perms in _permutation_blocks(np.arange(total), n_perm, rng):
        u[perms[:, :n], np.arange(lo, lo + perms.shape[0])[:, None]] = 1.0
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
    model = fit(points, "scv")
    return ShiftOperator(model).step(model.data.points)


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
        grid = _frozen(self.grid)
        before = _frozen(self.power_before)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "power_before", before)
        if grid.shape != before.shape or grid.ndim != 1:
            raise ValueError("grid and power_before must be 1-D and congruent")
        rates = [before]
        if self.power_after is not None:
            after = _frozen(self.power_after)
            if after.shape != grid.shape:
                raise ValueError("power_after length mismatch")
            object.__setattr__(self, "power_after", after)
            rates.append(after)
        for r in rates:
            if r.size and (r.min() < 0.0 or r.max() > 1.0):
                raise ValueError("rejection rates must lie in [0, 1]")
        object.__setattr__(self, "n_reps", _count(self.n_reps, "n_reps"))


def _power_curve(make_samples, grid, h0_value, n_reps, alpha, msd, rng_seed, test,
                 n_perm):
    """Rejection rates over `grid`; with msd, extras hold the rate after
    denoising at the null value `h0_value` and whether it exceeds alpha."""
    n_reps = _count(n_reps, "n_reps")
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
    extras = {}
    if msd:
        for value, rate in zip(grid, after):
            if value == h0_value:
                extras = {"h0_after_rate": float(rate), "h0_inflated": bool(rate > alpha)}
    return PowerCurve(grid, before, after, n_reps, test, alpha, extras)


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

    return _power_curve(make, grid, 0, n_reps, alpha, msd, rng_seed, test, n_perm)


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

    return _power_curve(make, grid, 0.5, n_reps, alpha, msd, rng_seed, test, n_perm)
