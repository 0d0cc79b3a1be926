"""Energy and kernel-MMD two-sample tests with permutation calibration.

The statistics are the classical energy distance and the biased (V-statistic)
squared maximum mean discrepancy under a gaussian kernel.  Calibration is by
random permutation of the pooled sample with the add-one p-value convention.
Power-curve harnesses rerun the tests over contamination grids, optionally
applying one empirical mean shift sweep to each sample first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import PointCloud
from .synthetic import _rng, gen_gmm_1d

# uniform contamination support for the noise experiment: covers the mixture
# bulk [mu1 - 3 sigma, mu2 + 3 sigma]
_NOISE_LOW = -3.0
_NOISE_HIGH = 8.0


def _as_sample(x, name) -> np.ndarray:
    if isinstance(x, PointCloud):
        return x.points
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    return PointCloud(arr).points


def _sample_pair(x, y):
    xa, ya = _as_sample(x, "X"), _as_sample(y, "Y")
    if xa.shape[1] != ya.shape[1]:
        raise ValueError(f"dimension mismatch: {xa.shape[1]} vs {ya.shape[1]}")
    return xa, ya


def energy_statistic(x, y) -> float:
    """Sample energy distance, scaled by nm/(n+m).

    (nm/(n+m)) * (2 mean||Xi-Yj|| - mean||Xi-Xi'|| - mean||Yj-Yj'||), with the
    within-sample means taken over all ordered pairs including the diagonal.
    """
    from scipy.spatial.distance import cdist

    xa, ya = _sample_pair(x, y)
    n, m = xa.shape[0], ya.shape[0]
    cross = cdist(xa, ya).mean()
    within_x = cdist(xa, xa).mean()
    within_y = cdist(ya, ya).mean()
    return float(n * m / (n + m) * (2.0 * cross - within_x - within_y))


def _median_pairwise(pooled) -> float:
    from scipy.spatial.distance import pdist

    d = pdist(pooled)
    med = float(np.median(d)) if d.size else 0.0
    if med > 0.0:
        return med
    positive = d[d > 0.0]
    # degenerate pools (mostly duplicated points): fall back to the smallest
    # positive spacing, or unit scale if every point coincides
    return float(positive.min()) if positive.size else 1.0


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
    "energy" / "mmd", which select a pooled-matrix evaluation that computes
    every permuted statistic with two matrix products.  Both routes draw the
    same permutations in the same order from the seeded generator, so they
    are interchangeable.  p = (1 + #{permuted >= observed}) / (1 + n_perm);
    reject when p <= alpha.
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
        observed, perm_stats = _pooled_permutation_stats(stat, xa, ya, n_perm, rng)
        exceed = int((perm_stats >= observed).sum())
    else:
        raise ValueError("stat must be callable, 'energy', or 'mmd'")

    p = (1.0 + exceed) / (1.0 + n_perm)
    return TestResult(observed, p, n_perm, alpha, p <= alpha)


def _pooled_permutation_stats(which, xa, ya, n_perm, rng):
    """Observed statistic plus all permuted values via pooled quadratic forms.

    For an indicator u of the X side, the three pair-sums over a symmetric
    matrix M are u'Mu, u'M(1-u) and (1-u)'M(1-u); each permutation then costs
    one matrix-vector product, batched into a single GEMM.
    """
    from scipy.spatial.distance import cdist

    n, m = xa.shape[0], ya.shape[0]
    total = n + m
    pooled = np.vstack([xa, ya])
    if which == "energy":
        matrix = cdist(pooled, pooled)
        observed = energy_statistic(xa, ya)
    else:
        sigma = _median_pairwise(pooled)
        matrix = np.exp(cdist(pooled, pooled, "sqeuclidean") * (-0.5 / sigma**2))
        observed = mmd2_biased(xa, ya, kernel_sigma=sigma)

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
    from .density import fit, select_bandwidth_scv
    from .shift import ShiftOperator

    pts = _as_sample(points, "sample")
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
