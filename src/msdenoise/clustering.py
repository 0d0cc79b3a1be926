"""Baseline clustering algorithms, the Adjusted Rand Index, and the
before/after-denoising clustering experiments.

Three classic algorithms (k-means, spectral, agglomerative) wrapped behind a
common label container, plus the pair-counting ARI used to score partitions
against ground truth; spectral takes its scale and its affinities, in place,
from one matrix (`density._pair_sq_distances`).  All three are deterministic
functions of their inputs and the seed.  `run_clustering_case` and
`run_dataset_eval` score one of them before and after one mean shift sweep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .density import (_as_cloud, _by_column, _frozen, _median_pair_distance, _pair_sq_distances,
                      _sq_distances, fit, select_bandwidth_scv)
from .shift import ShiftOperator
from .synthetic import _CASES, _generate_case, _rng

_MAX_LLOYD = 300
# k-means++ restarts per `kmeans` call.  Their Lloyd iterations run as one
# batch, one leading array index per restart.
_RESTARTS = 10
# A Lloyd batch peaks below (d + 8) n 8-byte words per restart by tracemalloc
# (7.26 n at d = 1 and 2, 7.27 n at d = 5 and 8; n = 20,000, k = 4).  Inputs
# too large to batch every restart under this many words batch fewer at once.
_BATCH_WORDS = 1 << 22


@dataclass(frozen=True)
class LabelSet:
    """A hard partition: integer cluster ids in 0..k-1, one per point."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        lab = _frozen(self.labels, np.int64)
        if lab.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        k = int(self.k)
        if k < 1:
            raise ValueError("k must be at least 1")
        if lab.size and (lab.min() < 0 or lab.max() >= k):
            raise ValueError("labels must lie in 0..k-1")
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "k", k)

    def __len__(self):
        return self.labels.size


def _kmeanspp(pts, k, rngs):
    """k-means++ seeds (A, k, d), one seeding per generator in `rngs`.

    Each generator makes the draws a lone seeding would make; only the
    distance updates are shared.
    """
    n = pts.shape[0]
    centres = np.empty((len(rngs), k, pts.shape[1]))
    for a, rng in enumerate(rngs):
        centres[a, 0] = pts[int(rng.integers(n))]
    d2, new, scratch = (np.empty((len(rngs), n)) for _ in range(3))
    _sq_distances(d2, scratch, pts.T, centres[:, 0])
    for j in range(1, k):
        for a, rng in enumerate(rngs):
            total = d2[a].sum()
            if total > 0.0:
                centres[a, j] = pts[rng.choice(n, p=d2[a] / total)]
            else:
                centres[a, j] = pts[int(rng.integers(n))]
        _sq_distances(new, scratch, pts.T, centres[:, j])
        np.minimum(d2, new, out=d2)
    return centres


def _assign(pts, centres):
    """Nearest of k centres (A, k, d) for every point, under each of A sets.

    Returns labels (A, n), the first nearest centre on ties as `argmin`
    picks it, and each point's squared distance to that centre.  Distances
    come from direct differences, not the expanded square: translating the
    data moves none by more than its rounding.
    """
    own, d2, scratch = (np.empty((centres.shape[0], pts.shape[0])) for _ in range(3))
    _sq_distances(own, scratch, pts.T, centres[:, 0])
    labels = np.zeros(own.shape, dtype=np.int64)
    for j in range(1, centres.shape[1]):
        _sq_distances(d2, scratch, pts.T, centres[:, j])
        closer = d2 < own
        labels[closer] = j
        np.copyto(own, d2, where=closer)
    return labels, own


def _move_centres(pts, labels, centres, own):
    """Move each centre of `centres` (A, k, d) to the mean of its members.

    A cluster left empty is re-seeded at the point farthest from its own
    centre (`own`, from `_assign`).  Means have the bits of
    `members.mean(axis=0)`: with d >= 2 that sums the rows in order, as
    `np.bincount` does, but with d = 1 it sums pairwise.
    """
    n_sets, k, d = centres.shape
    keys = (labels + k * np.arange(n_sets)[:, None]).ravel()
    counts = np.bincount(keys, minlength=n_sets * k).reshape(n_sets, k)
    if d == 1:
        for a, j in zip(*np.nonzero(counts)):
            centres[a, j] = pts[labels[a] == j].mean(axis=0)
    else:
        # one coordinate tiled at a time: A n words, not d A n
        sums = np.stack([np.bincount(keys, weights=np.tile(col, n_sets), minlength=n_sets * k)
                         for col in pts.T], axis=1).reshape(n_sets, k, d)
        full = counts > 0
        centres[full] = sums[full] / counts[full][:, None]
    for a, j in zip(*np.nonzero(counts == 0)):
        centres[a, j] = pts[np.argmax(own[a])]


def _lloyd(pts, centres):
    """Lloyd's algorithm from each of A seedings (A, k, d), as one batch.

    Returns (labels, wcss, histories): per seeding, the final assignment,
    the within-cluster sum of squares of the final centres, and the
    objective at each assignment step, which never increases.  A seeding
    stops when its assignment repeats, as it would alone, and the rest go on.
    """
    n_sets = centres.shape[0]
    labels = np.empty((n_sets, pts.shape[0]), dtype=np.int64)
    histories = [[] for _ in range(n_sets)]
    live = np.arange(n_sets)
    for step in range(_MAX_LLOYD):
        cen = centres[live]
        new, own = _assign(pts, cen)
        for a, objective in zip(live.tolist(), own.sum(axis=1).tolist()):
            histories[a].append(objective)
        if step:
            moved = (new != labels[live]).any(axis=1)
            live, cen, new, own = live[moved], cen[moved], new[moved], own[moved]
            if not live.size:
                break
        labels[live] = new
        _move_centres(pts, new, cen, own)
        centres[live] = cen
    # one (n, d) difference at a time, summed flat as a stacked one would be
    wcss = np.array([np.square(pts - centres[a][labels[a]]).sum() for a in range(n_sets)])
    return labels, wcss, histories


def kmeans(data, k, rng_seed=0) -> LabelSet:
    """Best of `_RESTARTS` k-means++ / Lloyd runs into k groups.

    Restart r draws from its own generator, `_rng(rng_seed, r)`; the first
    restart of least within-cluster sum of squares wins.  Seeding draws
    points by row index, so reordered rows draw other seeds and may give
    other labels; on well-separated groups the partition is the same up to
    relabelling.
    """
    pts = _as_cloud(data).points
    n, d = pts.shape
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    batch = max(1, min(_RESTARTS, _BATCH_WORDS // ((d + 8) * n)))
    best, best_wcss = None, None
    for first in range(0, _RESTARTS, batch):
        rngs = [_rng(rng_seed, r) for r in range(first, min(first + batch, _RESTARTS))]
        labels, wcss, _ = _lloyd(pts, _kmeanspp(pts, k, rngs))
        a = int(np.argmin(wcss))
        if best is None or wcss[a] < best_wcss:
            best, best_wcss = labels[a], wcss[a]
    return LabelSet(best, k)


def _affinity(sq, sigma, knn=None):
    """Gaussian affinities exp(-d^2 / 2 sigma^2), zero diagonal, optionally
    kNN-sparsified, in place of the squared pair distances `sq`.  `knn`, when
    given, must lie in 1..n-1; `spectral` checks it."""
    # no point is its own neighbour, and exp(-inf) zeroes the diagonal
    np.fill_diagonal(sq, np.inf)
    if knn is not None:
        # a copy, so the n x n index array is freed before the affinities
        nearest = np.argpartition(sq, knn - 1, axis=1)[:, :knn].copy()
    # d^2 as the square of the rounded d: labels on tied eigenvalues follow last bits
    np.square(np.sqrt(sq, out=sq), out=sq)
    sq /= -2.0 * sigma**2
    np.exp(sq, out=sq)
    if knn is not None:
        keep = np.zeros(sq.shape, dtype=bool)
        np.put_along_axis(keep, nearest, True, axis=1)
        keep |= keep.T  # union: keep the edge if either endpoint wants it
        sq *= keep


def _n_components(adj) -> int:
    """Number of connected components of a graph given as a boolean matrix.

    Breadth-first search from the first unseen vertex; each vertex's row is
    read once, as part of one frontier, so the work is O(n^2) boolean
    operations.  `adj` must be symmetric.
    """
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    n_comp = 0
    while not seen.all():
        frontier = np.zeros(n, dtype=bool)
        frontier[np.argmin(seen)] = True
        n_comp += 1
        while frontier.any():
            seen |= frontier
            frontier = adj[frontier].any(axis=0) & ~seen
    return n_comp


def _normalize(aff):
    """D^{-1/2} A D^{-1/2} of a symmetric affinity matrix A, in place.

    With s = deg^{-1/2}, entry (i, j) is the mean of (a_ij s_i) s_j and
    (a_ij s_j) s_i: exactly symmetric, and the bits of averaging the scaled
    matrix with its transpose.  Row blocks of about 32k entries keep the
    two scaled copies in cache and need no n x n temporary.
    """
    n = aff.shape[0]
    deg = aff.sum(axis=1)
    s = 1.0 / np.sqrt(np.where(deg > 0.0, deg, 1.0))
    step = max(1, (1 << 15) // n)
    for i in range(0, n, step):
        rows = aff[i:i + step]
        si = s[i:i + step]
        x = np.empty_like(rows)
        _by_column(np.multiply, rows, si, x)
        x *= s
        y = rows * s
        _by_column(np.multiply, y, si, y)
        np.add(x, y, out=rows)
        rows *= 0.5


# The most memory `spectral` holds at once is in the kNN path of `_affinity`,
# the squared pair distances and their n x n argpartition index: 2.0 n^2 words
# by tracemalloc at n = 2000 (1.5 with the automatic scale's upper triangle,
# 1.25 with the dense graph's edges).  At this limit an n x n array is 512 MiB.
_MAX_SPECTRAL_POINTS = 8192


def spectral(data, k, affinity_sigma="auto", knn=None, rng_seed=0) -> LabelSet:
    """Normalized spectral clustering with a gaussian affinity.

    Builds exp(-d^2 / 2 sigma^2) affinities (sigma "auto" is the median
    pair distance, and a given sigma must be positive and finite;
    optionally sparsified to a symmetrized k-nearest-neighbor graph), takes
    the k leading eigenvectors of D^{-1/2} A D^{-1/2}, normalizes the rows,
    and k-means them.  Only those k eigenpairs are computed (LAPACK
    ``syevr`` with an index subset), and LAPACK works in the normalized
    matrix itself: it is exactly symmetric, so its transpose is the
    Fortran-order array LAPACK reads.
    Connected components are counted by breadth-first search on the dense
    graph; if there are more than k a warning is issued and clustering
    proceeds anyway.  More than `_MAX_SPECTRAL_POINTS` points, or a `knn`
    outside 1..n-1, raise ValueError before any pairwise distance is taken.
    """
    from scipy.linalg import eigh

    pts = _as_cloud(data).points
    n = pts.shape[0]
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if k > 1 and n < k + 1:
        raise ValueError("need at least k+1 points")
    if k == 1:
        return LabelSet(np.zeros(n, dtype=np.int64), 1)
    if n > _MAX_SPECTRAL_POINTS:
        raise ValueError(
            f"spectral clustering builds n x n matrices; n={n} exceeds the "
            f"limit of {_MAX_SPECTRAL_POINTS} points"
        )
    if knn is not None:
        knn = int(knn)
        if not 1 <= knn < n:
            raise ValueError(f"knn must be in 1..{n - 1}")

    auto = affinity_sigma == "auto"
    if not auto:
        sigma = float(affinity_sigma)
        if not 0.0 < sigma < np.inf:
            raise ValueError(f"affinity_sigma must be positive and finite, got {sigma}")

    # one matrix serves the automatic scale, then becomes the affinities
    aff = _pair_sq_distances(pts)
    if auto:
        sigma = _median_pair_distance(aff)
        if sigma <= 0.0:
            raise ValueError("cannot pick a bandwidth: the points have zero spread")
    _affinity(aff, sigma, knn)
    # counted before scaling, which can underflow an edge to zero
    n_comp = _n_components(aff > 0.0)
    if n_comp > k:
        warnings.warn(
            f"affinity graph has {n_comp} connected components but k={k}; "
            "labels may be unstable",
            stacklevel=2,
        )

    _normalize(aff)
    # eigenvalues ascend, so these columns are the k leading eigenvectors;
    # a column's sign may differ from a full solve, and k-means is exactly
    # invariant to negating a coordinate.  The entries are finite: affinities
    # lie in [0, 1] and the degree scalings are finite and positive.
    _, rows = eigh(aff.T, subset_by_index=[n - k, n - 1], overwrite_a=True,
                   check_finite=False)
    norms = np.linalg.norm(rows, axis=1)
    rows = rows / np.where(norms > 0.0, norms, 1.0)[:, None]
    return kmeans(rows, k, rng_seed=rng_seed)


def hierarchical(data, k) -> LabelSet:
    """Average-linkage agglomerative clustering cut at k clusters."""
    from scipy.cluster import hierarchy

    pts = _as_cloud(data).points
    n = pts.shape[0]
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    merge_tree = hierarchy.linkage(pts, method="average")
    flat = hierarchy.fcluster(merge_tree, t=k, criterion="maxclust")
    return LabelSet(flat.astype(np.int64) - flat.min(), k)


def _label_array(x) -> np.ndarray:
    if isinstance(x, LabelSet):
        return x.labels
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    return arr


def ari(a, b) -> float:
    """Adjusted Rand Index between two partitions of the same points.

    Pair-counting index with the Hubert-Arabie chance adjustment.  The
    adjustment denominator vanishes only when both partitions are
    all-singletons or both a single block (a single point is both), so the
    partitions are equal and the index is 1.
    """
    la, lb = _label_array(a), _label_array(b)
    if la.shape != lb.shape:
        raise ValueError("label vectors differ in length")
    n = la.size
    if n == 0:
        raise ValueError("empty label vectors")
    if n == 1:
        return 1.0

    _, ia = np.unique(la, return_inverse=True)
    _, ib = np.unique(lb, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)

    def comb2(m):
        return m * (m - 1) / 2.0

    within = comb2(table).sum()
    rows = comb2(table.sum(axis=1)).sum()
    cols = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = rows * cols / total
    max_index = 0.5 * (rows + cols)
    denom = max_index - expected
    if denom == 0.0:
        return 1.0
    return float((within - expected) / denom)


# ---------------------------------------------------------------------------
# before/after-denoising experiments

# Spectral graph settings per case family: (knn, affinity_sigma).  The graph
# scale has to track the data scale: the bullseye spans a 13-unit box where a
# unit-sigma dense affinity separates ring from eye, while the spiral lives in
# a 1.6-unit box and needs a sparse neighbor graph so the cut follows the
# arms.
_CASE_SPECTRAL = {
    "bullseye": (None, 1.0),
    "spiral": (10, "auto"),
}


def _cluster_once(points, algo, k, seed, knn=None, sigma="auto"):
    if algo == "kmeans":
        return kmeans(points, k, rng_seed=seed)
    if algo == "spectral":
        return spectral(points, k, affinity_sigma=sigma, knn=knn, rng_seed=seed)
    if algo == "hier":
        return hierarchical(points, k)
    raise ValueError(f"unknown algorithm {algo!r}")


def _denoised(points, bandwidth):
    """One weighted-mean sweep of `points` under their own KDE at `bandwidth` or "scv"."""
    h = select_bandwidth_scv(points) if bandwidth == "scv" else bandwidth
    return ShiftOperator(fit(points, h)).step(points)


def run_clustering_case(case, algo="spectral", k=2, n_reps=50, rng_seed=0,
                        msd=True, knn=None, affinity_sigma=None,
                        bandwidth="scv"):
    """Before/after-denoising ARI over replicates of one synthetic case.

    Each replicate draws a fresh structure+noise dataset, clusters it, then
    denoises (one sweep, bandwidth a number or "scv") and clusters again.
    ARI is scored on the structure points only, since background noise has
    no true cluster.  Spectral graph settings default per case family
    (`knn` <= 0 forces a dense graph); the same settings apply before and
    after so the comparison is like for like.  Returns per-replicate scores
    plus summary statistics.
    """
    if case not in _CASES:
        raise ValueError(f"unknown case {case!r}; choose from {sorted(_CASES)}")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    knn_default, sigma_default = _CASE_SPECTRAL[_CASES[case][0]]
    if knn is None:
        knn = knn_default
    elif knn <= 0:
        knn = None
    sigma = sigma_default if affinity_sigma is None else affinity_sigma
    before = np.empty(n_reps)
    after = np.empty(n_reps) if msd else None
    for rep in range(n_reps):
        rng = _rng(rng_seed, rep)
        labeled = _generate_case(case, rng)
        pts = labeled.cloud.points
        truth = labeled.labels
        structure = truth < truth.max()  # noise carries the highest label
        cluster_seed = int(rng.integers(2**62))
        got = _cluster_once(pts, algo, k, cluster_seed, knn, sigma)
        before[rep] = ari(got.labels[structure], truth[structure])
        if msd:
            moved = _denoised(pts, bandwidth)
            got2 = _cluster_once(moved, algo, k, cluster_seed, knn, sigma)
            after[rep] = ari(got2.labels[structure], truth[structure])
    return _summarize_ari(case, algo, k, n_reps, before, after)


def run_dataset_eval(name, points, labels, k, algo="spectral", n_reps=10,
                     rng_seed=0, msd=True, bandwidth="scv"):
    """Before/after-denoising ARI on fixed `points` with known `labels`.

    The data is fixed, so replicates only vary the clustering seed; the
    denoised copy (one sweep, bandwidth a number or "scv") is made once.
    `name` labels the report.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    pts = _as_cloud(points).points
    if msd:
        moved = _denoised(pts, bandwidth)
    before = np.empty(n_reps)
    after = np.empty(n_reps) if msd else None
    for rep in range(n_reps):
        seed = int(_rng(rng_seed, rep).integers(2**62))
        before[rep] = ari(_cluster_once(pts, algo, k, seed).labels, labels)
        if msd:
            after[rep] = ari(_cluster_once(moved, algo, k, seed).labels, labels)
    return _summarize_ari(name, algo, k, n_reps, before, after)


def _summarize_ari(name, algo, k, n_reps, before, after):
    def sd(v):
        return float(v.std(ddof=1)) if v.size > 1 else 0.0

    out = {
        "scenario": name,
        "algo": algo,
        "k": k,
        "n_reps": n_reps,
        "ari_before_mean": float(before.mean()),
        "ari_before_sd": sd(before),
        "ari_before": before.tolist(),
    }
    if after is not None:
        out.update({
            "ari_after_mean": float(after.mean()),
            "ari_after_sd": sd(after),
            "ari_after": after.tolist(),
            "gap": float(after.mean() - before.mean()),
        })
    return out
