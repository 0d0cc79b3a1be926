"""Baseline clustering algorithms, the Adjusted Rand Index, and the
before/after-denoising clustering experiments.

Three classic algorithms (k-means, spectral, agglomerative) wrapped behind a
common label container, plus the pair-counting ARI used to score partitions
against ground truth.  All three are deterministic functions of their inputs
and the seed.  `run_clustering_case` and `run_dataset_eval` score one of them
before and after one mean shift sweep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .density import _as_cloud, fit, select_bandwidth_scv
from .shift import ShiftOperator
from .synthetic import _CASES, _generate_case, _rng

_MAX_LLOYD = 300


@dataclass(frozen=True)
class LabelSet:
    """A hard partition: integer cluster ids in 0..k-1, one per point."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        lab = np.ascontiguousarray(self.labels, dtype=np.int64)
        if lab.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        k = int(self.k)
        if k < 1:
            raise ValueError("k must be at least 1")
        if lab.size and (lab.min() < 0 or lab.max() >= k):
            raise ValueError("labels must lie in 0..k-1")
        lab.flags.writeable = False
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "k", k)

    def __len__(self):
        return self.labels.size


def _sq_dists(x, centers):
    # direct differences, one centre at a time (k is small): translating the
    # data moves no distance by more than its rounding
    d2 = np.empty((x.shape[0], centers.shape[0]))
    for j, c in enumerate(centers):
        np.square(x - c).sum(axis=1, out=d2[:, j])
    return d2


def _kmeans_once(pts, k, rng):
    """One seeded k-means++ run of Lloyd's algorithm.

    Returns (labels, wcss, history) where history holds the objective value
    at each assignment step; it never increases.
    """
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[int(rng.integers(n))]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            centers[j] = pts[rng.choice(n, p=d2 / total)]
        else:
            centers[j] = pts[int(rng.integers(n))]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))

    labels = None
    history = []
    for _ in range(_MAX_LLOYD):
        dist2 = _sq_dists(pts, centers)
        new_labels = np.argmin(dist2, axis=1)
        history.append(float(dist2[np.arange(n), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = pts[labels == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
            else:
                # re-seed an emptied cluster at the point farthest from its
                # current center
                far = np.argmax(dist2[np.arange(n), labels])
                centers[j] = pts[far]
    # report the objective of the final centres
    wcss = float(((pts - centers[labels]) ** 2).sum())
    return labels, wcss, history


def kmeans(data, k, rng_seed=0, restarts=10) -> LabelSet:
    """Best-of-`restarts` k-means++ / Lloyd clustering into k groups."""
    pts = _as_cloud(data).points
    n = pts.shape[0]
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    best = None
    for r in range(restarts):
        labels, wcss, _ = _kmeans_once(pts, k, _rng(rng_seed, r))
        if best is None or wcss < best[1]:
            best = (labels, wcss)
    return LabelSet(best[0], k)


def _auto_sigma(pts, rng_seed):
    """Median pairwise distance over a subsample of at most 500 points."""
    from scipy.spatial.distance import pdist

    n = pts.shape[0]
    if n > 500:
        idx = _rng(rng_seed, 1).choice(n, 500, replace=False)
        pts = pts[np.sort(idx)]
    med = float(np.median(pdist(pts)))
    if med <= 0.0:
        raise ValueError("cannot pick a bandwidth: subsample has zero spread")
    return med


def _affinity(pts, sigma, knn=None):
    """Gaussian affinity matrix, zero diagonal, optionally kNN-sparsified."""
    from scipy.spatial.distance import squareform, pdist

    n = pts.shape[0]
    # exp over the n(n-1)/2 condensed distances; squareform zeroes the diagonal
    pair_dist = pdist(pts)
    aff = squareform(np.exp(pair_dist**2 / (-2.0 * sigma**2)))
    if knn is not None:
        knn = int(knn)
        if not 1 <= knn < n:
            raise ValueError(f"knn must be in 1..{n - 1}")
        dist = squareform(pair_dist)
        del pair_dist  # not needed past here; keeps the peak at 3.25 n^2 words
        np.fill_diagonal(dist, np.inf)
        keep = np.zeros_like(aff, dtype=bool)
        # a copy, so the n x n index array is freed before the masked copy
        nearest = np.argpartition(dist, knn - 1, axis=1)[:, :knn].copy()
        keep[np.arange(n)[:, None], nearest] = True
        # union symmetrization: keep the edge if either endpoint wants it
        aff = np.where(keep | keep.T, aff, 0.0)
    return aff


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


# The most memory `spectral` holds at once is in the kNN path of `_affinity`:
# three n x n 8-byte arrays (distances, affinities, the masked copy) and two
# boolean masks, 3.25 n^2 words by tracemalloc at n = 2000.  At this limit
# each 8-byte array is 512 MiB, about 1.6 GiB together.
_MAX_SPECTRAL_POINTS = 8192


def spectral(data, k, affinity_sigma="auto", knn=None, rng_seed=0) -> LabelSet:
    """Normalized spectral clustering with a gaussian affinity.

    Builds exp(-d^2 / 2 sigma^2) affinities (optionally sparsified to a
    symmetrized k-nearest-neighbor graph), takes the k leading eigenvectors
    of D^{-1/2} A D^{-1/2}, normalizes the rows, and k-means them.  Only
    those k eigenpairs are computed (LAPACK ``syevr`` with an index subset).
    Connected components are counted by breadth-first search on the dense
    graph; if there are more than k a warning is issued and clustering
    proceeds anyway.  More than `_MAX_SPECTRAL_POINTS` points raise
    ValueError before any n x n array is allocated.
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

    if affinity_sigma in (None, "auto"):
        sigma = _auto_sigma(pts, rng_seed)
    else:
        sigma = float(affinity_sigma)
        if not sigma > 0.0:
            raise ValueError("affinity_sigma must be positive")

    aff = _affinity(pts, sigma, knn)
    n_comp = _n_components(aff > 0.0)
    if n_comp > k:
        warnings.warn(
            f"affinity graph has {n_comp} connected components but k={k}; "
            "labels may be unstable",
            stacklevel=2,
        )

    deg = aff.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.where(deg > 0.0, deg, 1.0))
    aff *= inv_sqrt[:, None]
    aff *= inv_sqrt[None, :]
    m = np.add(aff, aff.T)
    m *= 0.5
    del aff
    # eigenvalues ascend, so these columns are the k leading eigenvectors;
    # a column's sign may differ from a full solve, and k-means is exactly
    # invariant to negating a coordinate
    _, rows = eigh(m, subset_by_index=[n - k, n - 1], overwrite_a=True)
    norms = np.linalg.norm(rows, axis=1)
    rows = rows / np.where(norms > 0.0, norms, 1.0)[:, None]
    return kmeans(rows, k, rng_seed=rng_seed)


_LINKAGES = ("single", "complete", "average", "ward")


def hierarchical(data, k, linkage="average") -> LabelSet:
    """Agglomerative clustering cut at k clusters."""
    from scipy.cluster import hierarchy

    pts = _as_cloud(data).points
    n = pts.shape[0]
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if linkage not in _LINKAGES:
        raise ValueError(f"linkage must be one of {_LINKAGES}")
    merge_tree = hierarchy.linkage(pts, method=linkage)
    flat = hierarchy.fcluster(merge_tree, t=k, criterion="maxclust")
    return LabelSet(flat.astype(np.int64) - flat.min(), k)


def _label_array(x) -> np.ndarray:
    if isinstance(x, LabelSet):
        return x.labels
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    return arr


def _canonical(labels):
    """Relabel ids by order of first appearance."""
    _, first = np.unique(labels, return_index=True)
    order = {labels[i]: rank for rank, i in enumerate(np.sort(first))}
    return np.array([order[v] for v in labels], dtype=np.int64)


def ari(a, b) -> float:
    """Adjusted Rand Index between two partitions of the same points.

    Pair-counting index with the Hubert-Arabie chance adjustment.  When the
    adjustment denominator vanishes (both partitions all-singletons or both
    a single block) the index is defined as 1 if the partitions are equal
    and 0 otherwise.
    """
    la, lb = _label_array(a), _label_array(b)
    if la.shape != lb.shape:
        raise ValueError("label vectors differ in length")
    n = la.size
    if n == 0:
        raise ValueError("empty label vectors")

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
        return 1.0 if np.array_equal(_canonical(la), _canonical(lb)) else 0.0
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
        raise ValueError("--reps must be >= 1")
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
