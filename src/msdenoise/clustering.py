"""Baseline clustering algorithms and the Adjusted Rand Index.

Three classic algorithms (k-means, spectral, agglomerative) wrapped behind a
common label container, plus the pair-counting ARI used to score partitions
against ground truth.  All three are deterministic functions of their inputs
and the seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .density import PointCloud
from .synthetic import _rng

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


def _as_points(data) -> np.ndarray:
    if isinstance(data, PointCloud):
        return data.points
    return PointCloud(np.asarray(data, dtype=np.float64)).points


def _sq_dists(x, centers):
    # (x - c)^2 expanded; clip the cancellation noise
    d2 = (
        np.sum(x * x, axis=1)[:, None]
        + np.sum(centers * centers, axis=1)[None, :]
        - 2.0 * x @ centers.T
    )
    return np.maximum(d2, 0.0)


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
    # report the objective from a direct residual pass, free of the
    # cancellation noise of the expanded distance formula
    wcss = float(((pts - centers[labels]) ** 2).sum())
    return labels, wcss, history


def kmeans(data, k, rng_seed=0, restarts=10) -> LabelSet:
    """Best-of-`restarts` k-means++ / Lloyd clustering into k groups."""
    pts = _as_points(data)
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
    dist = squareform(pdist(pts))
    aff = np.exp(dist**2 / (-2.0 * sigma**2))
    np.fill_diagonal(aff, 0.0)
    if knn is not None:
        knn = int(knn)
        if not 1 <= knn < n:
            raise ValueError(f"knn must be in 1..{n - 1}")
        np.fill_diagonal(dist, np.inf)
        keep = np.zeros_like(aff, dtype=bool)
        nearest = np.argpartition(dist, knn - 1, axis=1)[:, :knn]
        keep[np.arange(n)[:, None], nearest] = True
        # union symmetrization: keep the edge if either endpoint wants it
        aff = np.where(keep | keep.T, aff, 0.0)
    return aff


def spectral(data, k, affinity_sigma="auto", knn=None, rng_seed=0) -> LabelSet:
    """Normalized spectral clustering with a gaussian affinity.

    Builds exp(-d^2 / 2 sigma^2) affinities (optionally sparsified to a
    symmetrized k-nearest-neighbor graph), takes the k leading eigenvectors
    of D^{-1/2} A D^{-1/2}, normalizes the rows, and k-means them.  If the
    graph splits into more connected components than k a warning is issued
    and clustering proceeds anyway.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    pts = _as_points(data)
    n = pts.shape[0]
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if k > 1 and n < k + 1:
        raise ValueError("need at least k+1 points")
    if k == 1:
        return LabelSet(np.zeros(n, dtype=np.int64), 1)

    if affinity_sigma in (None, "auto"):
        sigma = _auto_sigma(pts, rng_seed)
    else:
        sigma = float(affinity_sigma)
        if not sigma > 0.0:
            raise ValueError("affinity_sigma must be positive")

    aff = _affinity(pts, sigma, knn)
    n_comp, _ = connected_components(csr_matrix(aff > 0.0), directed=False)
    if n_comp > k:
        warnings.warn(
            f"affinity graph has {n_comp} connected components but k={k}; "
            "labels may be unstable",
            stacklevel=2,
        )

    deg = aff.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.where(deg > 0.0, deg, 1.0))
    m = aff * inv_sqrt[:, None] * inv_sqrt[None, :]
    m = 0.5 * (m + m.T)
    _, vecs = np.linalg.eigh(m)
    rows = vecs[:, -k:]
    norms = np.linalg.norm(rows, axis=1)
    rows = rows / np.where(norms > 0.0, norms, 1.0)[:, None]
    return kmeans(rows, k, rng_seed=rng_seed)


_LINKAGES = ("single", "complete", "average", "ward")


def hierarchical(data, k, linkage="average") -> LabelSet:
    """Agglomerative clustering cut at k clusters."""
    from scipy.cluster import hierarchy

    pts = _as_points(data)
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
