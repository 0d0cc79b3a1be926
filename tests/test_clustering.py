import itertools

import numpy as np
import pytest

from msdenoise import clustering
from msdenoise.clustering import (
    LabelSet,
    _affinity,
    _auto_sigma,
    _kmeans_once,
    _n_components,
    _rng,
    ari,
    hierarchical,
    kmeans,
    spectral,
)


def two_blobs(n_per=50, gap=10.0, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal(0.0, 0.3, (n_per, 2)),
        rng.normal(gap, 0.3, (n_per, 2)),
    ])
    return pts, np.repeat([0, 1], n_per)


def ari_pair_counting(a, b):
    """Brute-force oracle: enumerate all point pairs, apply the adjusted formula."""
    n = len(a)
    n11 = n10 = n01 = 0
    for i, j in itertools.combinations(range(n), 2):
        sa, sb = a[i] == a[j], b[i] == b[j]
        n11 += sa and sb
        n10 += sa and not sb
        n01 += sb and not sa
    total = n * (n - 1) / 2
    expected = (n11 + n10) * (n11 + n01) / total
    max_index = 0.5 * ((n11 + n10) + (n11 + n01))
    if max_index == expected:
        return None
    return (n11 - expected) / (max_index - expected)


class TestLabelSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabelSet([0, 1, 2], 2)
        with pytest.raises(ValueError):
            LabelSet([0, -1], 2)
        with pytest.raises(ValueError):
            LabelSet([[0, 1]], 2)
        ls = LabelSet([1, 0, 1], 2)
        assert len(ls) == 3
        assert not ls.labels.flags.writeable


class TestKMeans:
    def test_two_blobs_perfect(self):
        pts, truth = two_blobs()
        assert ari(kmeans(pts, 2, rng_seed=0), truth) == 1.0

    def test_k_one(self):
        pts, _ = two_blobs(10)
        assert set(kmeans(pts, 1).labels.tolist()) == {0}

    def test_k_equals_n_singletons(self):
        pts = np.random.default_rng(0).normal(size=(12, 2))
        labels, wcss, _ = _kmeans_once(pts, 12, _rng(0, 0))
        assert len(set(labels.tolist())) == 12
        assert wcss == 0.0

    def test_objective_never_increases(self):
        pts = np.random.default_rng(1).normal(size=(300, 3))
        for r in range(5):
            _, _, history = _kmeans_once(pts, 7, _rng(3, r))
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_duplicate_points_terminate(self):
        # all-duplicate data exercises the empty-cluster re-seeding branch
        pts = np.repeat([[0.0], [1.0]], 5, axis=0)
        labels, wcss, _ = _kmeans_once(pts, 3, _rng(0, 0))
        assert wcss == 0.0
        assert labels.min() >= 0 and labels.max() < 3

    def test_deterministic(self):
        pts, _ = two_blobs(30, gap=2.0, seed=3)
        a = kmeans(pts, 3, rng_seed=5)
        b = kmeans(pts, 3, rng_seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_validation(self):
        pts, _ = two_blobs(5)
        with pytest.raises(ValueError):
            kmeans(pts, 11)
        with pytest.raises(ValueError):
            kmeans(pts, 0)
        with pytest.raises(ValueError):
            kmeans(pts, 2, restarts=0)


def concentric_rings(n_ring=120):
    def ring(radius, seed):
        ang = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n_ring)
        return radius * np.c_[np.cos(ang), np.sin(ang)]

    pts = np.vstack([ring(1.0, 1), ring(5.0, 2)])
    pts += np.random.default_rng(3).normal(0.0, 0.05, pts.shape)
    return pts, np.repeat([0, 1], n_ring)


class TestSpectral:
    def test_rings_small_sigma(self):
        pts, truth = concentric_rings()
        assert ari(spectral(pts, 2, affinity_sigma=0.5, rng_seed=0), truth) == 1.0

    def test_rings_knn_graph(self):
        pts, truth = concentric_rings()
        assert ari(spectral(pts, 2, knn=10, rng_seed=0), truth) == 1.0

    def test_k_one(self):
        pts, _ = two_blobs(10)
        ls = spectral(pts, 1)
        assert set(ls.labels.tolist()) == {0} and ls.k == 1

    def test_duplication_invariance(self):
        rng = np.random.default_rng(4)
        small = np.vstack([rng.normal(0.0, 0.2, (5, 2)), rng.normal(4.0, 0.2, (5, 2))])
        base = spectral(small, 2, affinity_sigma=1.0, rng_seed=0)
        doubled = spectral(np.vstack([small, small]), 2, affinity_sigma=1.0, rng_seed=0)
        assert ari(np.tile(base.labels, 2), doubled) == 1.0

    def test_duplication_affinity_block_structure(self):
        small = np.random.default_rng(4).normal(size=(10, 2))
        a = _affinity(small, 1.0)
        doubled = _affinity(np.vstack([small, small]), 1.0)
        # copies sit at distance zero: affinity 1 off the true diagonal
        expect = np.block([[a, a + np.eye(10)], [a + np.eye(10), a]])
        assert np.array_equal(doubled, expect)

    def test_size_limit_fails_before_allocating(self, monkeypatch):
        import scipy.spatial.distance

        def refuse(*args, **kwargs):
            raise AssertionError("pairwise distances computed")

        monkeypatch.setattr(scipy.spatial.distance, "pdist", refuse)
        monkeypatch.setattr(scipy.spatial.distance, "squareform", refuse)
        limit = clustering._MAX_SPECTRAL_POINTS
        pts = np.zeros((limit + 1, 1))
        with pytest.raises(ValueError, match=f"limit of {limit} points"):
            spectral(pts, 2)
        with pytest.raises(ValueError, match=f"limit of {limit} points"):
            spectral(pts, 2, affinity_sigma=1.0, knn=5)

    def test_disconnected_graph_warns(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(c, 0.01, (5, 2)) for c in (0.0, 100.0, 200.0)])
        with pytest.warns(UserWarning, match="connected components"):
            spectral(pts, 2, affinity_sigma=0.05, rng_seed=0)

    def test_validation(self):
        pts = np.random.default_rng(0).normal(size=(4, 2))
        with pytest.raises(ValueError):
            spectral(pts, 5)
        with pytest.raises(ValueError):
            spectral(pts[:2], 2)
        with pytest.raises(ValueError):
            spectral(pts, 2, affinity_sigma=-1.0)
        with pytest.raises(ValueError):
            spectral(pts, 2, knn=4)


def three_clusters():
    rng = np.random.default_rng(0)
    return np.vstack([rng.normal(c, 0.01, (5, 2)) for c in (0.0, 100.0, 200.0)])


class TestComponentCount:
    @staticmethod
    def oracle(adj):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        return connected_components(csr_matrix(adj), directed=False)[0]

    def graphs(self):
        rings, _ = concentric_rings()
        complete = np.ones((30, 30), dtype=bool)
        np.fill_diagonal(complete, False)
        isolated = np.zeros((12, 12), dtype=bool)
        isolated[[0, 1, 5], [1, 5, 0]] = True
        rng = np.random.default_rng(8)
        sparse = rng.random((200, 200)) < 0.004
        yield "complete", complete
        yield "rings_knn", _affinity(rings, 1.0, knn=10) > 0.0
        yield "isolated", isolated | isolated.T
        yield "three_clusters", _affinity(three_clusters(), 0.05) > 0.0
        yield "random_sparse", sparse | sparse.T

    def test_matches_scipy(self):
        counts = {}
        for name, adj in self.graphs():
            counts[name] = _n_components(adj)
            assert counts[name] == self.oracle(adj), name
        # the graphs span one to many components
        assert counts["complete"] == 1
        assert counts["rings_knn"] == 2  # one per ring
        assert counts["isolated"] == 10
        assert counts["three_clusters"] == 3
        assert counts["random_sparse"] > 5


def spectral_full_reference(pts, k, affinity_sigma, knn=None, rng_seed=0):
    """`spectral` with the full spectrum from np.linalg.eigh."""
    if affinity_sigma == "auto":
        affinity_sigma = _auto_sigma(pts, rng_seed)
    aff = _affinity(pts, affinity_sigma, knn)
    deg = aff.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.where(deg > 0.0, deg, 1.0))
    m = aff * inv_sqrt[:, None] * inv_sqrt[None, :]
    m = 0.5 * (m + m.T)
    rows = np.linalg.eigh(m)[1][:, -k:]
    norms = np.linalg.norm(rows, axis=1)
    rows = rows / np.where(norms > 0.0, norms, 1.0)[:, None]
    return kmeans(rows, k, rng_seed=rng_seed)


class TestSpectralSubsetSolver:
    def cases(self):
        rings, _ = concentric_rings()
        rng = np.random.default_rng(4)
        small = np.vstack([rng.normal(0.0, 0.2, (5, 2)), rng.normal(4.0, 0.2, (5, 2))])
        blobs = np.vstack([
            np.random.default_rng(s).normal(c, 0.6, (40, 2))
            for s, c in enumerate((0.0, 3.0, 6.0))
        ])
        yield "rings_dense", rings, 2, dict(affinity_sigma=0.5)
        yield "rings_knn", rings, 2, dict(affinity_sigma="auto", knn=10)
        yield "three_blobs", blobs, 3, dict(affinity_sigma=1.0)
        yield "duplicated", np.vstack([small, small]), 2, dict(affinity_sigma=1.0)

    def test_labels_match_full_spectrum(self):
        for name, pts, k, kw in self.cases():
            for seed in (0, 1):
                want = spectral_full_reference(pts, k, rng_seed=seed, **kw)
                got = spectral(pts, k, rng_seed=seed, **kw)
                assert np.array_equal(got.labels, want.labels), (name, seed)


class TestHierarchical:
    def test_five_point_single_linkage(self):
        x = np.array([0.0, 0.1, 0.2, 10.0, 10.1])[:, None]
        labels = hierarchical(x, 2, linkage="single").labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]

    @pytest.mark.parametrize("method", ["single", "complete", "average", "ward"])
    def test_two_blobs_any_linkage(self, method):
        pts, truth = two_blobs()
        assert ari(hierarchical(pts, 2, linkage=method), truth) == 1.0

    def test_k_equals_n(self):
        pts = np.random.default_rng(2).normal(size=(8, 2))
        assert len(set(hierarchical(pts, 8).labels.tolist())) == 8

    def test_validation(self):
        pts = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(ValueError):
            hierarchical(pts, 2, linkage="median")
        with pytest.raises(ValueError):
            hierarchical(pts, 6)


class TestARI:
    def test_hand_case(self):
        got = ari([0, 0, 1, 1], [0, 1, 1, 1])
        assert got == ari_pair_counting([0, 0, 1, 1], [0, 1, 1, 1])
        assert got == 0.0

    def test_identity_and_relabeling(self):
        a = [0, 0, 1, 2, 2, 1]
        assert ari(a, a) == 1.0
        assert ari(a, [2, 2, 0, 1, 1, 0]) == 1.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.integers(0, 3, 9)
            b = rng.integers(0, 4, 9)
            assert ari(a, b) == ari(b, a)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 30:
            a = rng.integers(0, 3, 8)
            b = rng.integers(0, 3, 8)
            want = ari_pair_counting(a.tolist(), b.tolist())
            if want is None:
                continue
            assert ari(a, b) == pytest.approx(want, abs=1e-12)
            checked += 1

    def test_degenerate_denominator(self):
        assert ari([0, 1, 2], [2, 0, 1]) == 1.0  # both all-singletons
        assert ari([0, 0, 0], [1, 1, 1]) == 1.0  # both one block
        assert ari([0, 1, 2], [0, 0, 0]) == 0.0  # formula path, zero index

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ari([0, 1], [0, 1, 1])
