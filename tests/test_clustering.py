import itertools

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from msdenoise import clustering
from msdenoise.clustering import (
    LabelSet,
    _affinity,
    _assign,
    _denoised,
    _kmeanspp,
    _lloyd,
    _n_components,
    _normalize,
    _rng,
    ari,
    hierarchical,
    kmeans,
    run_clustering_case,
    run_dataset_eval,
    spectral,
)
from msdenoise.density import _pair_sq_distances
from msdenoise.synthetic import _generate_case


def affinity(pts, sigma, knn=None):
    """`_affinity` over the squared pair distances of `pts`, as `spectral` calls it."""
    aff = _pair_sq_distances(pts)
    _affinity(aff, sigma, knn)
    return aff


def median_distance(pts):
    """The automatic affinity scale by its definition: the median pair distance."""
    return float(np.median(pdist(pts)))


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


def _sq_dists(x, centers):
    d2 = np.empty((x.shape[0], centers.shape[0]))
    for j, c in enumerate(centers):
        np.square(x - c).sum(axis=1, out=d2[:, j])
    return d2


def _kmeans_once(pts, k, rng):
    """Oracle: one seeded k-means++ run of Lloyd's algorithm, alone.

    Returns (labels, wcss, history) where history holds the objective value
    at each assignment step.
    """
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[int(rng.integers(n))]
    d2 = _sq_dists(pts, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            centers[j] = pts[rng.choice(n, p=d2 / total)]
        else:
            centers[j] = pts[int(rng.integers(n))]
        d2 = np.minimum(d2, _sq_dists(pts, centers[j:j + 1])[:, 0])
    return _lloyd_once(pts, centers)


def _lloyd_once(pts, centers):
    n, k = pts.shape[0], centers.shape[0]
    labels = None
    history = []
    for _ in range(clustering._MAX_LLOYD):
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
    wcss = float(((pts - centers[labels]) ** 2).sum())
    return labels, wcss, history


def batched_restarts(pts, k, seed):
    rngs = [_rng(seed, r) for r in range(clustering._RESTARTS)]
    return _lloyd(pts, _kmeanspp(pts, k, rngs))


def kmeans_cases():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        for k in range(2, 8):
            yield f"normal_d{d}_k{k}", rng.normal(size=(150, d)) * [1.0, 4.0, 0.5][:d], k
    yield "k_equals_n", rng.normal(size=(12, 2)), 12
    # all-duplicate data empties clusters, forcing the re-seed branch
    yield "duplicates_d1", np.repeat([[0.0], [1.0]], 5, axis=0), 3
    yield "duplicates_d2", np.repeat([[0.0, 2.0], [1.0, -1.0], [3.0, 3.0]], 4, axis=0), 5
    # a long one-column cluster, where the pairwise mean differs from a
    # running sum
    yield "long_d1", rng.normal(size=(20_000, 1)), 3


def difference_array_sq_dists(pts, centres):
    """Squared distances (A, n) from an (A, n, d) difference array summed
    over its last axis: the formula k-means used before it shared
    `density._sq_distances`."""
    diff = pts - centres[:, None, :]
    return np.square(diff, out=diff).sum(axis=2)


class TestKMeans:
    @pytest.mark.parametrize("n", [300, 1000])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_assign_matches_difference_array_sums(self, d, n):
        """For d <= 7 numpy sums the last axis in index order, as
        `_sq_distances` does, so every distance keeps its bits (10 x 300
        blocks take the copy route, 10 x 1000 the streamed one)."""
        rng = np.random.default_rng(d)
        pts = rng.normal(size=(n, d)) * np.exp(rng.uniform(-5.0, 5.0, size=d)) + 3.0
        centres = pts[rng.integers(n, size=(clustering._RESTARTS, 4))]
        centres += rng.normal(size=centres.shape)
        want = np.stack([difference_array_sq_dists(pts, centres[:, j]) for j in range(4)])
        labels, own = _assign(pts, centres)
        assert np.array_equal(labels, want.argmin(axis=0))
        assert np.array_equal(own, want.min(axis=0))

    def test_two_blobs_perfect(self):
        pts, truth = two_blobs()
        assert ari(kmeans(pts, 2, rng_seed=0), truth) == 1.0

    def test_k_one(self):
        pts, _ = two_blobs(10)
        assert set(kmeans(pts, 1).labels.tolist()) == {0}

    def test_k_equals_n_singletons(self):
        pts = np.random.default_rng(0).normal(size=(12, 2))
        labels, wcss, _ = batched_restarts(pts, 12, 0)
        assert all(len(set(row.tolist())) == 12 for row in labels)
        assert np.all(wcss == 0.0)

    def test_batched_restarts_match_lone_runs(self):
        for name, pts, k in kmeans_cases():
            for seed in (0, 5):
                labels, wcss, histories = batched_restarts(pts, k, seed)
                for r in range(clustering._RESTARTS):
                    want = _kmeans_once(pts, k, _rng(seed, r))
                    assert np.array_equal(labels[r], want[0]), (name, seed, r)
                    assert wcss[r] == want[1], (name, seed, r)
                    assert histories[r] == want[2], (name, seed, r)

    def test_reseed_at_farthest_point(self):
        # a centre far from every point captures none and is re-seeded at the
        # point farthest from its own centre
        rng = np.random.default_rng(2)
        for d in (1, 2):
            pts = rng.normal(size=(40, d))
            seeds = np.stack([np.vstack([pts[:2], np.full((1, d), 50.0 + a)])
                              for a in range(3)])
            labels, wcss, histories = _lloyd(pts, seeds.copy())
            for a in range(3):
                want = _lloyd_once(pts, seeds[a].copy())
                assert np.array_equal(labels[a], want[0]), (d, a)
                assert wcss[a] == want[1] and histories[a] == want[2], (d, a)
                assert len(set(labels[a].tolist())) == 3, (d, a)

    def test_kmeans_picks_first_least_wcss(self, monkeypatch):
        for name, pts, k in kmeans_cases():
            runs = [_kmeans_once(pts, k, _rng(2, r)) for r in range(clustering._RESTARTS)]
            wcss = [w for _, w, _ in runs]
            want = runs[wcss.index(min(wcss))][0]
            assert np.array_equal(kmeans(pts, k, rng_seed=2).labels, want), name
            # a word budget too small for one batch runs restarts in groups
            n, d = pts.shape
            monkeypatch.setattr(clustering, "_BATCH_WORDS", 3 * (d + 8) * n)
            assert np.array_equal(kmeans(pts, k, rng_seed=2).labels, want), name
            monkeypatch.undo()

    def test_objective_never_increases(self):
        pts = np.random.default_rng(1).normal(size=(300, 3))
        _, _, histories = batched_restarts(pts, 7, 3)
        for history in histories:
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_duplicate_points_terminate(self):
        pts = np.repeat([[0.0], [1.0]], 5, axis=0)
        labels, wcss, _ = batched_restarts(pts, 3, 0)
        assert np.all(wcss == 0.0)
        assert labels.min() >= 0 and labels.max() < 3

    def test_deterministic(self):
        pts, _ = two_blobs(30, gap=2.0, seed=3)
        a = kmeans(pts, 3, rng_seed=5)
        b = kmeans(pts, 3, rng_seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_row_order_keeps_well_separated_partition(self):
        # seeding draws by row index, so a permutation changes the seeds; on
        # well-separated blobs the partition survives up to relabelling
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(c, 0.3, (60, 2)) for c in ((0, 0), (6, 0), (0, 6))])
        base = kmeans(pts, 3).labels
        for _ in range(50):
            order = rng.permutation(len(pts))
            got = kmeans(pts[order], 3).labels
            assert ari(got, base[order]) == 1.0

    def test_validation(self):
        pts, _ = two_blobs(5)
        with pytest.raises(ValueError):
            kmeans(pts, 11)
        with pytest.raises(ValueError):
            kmeans(pts, 0)


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
        a = affinity(small, 1.0)
        doubled = affinity(np.vstack([small, small]), 1.0)
        # copies sit at distance zero: affinity 1 off the true diagonal
        expect = np.block([[a, a + np.eye(10)], [a + np.eye(10), a]])
        assert np.array_equal(doubled, expect)

    def test_size_limit_fails_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pairwise distances computed")

        monkeypatch.setattr(clustering, "_pair_sq_distances", refuse)
        limit = clustering._MAX_SPECTRAL_POINTS
        pts = np.zeros((limit + 1, 1))
        with pytest.raises(ValueError, match=f"limit of {limit} points"):
            spectral(pts, 2)
        with pytest.raises(ValueError, match=f"limit of {limit} points"):
            spectral(pts, 2, affinity_sigma=1.0, knn=5)
        # a bad knn fails before the auto bandwidth or the graph is built
        pts = np.random.default_rng(0).normal(size=(20, 2))
        for knn in (0, 20):
            with pytest.raises(ValueError, match="knn must be in 1..19"):
                spectral(pts, 2, knn=knn)

    def test_dense_affinity_peak_memory(self, monkeypatch):
        # the squared pair distances become the affinities in place, so the
        # build holds one n x n array and a block of scratch
        import tracemalloc

        class Built(Exception):
            pass

        n = 2000
        pts = np.random.default_rng(0).normal(size=(n, 2))
        spectral(pts[:10], 2, affinity_sigma=1.0)  # imports outside the trace
        real, peaks = clustering._affinity, []

        def spy(*args):
            real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            raise Built

        monkeypatch.setattr(clustering, "_affinity", spy)
        tracemalloc.start()
        try:
            with pytest.raises(Built):
                spectral(pts, 2, affinity_sigma=1.0)
        finally:
            tracemalloc.stop()
        assert peaks[0] <= 1.1 * n * n * 8

    def test_auto_sigma_shares_the_pair_distances(self, monkeypatch):
        shapes, medians = [], []
        real_pairs = clustering._pair_sq_distances
        real_median = clustering._median_pair_distance

        def spy_pairs(x):
            shapes.append(x.shape)
            return real_pairs(x)

        def spy_median(sq):
            sigma = real_median(sq)
            medians.append(sigma)
            return sigma

        monkeypatch.setattr(clustering, "_pair_sq_distances", spy_pairs)
        monkeypatch.setattr(clustering, "_median_pair_distance", spy_median)
        pts, _ = two_blobs(n_per=30)
        for knn in (None, 10):
            shapes.clear()
            medians.clear()
            spectral(pts, 2, knn=knn)
            assert shapes == [(60, 2)]
            assert medians == [median_distance(pts)]
        # above 500 points too: the scale is the median of the same distances
        shapes.clear()
        medians.clear()
        big = two_blobs(n_per=260)[0]
        spectral(big, 2)
        assert shapes == [(520, 2)]
        assert medians == [median_distance(big)]

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

    def test_infinite_sigma_refused(self):
        # an infinite scale makes every affinity 1: a graph that cannot tell
        # the blobs apart; a NaN one makes none defined
        pts, _ = two_blobs(10)
        for sigma in (np.inf, np.nan):
            with pytest.raises(ValueError,
                               match=f"affinity_sigma must be positive and finite, got {sigma}"):
                spectral(pts, 2, affinity_sigma=sigma)

    def test_affinity_matches_dense_formula(self):
        from scipy.spatial.distance import cdist

        pts, _ = concentric_rings()
        n = pts.shape[0]
        dist = cdist(pts, pts)
        want = np.exp(dist**2 / (-2.0 * 0.7**2))
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(affinity(pts, 0.7), want)
        np.fill_diagonal(dist, np.inf)
        keep = np.zeros((n, n), dtype=bool)
        keep[np.arange(n)[:, None], np.argsort(dist, axis=1)[:, :6]] = True
        assert np.array_equal(affinity(pts, 0.7, knn=6), np.where(keep | keep.T, want, 0.0))


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
        yield "rings_knn", affinity(rings, 1.0, knn=10) > 0.0
        yield "isolated", isolated | isolated.T
        yield "three_clusters", affinity(three_clusters(), 0.05) > 0.0
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


def normalized_reference(aff):
    deg = aff.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.where(deg > 0.0, deg, 1.0))
    m = aff * inv_sqrt[:, None] * inv_sqrt[None, :]
    return 0.5 * (m + m.T)


def spectral_full_reference(pts, k, affinity_sigma, knn=None, rng_seed=0):
    """`spectral` with the full spectrum from np.linalg.eigh."""
    if affinity_sigma == "auto":
        affinity_sigma = median_distance(pts)
    m = normalized_reference(affinity(pts, affinity_sigma, knn))
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
        # the benchmark's scenes: bullseye1 replicates as cluster-eval draws
        # them, raw and after one SCV sweep, on their dense unit-sigma graph
        for rep in range(3):
            pts = _generate_case("bullseye1", _rng(0, rep)).cloud.points
            yield f"bullseye1_raw_{rep}", pts, 2, dict(affinity_sigma=1.0)
            yield f"bullseye1_swept_{rep}", _denoised(pts, "scv"), 2, dict(affinity_sigma=1.0)

    def test_labels_match_full_spectrum(self):
        for name, pts, k, kw in self.cases():
            for seed in (0, 1):
                want = spectral_full_reference(pts, k, rng_seed=seed, **kw)
                got = spectral(pts, k, rng_seed=seed, **kw)
                assert np.array_equal(got.labels, want.labels), (name, seed)

    def test_normalize_matches_transpose_average(self):
        for name, pts, _, kw in self.cases():
            sigma = kw["affinity_sigma"]
            if sigma == "auto":
                sigma = median_distance(pts)
            aff = affinity(pts, sigma, kw.get("knn"))
            want = normalized_reference(aff)
            _normalize(aff)
            assert np.array_equal(aff, want), name


class TestHierarchical:
    def test_five_point_two_groups(self):
        x = np.array([0.0, 0.1, 0.2, 10.0, 10.1])[:, None]
        labels = hierarchical(x, 2).labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]

    def test_two_blobs(self):
        pts, truth = two_blobs()
        assert ari(hierarchical(pts, 2), truth) == 1.0

    def test_k_equals_n(self):
        pts = np.random.default_rng(2).normal(size=(8, 2))
        assert len(set(hierarchical(pts, 8).labels.tolist())) == 8

    def test_validation(self):
        pts = np.random.default_rng(0).normal(size=(5, 2))
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

    @pytest.mark.filterwarnings("error")
    def test_degenerate_denominator(self):
        assert ari([0, 1, 2], [2, 0, 1]) == 1.0  # both all-singletons
        assert ari([0, 0, 0], [1, 1, 1]) == 1.0  # both one block
        assert ari([0], [0]) == ari([0], [3]) == 1.0  # one point: both at once
        assert ari([0, 1, 2], [0, 0, 0]) == 0.0  # formula path, zero index

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ari([0, 1], [0, 1, 1])


class TestExperiments:
    @pytest.mark.parametrize("n_reps", [0, -1])
    def test_no_replicates_rejected(self, n_reps):
        pts, labels = two_blobs(n_per=10)
        with pytest.raises(ValueError, match="n_reps must be >= 1"):
            run_dataset_eval("blobs", pts, labels, 2, algo="kmeans", n_reps=n_reps)
        with pytest.raises(ValueError, match="n_reps must be >= 1"):
            run_clustering_case("bullseye1", algo="kmeans", n_reps=n_reps)
