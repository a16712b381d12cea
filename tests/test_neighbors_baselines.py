"""Tests for the exact neighbor searchers (repro.neighbors)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retired import KDTree

from repro.neighbors import (
    UniformGridIndex,
    ball_query,
    ball_query_grid_batch,
    canonical_top_k,
    false_neighbor_ratio,
    knn,
    mean_neighbor_distance,
    pairwise_operation_count,
    recall,
)


def _brute_knn_reference(queries, candidates, k):
    d2 = (
        np.sum(queries**2, axis=1)[:, None]
        - 2.0 * queries @ candidates.T
        + np.sum(candidates**2, axis=1)[None, :]
    )
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


class TestKNN:
    def test_matches_reference(self, medium_cloud, rng):
        queries = rng.normal(size=(50, 3))
        ours = knn(queries, medium_cloud, 8)
        ref = _brute_knn_reference(queries, medium_cloud, 8)
        for a, b in zip(ours, ref):
            assert set(a.tolist()) == set(b.tolist())

    def test_sorted_by_distance(self, medium_cloud, rng):
        queries = rng.normal(size=(10, 3))
        out = knn(queries, medium_cloud, 8)
        for q, row in zip(queries, out):
            d = np.linalg.norm(medium_cloud[row] - q, axis=1)
            assert (np.diff(d) >= -1e-12).all()

    def test_self_query_returns_self_first(self, small_cloud):
        out = knn(small_cloud, small_cloud, 3)
        assert np.array_equal(out[:, 0], np.arange(len(small_cloud)))

    def test_k_equals_n(self, rng):
        pts = rng.normal(size=(10, 3))
        out = knn(pts[:2], pts, 10)
        assert out.shape == (2, 10)
        assert sorted(out[0].tolist()) == list(range(10))

    def test_high_dimensional(self, rng):
        """Feature-space kNN (DGCNN's later modules) in 64-d."""
        feats = rng.normal(size=(100, 64))
        out = knn(feats, feats, 5)
        assert out.shape == (100, 5)
        assert np.array_equal(out[:, 0], np.arange(100))

    def test_rejects_k_zero(self, small_cloud):
        with pytest.raises(ValueError):
            knn(small_cloud, small_cloud, 0)

    def test_rejects_dim_mismatch(self, small_cloud, rng):
        with pytest.raises(ValueError):
            knn(rng.normal(size=(5, 4)), small_cloud, 2)

    def test_chunking_consistency(self, rng):
        """Results are identical across the internal chunk boundary."""
        pts = rng.normal(size=(5000, 3))
        out = knn(pts[:4100], pts, 4)
        ref = _brute_knn_reference(pts[:4100], pts, 4)
        mismatch = (out != ref).any(axis=1).mean()
        assert mismatch < 0.01  # only distance ties may differ


class TestBallQuery:
    def test_within_radius(self, medium_cloud, rng):
        queries = medium_cloud[:20]
        out = ball_query(queries, medium_cloud, 0.5, 8)
        for q, row in zip(queries, out):
            d = np.linalg.norm(medium_cloud[row] - q, axis=1)
            assert (d <= 0.5 + 1e-9).all()

    def test_pads_short_rows(self):
        pts = np.array(
            [[0, 0, 0], [0.1, 0, 0], [10, 0, 0], [11, 0, 0]],
            dtype=float,
        )
        out = ball_query(pts[:1], pts, 0.5, 4)
        # Only points 0 and 1 are in radius; the row pads with index 0.
        assert out[0].tolist() == [0, 1, 0, 0]

    def test_empty_ball_falls_back_to_nearest(self):
        pts = np.array([[0, 0, 0], [10, 0, 0]], dtype=float)
        query = np.array([[5.0, 0, 0]])
        out = ball_query(query, pts, 0.1, 2)
        assert set(out[0].tolist()) <= {0, 1}
        assert len(set(out[0].tolist())) == 1

    def test_scan_order(self):
        """In-radius candidates are taken in scan order, matching the
        reference PointNet++ CUDA kernel."""
        pts = np.array(
            [[0.3, 0, 0], [0.2, 0, 0], [0.1, 0, 0], [0, 0, 0]],
            dtype=float,
        )
        out = ball_query(pts[3:], pts, 1.0, 2)
        assert out[0].tolist() == [0, 1]

    def test_paper_fig10_example(self):
        """Fig. 10(a): with the Fig. 8 point set and squared radius 11,
        P2's in-ball neighbors are P0, P1 and P4 (plus P2 itself under
        the reference kernel's self-inclusive convention)."""
        pts = np.array(
            [
                [0.0, 0.0, 0.0],    # P0: d2 to P2 = 10
                [3.0, 2.0, 1.0],    # P1: 4
                [3.0, 0.0, 1.0],    # P2: 0
                [6.0, 3.0, 2.0],    # P3: 19
                [5.0, -2.0, 2.0],   # P4: 9
            ]
        )
        out = ball_query(pts[2:3], pts, np.sqrt(11.0), 4)
        assert set(out[0].tolist()) == {0, 1, 2, 4}

    def test_paper_fig10_knn_order(self):
        """Fig. 10(a) kNN side: by ascending distance from P2 the
        ranking is P2 (self), P1, P4, P0, P3."""
        pts = np.array(
            [
                [0.0, 0.0, 0.0],
                [3.0, 2.0, 1.0],
                [3.0, 0.0, 1.0],
                [6.0, 3.0, 2.0],
                [5.0, -2.0, 2.0],
            ]
        )
        out = knn(pts[2:3], pts, 5)
        assert out[0].tolist() == [2, 1, 4, 0, 3]

    def test_rejects_bad_radius(self, small_cloud):
        with pytest.raises(ValueError):
            ball_query(small_cloud, small_cloud, 0.0, 4)

    def test_operation_count(self):
        assert pairwise_operation_count(100, 200) == 20000


class TestKDTree:
    def test_matches_brute_force(self, medium_cloud, rng):
        tree = KDTree(medium_cloud)
        queries = rng.normal(size=(30, 3))
        for q in queries:
            ours = set(tree.query(q, 5).tolist())
            ref = set(
                _brute_knn_reference(q[None], medium_cloud, 5)[0].tolist()
            )
            assert ours == ref

    def test_single_nearest(self, small_cloud):
        tree = KDTree(small_cloud)
        idx = tree.query(small_cloud[17], 1)
        assert idx[0] == 17

    def test_batch_query(self, small_cloud):
        tree = KDTree(small_cloud)
        out = tree.query_batch(small_cloud[:5], 3)
        assert out.shape == (5, 3)
        assert np.array_equal(out[:, 0], np.arange(5))

    def test_radius_query_matches_brute(self, small_cloud):
        tree = KDTree(small_cloud)
        q = np.array([0.1, 0.2, 0.3])
        ours = tree.query_radius(q, 0.6)
        d = np.linalg.norm(small_cloud - q, axis=1)
        ref = np.flatnonzero(d <= 0.6)
        assert np.array_equal(ours, ref)

    def test_results_sorted_by_distance(self, small_cloud):
        tree = KDTree(small_cloud)
        row = tree.query(np.array([0.0, 0.0, 0.0]), 6)
        d = np.linalg.norm(small_cloud[row], axis=1)
        assert (np.diff(d) >= -1e-12).all()

    def test_depth_is_logarithmic(self, medium_cloud):
        tree = KDTree(medium_cloud)
        assert tree.depth <= 2 * int(np.ceil(np.log2(1024))) + 1

    def test_single_point_tree(self):
        tree = KDTree(np.array([[1.0, 2.0, 3.0]]))
        assert tree.query(np.zeros(3), 1)[0] == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KDTree(np.empty((0, 3)))

    def test_rejects_bad_k(self, small_cloud):
        with pytest.raises(ValueError):
            KDTree(small_cloud).query(np.zeros(3), 0)

    @given(seed=st.integers(0, 2**16), k=st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_exactness_property(self, seed, k):
        gen = np.random.default_rng(seed)
        pts = gen.normal(size=(80, 3))
        tree = KDTree(pts)
        q = gen.normal(size=3)
        ours = set(tree.query(q, k).tolist())
        ref = set(_brute_knn_reference(q[None], pts, k)[0].tolist())
        assert ours == ref


class TestCanonicalTopK:
    """``canonical_top_k`` == the full stable argsort, byte for byte."""

    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 6),
        n=st.integers(2, 40),
        levels=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_argsort_on_boundary_ties(
        self, seed, rows, n, levels, data
    ):
        # A few distinct values per row make ties across the k-th /
        # (k+1)-th boundary the common case; k = n - 1 leaves a single
        # column outside the selection.
        k = data.draw(st.sampled_from(sorted({1, n // 2, n - 1, n})))
        rng = np.random.default_rng(seed)
        d2 = rng.integers(0, levels, size=(rows, n)).astype(np.float64)
        want = np.argsort(d2, axis=-1, kind="stable")[:, :k]
        got = canonical_top_k(d2, k)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_tie_at_the_boundary_of_k_minus_one(self):
        d2 = np.array([[3.0, 1.0, 2.0, 2.0, 0.0], [2.0, 2.0, 2.0, 2.0, 2.0]])
        assert canonical_top_k(d2, 4).tolist() == [
            [4, 1, 2, 3], [0, 1, 2, 3]
        ]
        assert canonical_top_k(d2, 3).tolist() == [[4, 1, 2], [0, 1, 2]]


class TestUniformGrid:
    def test_radius_matches_brute(self, medium_cloud):
        q = medium_cloud[7]
        out = ball_query_grid_batch(
            q[None, None], medium_cloud[None], 0.3, len(medium_cloud)
        )
        d = np.linalg.norm(medium_cloud - q, axis=1)
        # Hits in ascending index order, short rows padded with the
        # first hit.
        assert np.array_equal(np.unique(out), np.flatnonzero(d <= 0.3))

    def test_knn_matches_brute(self, medium_cloud):
        grid = UniformGridIndex(medium_cloud, 0.2)
        queries = medium_cloud[[0, 100, 555]]
        ours = grid.query_knn_batch(queries, 6)
        ref = _brute_knn_reference(queries, medium_cloud, 6)
        for got, want in zip(ours, ref):
            assert set(got.tolist()) == set(want.tolist())

    def test_occupied_cells(self, small_cloud):
        grid = UniformGridIndex(small_cloud, 0.5)
        assert 1 <= grid.num_occupied_cells <= len(small_cloud)

    def test_knn_whole_cloud(self, rng):
        pts = rng.normal(size=(20, 3))
        grid = UniformGridIndex(pts, 0.1)
        out = grid.query_knn_batch(pts[:1], 20)[0]
        assert sorted(out.tolist()) == list(range(20))

    def test_rejects_bad_cell_size(self, small_cloud):
        with pytest.raises(ValueError):
            UniformGridIndex(small_cloud, -1.0)


class TestNeighborMetrics:
    def test_fnr_zero_for_identical(self, rng):
        idx = rng.integers(0, 100, (20, 5))
        assert false_neighbor_ratio(idx, idx) == 0.0

    def test_fnr_one_for_disjoint(self):
        a = np.arange(10).reshape(2, 5)
        b = a + 100
        assert false_neighbor_ratio(a, b) == 1.0

    def test_fnr_half_overlap(self):
        approx = np.array([[0, 1, 2, 3]])
        exact = np.array([[0, 1, 8, 9]])
        assert false_neighbor_ratio(approx, exact) == 0.5

    def test_fnr_counts_sets_not_slots(self):
        """Duplicate padding counts once."""
        approx = np.array([[0, 0, 0, 5]])
        exact = np.array([[0, 1, 2, 3]])
        assert false_neighbor_ratio(approx, exact) == 0.5

    def test_fnr_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            false_neighbor_ratio(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_recall_complementary(self):
        approx = np.array([[0, 1, 2, 3]])
        exact = np.array([[0, 1, 8, 9]])
        assert recall(approx, exact) == 0.5

    def test_recall_perfect(self, rng):
        idx = rng.integers(0, 50, (5, 4))
        assert recall(idx, idx) == 1.0

    def test_mean_neighbor_distance(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        queries = pts[:1]
        nbrs = np.array([[1, 2]])
        assert mean_neighbor_distance(
            pts, queries, nbrs
        ) == pytest.approx(1.5)

    def test_fnr_windowed_beats_pure_index(self, medium_cloud):
        """Integration: the windowed Morton search has lower FNR than
        pure index selection (the Fig. 6 -> Fig. 15a improvement)."""
        from repro.core import MortonNeighborSearch, structurize_batch

        batch = medium_cloud[None]
        order = structurize_batch(batch)
        exact = knn(medium_cloud, medium_cloud, 16)
        pure = MortonNeighborSearch(16).search_batch(batch, order=order)[0]
        windowed = MortonNeighborSearch(16, 64).search_batch(
            batch, order=order
        )[0]
        assert false_neighbor_ratio(
            windowed, exact
        ) < false_neighbor_ratio(pure, exact)
