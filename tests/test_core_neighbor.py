"""Tests for the Morton index-window neighbor search
(repro.core.neighbor) and the reuse policy (repro.core.reuse)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighbor import MortonNeighborSearch, window_ranks
from repro.core.reuse import NeighborCache, NeighborReusePolicy
from repro.core.structurize import structurize_batch
from repro.neighbors import false_neighbor_ratio, knn


class TestWindowRanks:
    def test_interior_window_centered(self):
        ranks = window_ranks(np.array([50]), 8, 100)
        assert ranks.tolist() == [[46, 47, 48, 49, 50, 51, 52, 53]]

    def test_start_clamped(self):
        ranks = window_ranks(np.array([1]), 6, 100)
        assert ranks.tolist() == [[0, 1, 2, 3, 4, 5]]

    def test_end_clamped(self):
        ranks = window_ranks(np.array([99]), 6, 100)
        assert ranks.tolist() == [[94, 95, 96, 97, 98, 99]]

    def test_full_window(self):
        ranks = window_ranks(np.array([3]), 10, 10)
        assert ranks.tolist() == [list(range(10))]

    def test_rejects_oversized_window(self):
        with pytest.raises(ValueError):
            window_ranks(np.array([0]), 11, 10)

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            window_ranks(np.array([0]), 0, 10)

    @given(
        rank=st.integers(0, 99),
        window=st.integers(1, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_always_in_range_property(self, rank, window):
        ranks = window_ranks(np.array([rank]), window, 100)
        assert ranks.shape == (1, window)
        assert ranks.min() >= 0
        assert ranks.max() < 100
        assert len(set(ranks[0].tolist())) == window


def _search(searcher, cloud, query_indices=None, order=None):
    """``(Q, k)`` neighbors in one ``(N, 3)`` cloud (a ``B=1`` batch)."""
    return searcher.search_batch(cloud[None], query_indices, order)[0]


class TestMortonNeighborSearch:
    def test_shape(self, medium_cloud):
        out = _search(MortonNeighborSearch(8), medium_cloud)
        assert out.shape == (1024, 8)

    def test_pure_index_mode_is_window(self, medium_cloud):
        """With W == k the neighbors are exactly the window ranks."""
        order = structurize_batch(medium_cloud[None])
        searcher = MortonNeighborSearch(6)
        out = searcher.search_ranks_batch(
            medium_cloud[None], order, np.array([500])
        )
        expected_ranks = np.arange(497, 503)
        assert np.array_equal(
            out[0, 0], order.original_index_of(expected_ranks)[0]
        )

    @pytest.mark.parametrize("bad", [-1, 1024])
    def test_rejects_out_of_range_query(self, medium_cloud, bad):
        searcher = MortonNeighborSearch(4, 8)
        with pytest.raises(ValueError, match="query indices"):
            _search(searcher, medium_cloud, np.array([0, bad]))
        with pytest.raises(ValueError, match="query indices"):
            searcher.search_batch(medium_cloud[None], np.array([[bad]]))

    def test_windowed_mode_picks_closest(self, medium_cloud):
        """With W > k the k closest inside the window are kept, so
        every returned neighbor is at least as close as the pure-index
        pick would guarantee."""
        order = structurize_batch(medium_cloud[None])
        narrow = _search(MortonNeighborSearch(8, 8), medium_cloud, None, order)
        wide = _search(MortonNeighborSearch(8, 64), medium_cloud, None, order)
        def mean_dist(nbrs):
            gathered = medium_cloud[nbrs]
            return np.linalg.norm(
                gathered - medium_cloud[:, None, :], axis=2
            ).mean()
        assert mean_dist(wide) <= mean_dist(narrow)

    def test_fnr_decreases_with_window(self, medium_cloud):
        """Fig. 15a's monotone trade-off."""
        order = structurize_batch(medium_cloud[None])
        exact = knn(medium_cloud, medium_cloud, 16)
        fnrs = []
        for mult in (1, 2, 4, 8):
            approx = _search(
                MortonNeighborSearch(16, 16 * mult), medium_cloud,
                None, order,
            )
            fnrs.append(false_neighbor_ratio(approx, exact))
        assert fnrs == sorted(fnrs, reverse=True)
        assert fnrs[-1] < fnrs[0]

    def test_query_subset(self, medium_cloud):
        queries = np.array([5, 100, 700])
        out = _search(MortonNeighborSearch(4), medium_cloud, queries)
        assert out.shape == (3, 4)

    def test_query_includes_self_region(self, medium_cloud):
        """A windowed (W > k) search must return the query point itself
        among its own neighbors (distance zero)."""
        out = _search(
            MortonNeighborSearch(4, 16), medium_cloud, np.arange(50)
        )
        for i in range(50):
            assert i in out[i]

    def test_full_window_equals_exact_knn(self, small_cloud):
        """W == N degenerates to exact k-NN (up to distance ties)."""
        searcher = MortonNeighborSearch(8, len(small_cloud))
        approx = _search(searcher, small_cloud)
        exact = knn(small_cloud, small_cloud, 8)
        assert false_neighbor_ratio(approx, exact) < 0.02

    def test_operation_count(self):
        assert MortonNeighborSearch(8).operation_count(100) == 800
        assert MortonNeighborSearch(8, 32).operation_count(100) == 3200

    def test_rejects_window_smaller_than_k(self):
        with pytest.raises(ValueError):
            MortonNeighborSearch(8, 4)

    def test_rejects_oversized_window_at_search(self, small_cloud):
        searcher = MortonNeighborSearch(8, 10_000)
        with pytest.raises(ValueError):
            _search(searcher, small_cloud)

    def test_all_points_output_in_original_order(self, small_cloud):
        """search_batch() without query_indices returns row i =
        neighbors of original point i."""
        order = structurize_batch(small_cloud[None])
        searcher = MortonNeighborSearch(4, 16)
        all_out = _search(searcher, small_cloud, None, order)
        sub_out = _search(searcher, small_cloud, np.array([10, 42]), order)
        assert np.array_equal(all_out[10], sub_out[0])
        assert np.array_equal(all_out[42], sub_out[1])

    @given(
        seed=st.integers(0, 2**16),
        k=st.integers(1, 8),
        mult=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_valid_indices_property(self, seed, k, mult):
        pts = np.random.default_rng(seed).normal(size=(64, 3))
        out = _search(MortonNeighborSearch(k, min(64, k * mult)), pts)
        assert out.shape == (64, k)
        assert out.min() >= 0 and out.max() < 64


class TestReusePolicy:
    def test_distance_one_schedule(self):
        policy = NeighborReusePolicy(reuse_distance=1)
        assert policy.schedule(4) == [
            "compute", "reuse", "compute", "reuse",
        ]

    def test_distance_two_schedule(self):
        policy = NeighborReusePolicy(reuse_distance=2)
        assert policy.schedule(6) == [
            "compute", "reuse", "reuse", "compute", "reuse", "reuse",
        ]

    def test_distance_zero_never_reuses(self):
        policy = NeighborReusePolicy(reuse_distance=0)
        assert policy.schedule(4) == ["compute"] * 4

    def test_first_compute_offset(self):
        policy = NeighborReusePolicy(
            reuse_distance=1, first_compute_module=1
        )
        assert policy.schedule(4) == [
            "compute", "compute", "reuse", "compute",
        ]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NeighborReusePolicy(reuse_distance=-1)

    def test_rejects_negative_module(self):
        policy = NeighborReusePolicy()
        with pytest.raises(ValueError):
            policy.should_reuse(-1)


class TestNeighborCache:
    def test_store_and_load(self, rng):
        cache = NeighborCache()
        idx = rng.integers(0, 100, (50, 8))
        cache.store(idx)
        assert np.array_equal(cache.load(), idx)

    def test_empty_load_raises(self):
        with pytest.raises(RuntimeError):
            NeighborCache().load()

    def test_is_empty_lifecycle(self, rng):
        cache = NeighborCache()
        assert cache.is_empty
        cache.store(rng.integers(0, 10, (4, 2)))
        assert not cache.is_empty
        cache.clear()
        assert cache.is_empty

    def test_memory_bytes(self, rng):
        cache = NeighborCache()
        assert cache.memory_bytes == 0
        idx = np.zeros((1024, 20), dtype=np.int64)
        cache.store(idx)
        assert cache.memory_bytes == 1024 * 20 * 8

    def test_paper_budget(self):
        """Sec. 5.2.3: per-batch reused search data <= 160 KB.  A
        1024-point, 20-neighbor int16 index matrix fits."""
        cache = NeighborCache()
        cache.store(np.zeros((4096, 20), dtype=np.int16))
        assert cache.memory_bytes <= 160 * 1024

    def test_rejects_flat_array(self):
        with pytest.raises(ValueError):
            NeighborCache().store(np.zeros(10, dtype=np.int64))
