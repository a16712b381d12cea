"""Tests for the Hilbert-curve structurizer (repro.core.hilbert)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MortonNeighborSearch,
    structuredness,
    structurize_batch,
)
from repro.core.hilbert import hilbert_encode, hilbert_structurize
from repro.neighbors import false_neighbor_ratio, knn


class TestHilbertEncode:
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_bijection_over_full_cube(self, bits):
        n = 1 << bits
        cells = np.array(
            [
                (x, y, z)
                for x in range(n)
                for y in range(n)
                for z in range(n)
            ]
        )
        distances = hilbert_encode(cells, bits)
        assert sorted(distances.tolist()) == list(range(n**3))

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_consecutive_cells_face_adjacent(self, bits):
        """The Hilbert curve's defining property: consecutive curve
        positions differ by exactly one cell along one axis (the
        Z-order curve violates this at every octant boundary)."""
        n = 1 << bits
        cells = np.array(
            [
                (x, y, z)
                for x in range(n)
                for y in range(n)
                for z in range(n)
            ]
        )
        order = np.argsort(hilbert_encode(cells, bits))
        steps = np.abs(np.diff(cells[order], axis=0)).sum(axis=1)
        assert (steps == 1).all()

    def test_origin_is_zero(self):
        assert hilbert_encode(np.array([[0, 0, 0]]), 4)[0] == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hilbert_encode(np.array([[4, 0, 0]]), 2)
        with pytest.raises(ValueError):
            hilbert_encode(np.array([[-1, 0, 0]]), 2)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            hilbert_encode(np.array([[0, 0, 0]]), 0)
        with pytest.raises(ValueError):
            hilbert_encode(np.array([[0, 0, 0]]), 25)

    @given(
        seed=st.integers(0, 2**16),
        bits=st.integers(2, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_deterministic_and_in_range_property(self, seed, bits):
        gen = np.random.default_rng(seed)
        cells = gen.integers(0, 1 << bits, size=(50, 3))
        a = hilbert_encode(cells, bits)
        b = hilbert_encode(cells, bits)
        assert np.array_equal(a, b)
        assert a.min() >= 0
        assert a.max() < (1 << (3 * bits))

    def test_distinct_cells_distinct_distances(self, rng):
        cells = rng.integers(0, 1 << 8, size=(500, 3))
        unique_cells = np.unique(cells, axis=0)
        distances = hilbert_encode(unique_cells, 8)
        assert len(np.unique(distances)) == len(unique_cells)


class TestHilbertStructurize:
    def test_valid_permutation(self, medium_cloud):
        order = hilbert_structurize(medium_cloud)
        assert order.num_clouds == 1
        assert sorted(order.permutation[0].tolist()) == list(range(1024))
        sorted_codes = order.codes[0][order.permutation[0]]
        assert (np.diff(sorted_codes) >= 0).all()

    def test_better_locality_than_morton(self, medium_cloud):
        """Hilbert has no octant jumps, so its consecutive-rank gaps
        are smaller on average — the ablation's headline."""
        morton_score = structuredness(
            structurize_batch(medium_cloud[None]), medium_cloud
        )
        hilbert_score = structuredness(
            hilbert_structurize(medium_cloud), medium_cloud
        )
        assert hilbert_score < morton_score

    def test_drop_in_for_window_search(self, medium_cloud):
        """The order container is curve-agnostic: the window
        searcher works unchanged on a Hilbert order, with FNR at least
        as good."""
        k = 16
        exact = knn(medium_cloud, medium_cloud, k)
        searcher = MortonNeighborSearch(k, 2 * k)
        fnr_morton = false_neighbor_ratio(
            searcher.search_batch(
                medium_cloud[None],
                order=structurize_batch(medium_cloud[None]),
            )[0],
            exact,
        )
        fnr_hilbert = false_neighbor_ratio(
            searcher.search_batch(
                medium_cloud[None],
                order=hilbert_structurize(medium_cloud),
            )[0],
            exact,
        )
        assert fnr_hilbert <= fnr_morton + 0.02

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            hilbert_structurize(np.empty((0, 3)))
