"""Tests for Morton structurization (repro.core.structurize)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import morton
from repro.core.structurize import structuredness, structurize_batch
from repro.geometry import BoundingBox


def order_of(points, *args, **kwargs):
    """Morton-order one ``(N, 3)`` cloud as a ``B=1`` batch."""
    return structurize_batch(np.asarray(points)[None], *args, **kwargs)


class TestStructurize:
    def test_permutation_is_valid(self, small_cloud):
        order = order_of(small_cloud)
        assert sorted(order.permutation[0].tolist()) == list(
            range(len(small_cloud))
        )

    def test_ranks_invert_permutation(self, small_cloud):
        order = order_of(small_cloud)
        assert np.array_equal(
            order.ranks[0][order.permutation[0]], np.arange(len(order))
        )

    def test_sorted_codes_ascending(self, small_cloud):
        order = order_of(small_cloud)
        sorted_codes = order.codes[0][order.permutation[0]]
        assert (np.diff(sorted_codes) >= 0).all()

    def test_paper_example_small(self):
        """Sec. 5.1.2's worked example: 5 points, grid size 1, origin 0.

        Coordinates chosen to decode to the paper's Morton codes
        {185, 23, 114, 0, 67}; sorting gives indexes {3, 1, 4, 2, 0}.
        """
        cells = morton.decode(np.array([185, 23, 114, 0, 67]))
        points = cells.astype(float) + 0.5  # inside each unit voxel
        box = BoundingBox(np.zeros(3), np.full(3, 8.0))
        order = order_of(points, code_bits=9, bounding_box=box)
        assert np.array_equal(order.codes, [[185, 23, 114, 0, 67]])
        assert order.permutation.tolist() == [[3, 1, 4, 2, 0]]

    def test_sorted_points_view(self, small_cloud):
        order = order_of(small_cloud)
        sorted_pts = order.sorted_points(small_cloud[None])
        assert np.array_equal(
            sorted_pts[0, 0], small_cloud[order.permutation[0, 0]]
        )

    def test_rank_and_index_are_inverse(self, small_cloud):
        order = order_of(small_cloud)
        idx = np.array([3, 77, 200])
        assert np.array_equal(
            order.original_index_of(order.rank_of(idx)), idx[None]
        )

    def test_memory_overhead(self, small_cloud):
        order = order_of(small_cloud, code_bits=32)
        memory = morton.code_memory_bytes(len(order), order.code_bits)
        assert memory == len(small_cloud) * 4

    def test_shared_bounding_box(self, small_cloud):
        box = BoundingBox(np.full(3, -2.0), np.full(3, 2.0))
        order = order_of(small_cloud, bounding_box=box)
        assert len(order) == len(small_cloud)

    def test_deterministic(self, small_cloud):
        a = order_of(small_cloud)
        b = order_of(small_cloud)
        assert np.array_equal(a.permutation, b.permutation)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            order_of(np.empty((0, 3)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            order_of(np.zeros((5, 2)))

    def test_identical_points_stable(self):
        pts = np.ones((10, 3))
        order = order_of(pts)
        # Stable sort keeps the input order for equal codes.
        assert order.permutation[0].tolist() == list(range(10))

    def test_consecutive_ranks_are_spatially_close(self, medium_cloud):
        """The locality property the whole paper rests on: points
        adjacent in Morton order are much closer in space than points
        adjacent in a random order."""
        value = structuredness(
            order_of(medium_cloud), medium_cloud
        )
        assert value < 0.5

    def test_structuredness_of_tiny_cloud(self):
        pts = np.zeros((2, 3))
        assert structuredness(order_of(pts), pts) == 1.0

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 300),
        code_bits=st.sampled_from([12, 24, 32, 63]),
    )
    @settings(max_examples=40, deadline=None)
    def test_permutation_property(self, seed, n, code_bits):
        pts = np.random.default_rng(seed).normal(size=(n, 3))
        order = order_of(pts, code_bits)
        assert sorted(order.permutation[0].tolist()) == list(range(n))
        sorted_codes = order.codes[0][order.permutation[0]]
        assert (np.diff(sorted_codes) >= 0).all()

    def test_wider_codes_refine_ordering(self, medium_cloud):
        """More code bits -> equal or finer spatial ordering quality."""
        coarse = structuredness(
            order_of(medium_cloud, 12), medium_cloud
        )
        fine = structuredness(
            order_of(medium_cloud, 48), medium_cloud
        )
        assert fine <= coarse + 0.05
