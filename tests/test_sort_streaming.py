"""Tests for streaming Morton-order maintenance
(repro.core.streaming)."""

import numpy as np
import pytest

from repro.core import structurize_batch
from repro.core.streaming import StreamingMortonOrder
from repro.geometry import BoundingBox


def _box() -> BoundingBox:
    return BoundingBox(np.zeros(3), np.ones(3) * 10.0)


class TestStreamingOrder:
    def test_insert_keeps_sorted(self, rng):
        stream = StreamingMortonOrder(_box())
        for _ in range(5):
            stream.insert(rng.random((100, 3)) * 10.0)
        assert (np.diff(stream.codes) >= 0).all()
        assert len(stream) == 500

    def test_matches_batch_structurize(self, rng):
        """Incremental insertion and a one-shot structurize produce
        the same sorted code sequence."""
        stream = StreamingMortonOrder(_box())
        chunks = [rng.random((64, 3)) * 10.0 for _ in range(4)]
        for chunk in chunks:
            stream.insert(chunk)
        batch = structurize_batch(
            np.concatenate(chunks)[None], bounding_box=_box()
        )
        sorted_codes = batch.codes[0][batch.permutation[0]]
        assert np.array_equal(stream.codes, sorted_codes)

    def test_points_are_in_morton_order(self, rng):
        """The stream stores its points sorted on its grid, so
        structurizing them there gives the identity permutation."""
        stream = StreamingMortonOrder(_box())
        stream.insert(rng.random((50, 3)) * 10.0)
        order = structurize_batch(stream.points[None], bounding_box=_box())
        assert np.array_equal(order.permutation[0], np.arange(50))
        assert np.array_equal(order.codes[0], stream.codes)

    def test_order_feeds_sampler(self, rng):
        from repro.core import MortonSampler

        stream = StreamingMortonOrder(_box())
        stream.insert(rng.random((256, 3)) * 10.0)
        points = stream.points[None]
        order = structurize_batch(points, bounding_box=_box())
        result = MortonSampler().sample_batch(points, 32, order=order)
        assert len(result) == 32

    def test_remove_duplicates_keeps_newest(self):
        stream = StreamingMortonOrder(_box())
        first = np.array([[1.0, 1.0, 1.0]])
        second = np.array([[1.0001, 1.0001, 1.0001]])  # same voxel
        stream.insert(first)
        stream.insert(second)
        removed = stream.remove_oldest_duplicates()
        assert removed == 1
        assert np.allclose(stream.points[0], second[0])

    def test_maintenance_cheaper_than_resort(self, rng):
        """Inserting a small frame into a large standing set costs less
        than a from-scratch re-sort."""
        stream = StreamingMortonOrder(_box())
        stream.insert(rng.random((5000, 3)) * 10.0)
        before = stream.maintenance_ops
        stream.insert(rng.random((100, 3)) * 10.0)
        incremental = stream.maintenance_ops - before
        assert incremental < stream.scratch_resort_ops()

    def test_empty_insert_noop(self):
        stream = StreamingMortonOrder(_box())
        stream.insert(np.empty((0, 3)))
        assert len(stream) == 0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            StreamingMortonOrder(_box()).insert(np.zeros((3, 2)))


class TestStreamingValidation:
    """The sanitization boundary at StreamingMortonOrder.insert."""

    def test_out_of_box_accepted_by_default(self, rng):
        """Without a policy box, strays quantize to boundary voxels —
        the historical behavior."""
        stream = StreamingMortonOrder(_box())
        stream.insert(rng.random((20, 3)) * 10.0)
        stray = np.array([[15.0, -3.0, 25.0]])
        stream.insert(stray)
        assert len(stream) == 21
        assert stream.last_report.ok
        assert (np.diff(stream.codes) >= 0).all()

    def test_repair_with_box_drops_strays(self, rng):
        from repro.robustness import ValidationPolicy

        policy = ValidationPolicy.repair(bounding_box=_box())
        stream = StreamingMortonOrder(_box(), validation=policy)
        frame = rng.random((20, 3)) * 10.0
        frame[:5] += 100.0
        stream.insert(frame)
        assert len(stream) == 15
        assert stream.last_report.dropped == 5
        assert _box().contains(stream.points).all()

    def test_all_stray_frame_is_noop_under_repair(self, rng):
        from repro.robustness import ValidationPolicy

        policy = ValidationPolicy.repair(bounding_box=_box())
        stream = StreamingMortonOrder(_box(), validation=policy)
        stream.insert(rng.random((10, 3)) * 10.0)
        stream.insert(rng.random((8, 3)) * 10.0 + 100.0)
        assert len(stream) == 10  # whole frame discarded, no error
        assert stream.last_report.n_output == 0

    def test_clamp_with_box_clips_strays(self, rng):
        from repro.robustness import ValidationPolicy

        policy = ValidationPolicy.clamp(bounding_box=_box())
        stream = StreamingMortonOrder(_box(), validation=policy)
        frame = rng.random((10, 3)) * 10.0
        frame[0] = [50.0, -50.0, 5.0]
        stream.insert(frame)
        assert len(stream) == 10
        assert _box().contains(stream.points).all()

    def test_non_finite_insert_rejected_with_count(self, rng):
        from repro.robustness import CloudValidationError

        stream = StreamingMortonOrder(_box())
        frame = rng.random((10, 3)) * 10.0
        frame[2, 1] = np.nan
        frame[7, 0] = np.inf
        with pytest.raises(CloudValidationError, match="2 of 10"):
            stream.insert(frame)
        assert len(stream) == 0  # stream state untouched

    def test_repair_drops_non_finite_rows(self, rng):
        from repro.robustness import ValidationPolicy

        stream = StreamingMortonOrder(
            _box(), validation=ValidationPolicy.repair()
        )
        frame = rng.random((10, 3)) * 10.0
        frame[0, 0] = np.nan
        stream.insert(frame)
        assert len(stream) == 9
        assert np.isfinite(stream.points).all()

    def test_empty_stream_removals_are_noops(self):
        stream = StreamingMortonOrder(_box())
        assert stream.remove_oldest_duplicates() == 0
        assert len(stream) == 0
        assert stream.maintenance_ops == 0

    def test_zero_point_insert_then_remove(self, rng):
        stream = StreamingMortonOrder(_box())
        stream.insert(np.empty((0, 3)))
        assert stream.last_report is None  # no-op before sanitizing
        stream.insert(rng.random((5, 3)) * 10.0)
        stream.insert(np.empty((0, 3)))
        assert len(stream) == 5
        assert stream.remove_oldest_duplicates() == 0
