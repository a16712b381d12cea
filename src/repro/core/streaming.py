"""Streaming Morton-order maintenance across frames.

The paper's motivating applications (AR/VR, autonomous driving,
Sec. 2.1.1) process *streams* of point-cloud frames.  Re-structurizing
every frame from scratch repeats the full sort; when consecutive
frames overlap heavily (a scanner panning a scene), it is cheaper to
*maintain* the order: encode only the new points and merge them into
the standing sorted sequence (``O(new log new + N)`` instead of
``O(N log N)``), and drop departed points with a mask.

:class:`StreamingMortonOrder` implements that maintenance over a fixed
scene-level grid (codes must be comparable across frames, so the
bounding box is supplied up front, exactly as
:class:`~repro.core.sampler.MortonSampler` supports).
"""

from __future__ import annotations

import numpy as np

from typing import Optional

from repro.core import morton
from repro.geometry.bbox import BoundingBox
from repro.geometry.voxel import VoxelGrid
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.robustness.validate import (
    CloudValidationError,
    ValidationPolicy,
    sanitize_cloud,
)


class StreamingMortonOrder:
    """Maintains a Morton-sorted point set across insertions/removals.

    Args:
        bounding_box: the fixed scene-level quantization domain.
        code_bits: Morton code width.
        validation: sanitization policy applied to every insertion.
            The default rejects non-finite points (a NaN would poison
            its Morton code and break the sorted invariant for every
            later merge) but accepts out-of-box points, which quantize
            to the scene-boundary voxels exactly as before.  Pass a
            policy with ``bounding_box`` set (usually the scene box)
            to drop (``repair``) or clip (``clamp``) strays instead.
        metrics: optional
            :class:`~repro.observability.metrics.MetricsRegistry`
            keeping inserts, insert/evict point counts, maintenance
            ops, and the current size/scratch-resort cost as
            ``streaming_*`` counters and gauges.  Defaults to
            :data:`~repro.observability.metrics.NULL_METRICS`.

    The object stores points in sorted order internally;
    :attr:`points` and :attr:`codes` expose them.
    """

    def __init__(
        self,
        bounding_box: BoundingBox,
        code_bits: int = morton.DEFAULT_CODE_BITS,
        validation: Optional[ValidationPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        per_axis = morton.bits_per_axis(code_bits)
        self.code_bits = code_bits
        self.validation = validation or ValidationPolicy()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.grid = VoxelGrid.for_box(bounding_box, per_axis)
        self._points = np.empty((0, 3), dtype=np.float64)
        self._codes = np.empty(0, dtype=np.int64)
        #: Sanitization report of the most recent insert (None before
        #: the first one).
        self.last_report = None
        #: Sort work performed so far, in merge-equivalent element ops
        #: (for comparing against from-scratch re-sorts).
        self.maintenance_ops = 0

    def _update_gauges(self) -> None:
        registry = self.metrics
        registry.gauge("streaming_points").set(len(self))
        registry.gauge("streaming_scratch_resort_ops").set(
            self.scratch_resort_ops()
        )

    def _count(self, name: str, amount: float = 1.0) -> None:
        if amount:
            self.metrics.counter(name).inc(amount)

    def __len__(self) -> int:
        return self._points.shape[0]

    @property
    def points(self) -> np.ndarray:
        """The current ``(N, 3)`` float64 point set, in Morton order
        (read-only view)."""
        return self._points

    @property
    def codes(self) -> np.ndarray:
        """The matching ``(N,)`` int64 Morton codes, ascending."""
        return self._codes

    def insert(self, new_points: np.ndarray) -> None:
        """Merge new points into the standing order.

        Cost: sorting the new block plus one linear merge — cheaper
        than re-sorting everything when ``len(new) << len(self)``.
        """
        new_points = np.asarray(new_points, dtype=np.float64)
        if new_points.ndim != 2 or new_points.shape[1] != 3:
            raise ValueError(
                f"expected (M, 3) points, got {new_points.shape}"
            )
        if new_points.shape[0] == 0:
            return
        offered = new_points.shape[0]
        try:
            new_points, self.last_report = sanitize_cloud(
                new_points, self.validation
            )
        except CloudValidationError as err:
            if (
                self.validation.on_invalid == "repair"
                and err.report.n_output == 0
            ):
                # Repair discarded the whole frame (e.g. every point
                # was a stray outside the scene box): a no-op insert,
                # not an error.
                self.last_report = err.report
                self._count("streaming_points_dropped_total", offered)
                return
            raise
        if new_points.shape[0] == 0:
            self._count("streaming_points_dropped_total", offered)
            return
        new_codes = morton.encode(self.grid.voxelize(new_points))
        block_order = np.argsort(new_codes, kind="stable")
        new_codes = new_codes[block_order]
        new_points = new_points[block_order]
        positions = np.searchsorted(
            self._codes, new_codes, side="right"
        )
        self._codes = np.insert(self._codes, positions, new_codes)
        self._points = np.insert(
            self._points, positions, new_points, axis=0
        )
        m = new_points.shape[0]
        merge_ops = int(m * max(1, np.log2(max(m, 2))) + len(self))
        self.maintenance_ops += merge_ops
        self._count("streaming_inserts_total")
        self._count("streaming_points_inserted_total", m)
        self._count("streaming_points_dropped_total", offered - m)
        self._count("streaming_maintenance_ops_total", merge_ops)
        self._update_gauges()

    def remove_oldest_duplicates(self) -> int:
        """Keep only the most recent point per occupied voxel — a
        simple stream-compaction policy bounding memory on long scans.
        Returns the number removed."""
        if len(self) == 0:
            return 0
        # Later insertions land after earlier equal codes
        # (side="right"), so keeping each run's last entry keeps the
        # newest.
        last_of_run = np.append(np.diff(self._codes) != 0, True)
        removed = int((~last_of_run).sum())
        if removed:
            self._points = self._points[last_of_run]
            self._codes = self._codes[last_of_run]
            self.maintenance_ops += len(last_of_run)
            self._count("streaming_evictions_total", removed)
            self._count(
                "streaming_maintenance_ops_total", len(last_of_run)
            )
            self._update_gauges()
        return removed

    def scratch_resort_ops(self) -> int:
        """Element ops a from-scratch re-sort of the current set would
        cost (``N log N``) — the baseline for maintenance_ops."""
        n = len(self)
        if n == 0:
            return 0
        return int(n * max(1, np.ceil(np.log2(n))))
