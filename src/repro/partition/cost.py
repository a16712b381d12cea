"""Pricing chunked vs monolithic scene execution.

A million-point monolithic pass cannot simply be *run* to get its
simulated cost — the whole point of partitioning is that it should
not be executed.  Instead, one representative chunk is recorded
through the real pipeline and its per-op counts are **rescaled** to
scene size before re-pricing on the same cost model:

- linear size fields (point / query / sample / candidate counts,
  FLOPs, scan statistics) scale by ``N / S``;
- the pairwise brute kernels then price quadratically for free,
  because their cost is ``n_queries * n_candidates``;
- scan statistics of the pruning/grid fast engines also scale
  linearly, which is an *optimistic lower bound* for the monolithic
  run (ring probes touch superlinearly many pairs as density grows),
  so the reported chunked-vs-monolithic ratio is conservative.

The chunked side is the representative chunk's priced cost times the
chunk count — halo overhead is included by construction, since the
chunk batch carries its halo and padding rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.recorder import StageRecorder
from repro.partition.partitioner import PartitionPlan
from repro.pipeline import EdgePCPipeline

#: Count fields that grow linearly with the number of points a stage
#: touches.  Everything else (``batch``, ``k``, ``window``, channel
#: widths, flags) is shape-invariant under rescaling.
_LINEAR_COUNT_FIELDS = frozenset(
    {
        "n_points",
        "n_samples",
        "n_queries",
        "n_candidates",
        "n_groups",
        "rows",
        "flops",
        "points_scanned",
        "pairs_scanned",
        "blocks_applied",
        "blocks_pruned",
        "worst_case",
    }
)


@dataclass(frozen=True)
class PartitionCostReport:
    """Chunked vs (projected) monolithic cost of one partition plan."""

    scene_points: int
    chunk_size: int
    num_chunks: int
    halo_ratio: float
    per_chunk_s: float
    chunked_s: float
    monolithic_s: float

    @property
    def speedup(self) -> float:
        """Projected monolithic seconds per chunked second; above 1
        when chunking (despite halo overhead) wins."""
        if self.chunked_s == 0:
            return float("inf")
        return self.monolithic_s / self.chunked_s


def price_partition(
    pipeline: EdgePCPipeline,
    points: np.ndarray,
    plan: PartitionPlan,
) -> PartitionCostReport:
    """Price ``plan`` on ``pipeline``'s device without running the
    scene monolithically.

    Args:
        pipeline: an :class:`~repro.pipeline.EdgePCPipeline`; its
            recorder path (unguarded) runs once on the representative
            chunk.
        points: the ``(N, 3)`` scene the plan was built for.
        plan: the partition plan to price.
    """
    chunk = plan.chunks[0]
    chunk_xyz = np.asarray(points, dtype=np.float64)[
        chunk.indices
    ][np.newaxis]
    recorder = pipeline.record(chunk_xyz)
    per_chunk_s = pipeline.profiler.breakdown(
        recorder, pipeline.config
    ).total_s
    factor = plan.num_points / chunk.size
    scaled = StageRecorder()
    for event in recorder:
        counts = {
            key: value * factor
            if key in _LINEAR_COUNT_FIELDS
            else value
            for key, value in event.counts.items()
        }
        scaled.record(event.stage, event.op, event.layer, **counts)
    monolithic_s = pipeline.profiler.breakdown(
        scaled, pipeline.config
    ).total_s
    return PartitionCostReport(
        scene_points=plan.num_points,
        chunk_size=plan.chunk_size,
        num_chunks=plan.num_chunks,
        halo_ratio=plan.halo_ratio,
        per_chunk_s=per_chunk_s,
        chunked_s=per_chunk_s * plan.num_chunks,
        monolithic_s=monolithic_s,
    )
