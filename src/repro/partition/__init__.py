"""Million-point scene partitioning (scatter/gather over chunks).

EdgePC's Morton structurization (paper Sec. 4.1) makes contiguous rank
ranges spatially compact — so a scene far above the per-cloud budget
can be split into Morton-contiguous chunks, each padded with a halo of
boundary points wide enough to cover the model's receptive field, and
executed as rectangular ``(B, S, 3)`` batches through the existing
pipeline.  Stitching assigns every scene point the prediction of the
chunk that *owns* it (owner-chunk priority), which keeps multi-chunk
output deterministic and — for halo widths at or above the receptive
field — identical to the monolithic run on interior points.
"""

from repro.partition.cost import PartitionCostReport, price_partition
from repro.partition.partitioner import (
    PartitionPlan,
    SceneChunk,
    ScenePartitioner,
    halo_width_for,
)
from repro.partition.pipeline import (
    PartitionedPipeline,
    PartitionedResult,
    PartitionRejectedError,
    scene_tuned_pipeline,
)

__all__ = [
    "ScenePartitioner",
    "PartitionPlan",
    "SceneChunk",
    "halo_width_for",
    "PartitionedPipeline",
    "PartitionedResult",
    "PartitionRejectedError",
    "PartitionCostReport",
    "price_partition",
    "scene_tuned_pipeline",
]
