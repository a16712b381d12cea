"""Chunked scene inference: scatter, batch, stitch.

:class:`PartitionedPipeline` drives a :class:`ScenePartitioner` plan
through an existing :class:`~repro.pipeline.EdgePCPipeline` (guarded
or not): chunks of one uniform size stack into rectangular
``(B, S, 3)`` batches, ride the ordinary batch path, and the
per-point outputs are stitched back into scene order.  Stitch semantics are **owner-chunk priority**:
every scene point takes the logits its owning chunk computed for it;
halo and padding rows are context only and are discarded.  This makes
multi-chunk output deterministic regardless of chunk count, and — for
halo widths at or above the model's receptive field — identical to
the monolithic run on interior points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.pipeline import EdgePCConfig
from repro.nn.pointnet2 import PointNet2Segmentation, SAConfig
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.partition.partitioner import PartitionPlan, ScenePartitioner
from repro.pipeline import EdgePCPipeline
from repro.robustness.guard import InferenceRejectedError


def scene_tuned_pipeline(
    seed: int,
    halo_width: float,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> EdgePCPipeline:
    """The PointNet++ segmentation pipeline scenes are partitioned for.

    Its SA radii (``halo_width / 3`` and ``2 * halo_width / 3``) sum to
    ``halo_width``, so a plan with that halo covers exactly the model's
    receptive field.  Its exact-engine threshold sits below chunk size,
    so chunk batches dispatch the same fast engines a monolithic run
    would.  ``repro partition`` runs it, and ``tests/test_partition.py``
    prices it against a monolithic run and holds the speedup floors.
    """
    model = PointNet2Segmentation(
        num_classes=13,
        sa_configs=(
            SAConfig(
                ratio=0.25, k=16, radius=halo_width / 3.0,
                mlp=(16, 16, 32),
            ),
            SAConfig(
                ratio=0.25, k=16, radius=2.0 * halo_width / 3.0,
                mlp=(32, 32, 64),
            ),
        ),
        edgepc=replace(EdgePCConfig.baseline(), exact_fast_threshold=1024),
        rng=np.random.default_rng(seed),
    )
    return EdgePCPipeline(model, tracer=tracer, metrics=metrics)


class PartitionRejectedError(RuntimeError):
    """A guarded pipeline rejected a chunk batch.

    Carries the scene indices of the rejected chunks' core points so
    callers can attribute the failure to a region of the scene.
    """

    def __init__(self, reason: str, chunk_indices: Tuple[int, ...]):
        super().__init__(
            f"chunk batch {chunk_indices} rejected: {reason}"
        )
        self.reason = reason
        self.chunk_indices = chunk_indices


@dataclass(frozen=True)
class PartitionedResult:
    """A stitched scene prediction plus the plan that produced it.

    ``simulated_s`` / ``energy_j`` sum the per-batch device profiles,
    i.e. total chunked work including halo overhead — not critical
    path (chunks are independent and may run concurrently).
    """

    logits: np.ndarray
    predictions: np.ndarray
    plan: PartitionPlan
    simulated_s: float
    energy_j: float
    degraded_stages: Tuple[str, ...] = ()

    @property
    def num_points(self) -> int:
        return int(self.predictions.shape[0])


class PartitionedPipeline:
    """Executes partition plans through the batch inference path.

    Args:
        pipeline: an :class:`~repro.pipeline.EdgePCPipeline`; chunk
            batches go through its ``infer``, and a guard rejection
            there raises :class:`PartitionRejectedError`.
        partitioner: the scatter policy; defaults to one sized from
            the model's receptive field when the model exposes
            ``sa_configs``, else a halo-less default.
        max_chunks_per_batch: ceiling on ``B`` per inner batch —
            bounds peak memory of the grouped ``(B, S, k, C)``
            tensors.

    Partition spans and metrics go to the wrapped pipeline's tracer
    and registry, so they land in one trace with its per-stage spans.
    """

    def __init__(
        self,
        pipeline: EdgePCPipeline,
        partitioner: Optional[ScenePartitioner] = None,
        max_chunks_per_batch: int = 4,
    ) -> None:
        if max_chunks_per_batch < 1:
            raise ValueError("max_chunks_per_batch must be positive")
        if partitioner is None:
            model = pipeline.model
            if getattr(model, "sa_configs", None) is not None:
                partitioner = ScenePartitioner.for_model(model)
            else:
                partitioner = ScenePartitioner()
        self.pipeline = pipeline
        self.partitioner = partitioner
        self.max_chunks_per_batch = int(max_chunks_per_batch)
        self.tracer = pipeline.tracer
        self.metrics = pipeline.metrics

    def infer(self, xyz: np.ndarray) -> PartitionedResult:
        """Partition, batch, and stitch one ``(N, 3)`` scene."""
        with self.tracer.span("partition.infer", "partition") as span:
            points = np.asarray(xyz, dtype=np.float64)
            if points.ndim != 2 or points.shape[1] != 3:
                raise ValueError(
                    f"expected an (N, 3) scene, got {points.shape}"
                )
            with self.tracer.span("partition.plan", "partition"):
                plan = self.partitioner.plan(points)
            logits, simulated_s, energy_j, degraded = (
                self._run_chunks(points, plan)
            )
            span.set("points", plan.num_points)
            span.set("chunks", plan.num_chunks)
            span.set("chunk_size", plan.chunk_size)
            span.add_cost(simulated_s)
            self._record_metrics(plan, simulated_s)
            return PartitionedResult(
                logits=logits,
                predictions=logits.argmax(axis=-1),
                plan=plan,
                simulated_s=simulated_s,
                energy_j=energy_j,
                degraded_stages=tuple(sorted(degraded)),
            )

    # Internals -------------------------------------------------------

    def _run_chunks(
        self, points: np.ndarray, plan: PartitionPlan
    ) -> Tuple[np.ndarray, float, float, Set[str]]:
        """Execute the plan's chunks in rectangular batches and
        stitch their core rows back into scene order."""
        chunk_logits: List[np.ndarray] = []
        simulated_s = 0.0
        energy_j = 0.0
        degraded: Set[str] = set()
        step = self.max_chunks_per_batch
        for offset in range(0, plan.num_chunks, step):
            group = plan.chunks[offset : offset + step]
            batch = np.stack(
                [points[chunk.indices] for chunk in group]
            )
            with self.tracer.span(
                "partition.batch", "partition"
            ) as span:
                span.set("chunks", len(group))
                span.set("chunk_size", plan.chunk_size)
                try:
                    result = self.pipeline.infer(batch)
                except InferenceRejectedError as err:
                    raise PartitionRejectedError(
                        err.reason,
                        tuple(chunk.index for chunk in group),
                    ) from err
            simulated_s += result.breakdown.total_s
            energy_j += result.energy.total_j
            degraded.update(result.degraded_stages)
            chunk_logits.extend(result.logits)
        return plan.stitch(chunk_logits), simulated_s, energy_j, degraded

    def _record_metrics(
        self, plan: PartitionPlan, simulated_s: float
    ) -> None:
        registry = self.metrics
        registry.counter("partition_scenes_total").inc()
        registry.counter("partition_chunks_total").inc(
            plan.num_chunks
        )
        registry.counter("partition_points_total").inc(
            plan.num_points
        )
        registry.counter(
            "partition_simulated_seconds_total"
        ).inc(simulated_s)
        registry.histogram("partition_halo_points_ratio").observe(
            plan.halo_ratio
        )
        registry.histogram("partition_chunk_size_points").observe(
            float(plan.chunk_size)
        )
        registry.gauge("partition_last_scene_chunks").set(
            float(plan.num_chunks)
        )
