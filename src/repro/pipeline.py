"""High-level orchestration: model + config + simulated device.

:class:`EdgePCPipeline` is the convenience entry point a downstream
application would use: wrap any of the library's models and get
inference and per-batch device profiling in one object, without
touching recorders or the cost model directly.  Input batches pass
through the :mod:`repro.robustness.validate` boundary before touching
the model; attach a :class:`~repro.robustness.guard.Guard` for
quality-triggered exact-kernel fallback as a stage of ``infer``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.pipeline import EdgePCConfig
from repro.nn.autograd import Tensor, no_grad
from repro.nn.layers import Module, swapped_attribute
from repro.nn.plan import GRID_OPS
from repro.nn.recorder import StageRecorder
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.tracing import (
    NULL_TRACER,
    Tracer,
    emit_stage_spans,
)
from repro.robustness.guard import Guard, StageDegradation
from repro.robustness.validate import (
    CloudValidationError,
    ValidationPolicy,
    ValidationReport,
    sanitize_batch,
)
from repro.runtime.device import DeviceSpec
from repro.runtime.profiler import (
    EnergyReport,
    PipelineProfiler,
    StageBreakdown,
)


@dataclass(frozen=True)
class InferenceResult:
    """Predictions plus the simulated device profile of the pass.

    Under a :class:`~repro.robustness.guard.Guard`, ``config`` is the
    degraded config the batch actually ran under and ``degradations``
    lists the stage fallbacks applied to it.
    """

    logits: np.ndarray
    predictions: np.ndarray
    breakdown: StageBreakdown
    energy: EnergyReport
    #: Priced operation names of the pass (e.g. ``"fps"`` vs
    #: ``"morton_sort"``) — lets callers verify which kernels ran.
    stage_ops: Tuple[str, ...] = ()
    #: Per-cloud sanitization reports from the validation boundary.
    validation: Tuple[ValidationReport, ...] = ()
    #: Guard fallbacks applied to this batch (empty when unguarded).
    degradations: Tuple[StageDegradation, ...] = ()
    #: The config the returned pass ran (and was priced) under.
    config: Optional[EdgePCConfig] = None

    @property
    def degraded_stages(self) -> Tuple[str, ...]:
        return tuple(
            dict.fromkeys(d.stage for d in self.degradations)
        )

    @property
    def latency_ms(self) -> float:
        return self.breakdown.total_s * 1e3

    @property
    def energy_j(self) -> float:
        return self.energy.total_j


def record_priced_batch(
    registry: MetricsRegistry,
    batch: int,
    breakdown: StageBreakdown,
    energy: EnergyReport,
    recorder: StageRecorder,
) -> None:
    """Fold one priced batch of ``batch`` clouds into ``registry``.

    The one writer of the priced series: batches, clouds, the stage
    and batch latency histograms, simulated seconds, energy and reuse
    hits.  :meth:`EdgePCPipeline.infer` calls it for executed batches
    and ``repro trace`` for synthesized workload plans.
    """
    reuse_hits = sum(1 for e in recorder if e.op == "reuse")
    if reuse_hits:
        registry.counter("neighbor_reuse_hits_total").inc(reuse_hits)
    registry.counter("pipeline_batches_total").inc()
    registry.counter("pipeline_clouds_total").inc(batch)
    for stage, seconds in breakdown.stages():
        registry.histogram(
            "pipeline_stage_latency_seconds", stage=stage
        ).observe(seconds)
    registry.histogram("pipeline_batch_latency_seconds").observe(
        breakdown.total_s
    )
    registry.counter("pipeline_simulated_seconds_total").inc(
        breakdown.total_s
    )
    registry.counter("pipeline_energy_joules_total").inc(energy.total_j)


class EdgePCPipeline:
    """Wraps a model and profiles every inference on the edge device.

    Args:
        model: any library model whose ``forward(xyz, recorder=...)``
            returns logits (class axis last) — both PointNet++ and
            DGCNN variants qualify.  Its ``edgepc`` attribute is the
            active :class:`EdgePCConfig` (read through :attr:`config`).
        device: simulated device; defaults to the Xavier-like spec.
        validation: sanitization policy applied to every batch
            entering :meth:`infer` / :meth:`record`; defaults to the
            strict ``reject`` policy (raise
            :class:`~repro.robustness.validate.CloudValidationError`
            on NaN/Inf, undersized, or malformed input).
        guard: optional :class:`~repro.robustness.guard.Guard`; when
            given, :meth:`infer` probes every sanitized batch, runs it
            with the tripped stages on exact kernels, retries
            non-finite logits once on all-exact kernels, and raises
            :class:`~repro.robustness.guard.InferenceRejectedError`
            (instead of ``CloudValidationError``) for a batch it
            cannot serve.
        tracer: optional :class:`~repro.observability.tracing.Tracer`;
            every inference becomes a ``pipeline.infer`` span with
            validate/forward children (and ``guard.probe`` /
            ``guard.retry_exact`` under a guard) plus simulated
            per-stage spans.
            Defaults to the no-op tracer (zero per-batch allocation).
        metrics: optional
            :class:`~repro.observability.metrics.MetricsRegistry`
            for batch counts, per-stage latency histograms, and
            validation repair/reject counters.  Defaults to
            :data:`~repro.observability.metrics.NULL_METRICS`, which
            records nothing.
    """

    def __init__(
        self,
        model: Module,
        device: Optional[DeviceSpec] = None,
        validation: Optional[ValidationPolicy] = None,
        guard: Optional[Guard] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if getattr(model, "edgepc", None) is None:
            raise ValueError("use a model with an .edgepc attribute")
        self.model = model
        self.profiler = PipelineProfiler(device)
        self.validation = validation or ValidationPolicy()
        self.guard = guard
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        # Last-seen (hits, misses) of the model's scratch workspace, so
        # per-batch counter increments report deltas, not totals.
        self._workspace_seen = (0, 0)

    @property
    def config(self) -> EdgePCConfig:
        """The active config: a read-only view of ``model.edgepc``."""
        return self.model.edgepc

    def _count_validation(
        self, reports: List[ValidationReport]
    ) -> None:
        """Fold sanitization outcomes into the metrics registry."""
        registry = self.metrics
        for report in reports:
            for issue in report.issues:
                registry.counter(
                    "validation_issues_total",
                    kind=issue.kind, action=issue.action,
                ).inc(issue.count)
            # sanitize_batch pads repaired clouds back to N, so
            # `report.dropped` is 0 here; a repair is any issue the
            # sanitizer acted on rather than just flagged.
            if any(
                issue.action in ("dropped", "clamped")
                for issue in report.issues
            ):
                registry.counter("validation_repairs_total").inc()

    def _sanitize(
        self, xyz: np.ndarray
    ) -> Tuple[np.ndarray, List[ValidationReport]]:
        xyz = np.asarray(xyz, dtype=np.float64)
        if xyz.ndim == 2 and xyz.shape[-1] == 3:
            # A single (N, 3) cloud rides the batch path at B=1, so
            # direct calls and the serving micro-batcher share one
            # code path (and each pass emits its metrics exactly
            # once).  Outputs keep the leading batch axis.
            xyz = xyz[np.newaxis, ...]
        try:
            xyz, reports = sanitize_batch(xyz, self.validation)
        except CloudValidationError:
            self.metrics.counter("validation_rejects_total").inc()
            raise
        self._count_validation(reports)
        return xyz, reports

    def _forward(
        self, xyz: np.ndarray, config: EdgePCConfig
    ) -> Tuple[StageRecorder, np.ndarray]:
        """One eval-mode forward pass under ``config``, training mode
        and the model's own config restored after; returns the stage
        trace and the logits."""
        recorder = StageRecorder()
        was_training = self.model.training
        self.model.eval()
        swap = (
            nullcontext()
            if config is self.config
            else swapped_attribute(self.model, "edgepc", config)
        )
        try:
            with self.tracer.span("pipeline.forward", "pipeline"):
                with no_grad(), swap:
                    logits = self.model(xyz, recorder=recorder)
        finally:
            if was_training:
                self.model.train()
        if isinstance(logits, Tensor):
            logits = logits.numpy()
        return recorder, logits

    def _guarded_forward(
        self,
        xyz: np.ndarray,
        reports: List[ValidationReport],
    ) -> Tuple[
        EdgePCConfig, List[StageDegradation], StageRecorder, np.ndarray
    ]:
        """Probe, run under the selected config, and retry non-finite
        logits once on exact kernels; returns the config, degradations,
        stage trace and logits of the pass that is served."""
        guard, tracer, metrics = self.guard, self.tracer, self.metrics
        config, degradations = guard.select(
            xyz, self.model, tracer, metrics
        )
        recorder, logits = self._forward(xyz, config)
        if not np.isfinite(logits).all():
            exact = guard.retry_config(config, degradations, metrics)
            if exact is not None:
                config = exact
                with tracer.span("guard.retry_exact", "guard"):
                    recorder, logits = self._forward(xyz, config)
            if not np.isfinite(logits).all():
                raise guard.rejected(
                    "model produced non-finite logits even on exact "
                    "kernels",
                    reports, degradations, metrics,
                )
        guard.served(degradations, metrics)
        return config, degradations, recorder, logits

    def infer(self, xyz: np.ndarray) -> InferenceResult:
        """Sanitize and run one batch in eval mode, and profile it.

        Accepts a ``(B, N, 3)`` batch or a single ``(N, 3)`` cloud —
        the latter is routed through the same batch path at ``B=1``
        (outputs keep the leading batch axis).  Under a guard, a batch
        that fails validation or keeps non-finite logits raises
        :class:`~repro.robustness.guard.InferenceRejectedError`.
        """
        tracer, guard = self.tracer, self.guard
        with tracer.span("pipeline.infer", "pipeline") as span:
            with tracer.span("pipeline.validate", "pipeline"):
                try:
                    xyz, reports = self._sanitize(xyz)
                except CloudValidationError as err:
                    if guard is None:
                        raise
                    raise guard.rejected(
                        str(err), [err.report], [], self.metrics
                    ) from err
            if guard is None:
                config, degradations = self.config, []
                recorder, logits = self._forward(xyz, config)
            else:
                config, degradations, recorder, logits = (
                    self._guarded_forward(xyz, reports)
                )
            breakdown = self.profiler.breakdown(recorder, config)
            energy = self.profiler.energy(recorder, config)
            span.set("batch", int(xyz.shape[0]))
            span.set("points", int(xyz.shape[1]))
            span.set("ops", len(recorder))
            span.add_cost(breakdown.total_s)
            emit_stage_spans(tracer, breakdown)
            record_priced_batch(
                self.metrics, xyz.shape[0], breakdown, energy, recorder
            )
            # Measured-only series: a synthesized plan carries just
            # worst-case counts and holds no workspace.
            self._record_exact_fast_metrics(self.metrics, recorder)
            self._record_workspace_metrics(self.metrics)
            result = InferenceResult(
                logits=logits,
                predictions=logits.argmax(axis=-1),
                breakdown=breakdown,
                energy=energy,
                stage_ops=tuple(recorder.op_names()),
                validation=tuple(reports),
                degradations=tuple(degradations),
                config=config,
            )
            if guard is not None:
                span.set("degraded_stages", list(result.degraded_stages))
            return result

    def _record_exact_fast_metrics(
        self,
        registry: MetricsRegistry,
        recorder: StageRecorder,
    ) -> None:
        """Export fast exact-engine effectiveness (large-N fallback).

        Each fast-engine event contributes one observation to the
        ``exact_fast_scan_ratio`` histogram — the fraction of the brute
        kernel's all-pairs work the pruning / grid probe actually
        performed — and pruned-FPS events also increment the
        ``exact_fast_blocks_pruned_total`` counter.
        """
        for event in recorder:
            c = event.counts
            batch = c.get("batch", 1)
            if event.op == "fps_fast":
                pruned = c.get("blocks_pruned", 0.0) * batch
                if pruned:
                    registry.counter(
                        "exact_fast_blocks_pruned_total"
                    ).inc(pruned)
                worst = c.get("worst_case", 0.0)
                scanned = c.get("points_scanned", 0.0)
                ratio = scanned / worst if worst else 1.0
            elif event.op in GRID_OPS:
                worst = c["n_queries"] * c["n_candidates"]
                scanned = c.get("pairs_scanned", 0.0)
                ratio = scanned / worst if worst else 1.0
            else:
                continue
            registry.histogram(
                "exact_fast_scan_ratio", op=event.op
            ).observe(ratio)

    def _record_workspace_metrics(
        self, registry: MetricsRegistry
    ) -> None:
        """Export the model's scratch-pool state (batched kernels)."""
        workspace = getattr(self.model, "workspace", None)
        if workspace is None:
            return
        registry.gauge("workspace_bytes_allocated").set(
            float(workspace.bytes_allocated)
        )
        registry.gauge("workspace_budget_bytes").set(
            float(workspace.scratch_bytes)
        )
        registry.gauge("workspace_buffers").set(
            float(workspace.num_buffers)
        )
        seen_hits, seen_misses = self._workspace_seen
        hit_delta = max(0, workspace.hits - seen_hits)
        miss_delta = max(0, workspace.misses - seen_misses)
        if hit_delta:
            registry.counter("workspace_buffer_hits_total").inc(
                hit_delta
            )
        if miss_delta:
            registry.counter("workspace_buffer_misses_total").inc(
                miss_delta
            )
        self._workspace_seen = (workspace.hits, workspace.misses)

    def record(self, xyz: np.ndarray) -> StageRecorder:
        """Run one batch and return the raw stage trace."""
        with self.tracer.span("pipeline.record", "pipeline") as span:
            xyz, _ = self._sanitize(xyz)
            recorder, _ = self._forward(xyz, self.config)
            span.set("ops", len(recorder))
        return recorder
