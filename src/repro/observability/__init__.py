"""Runtime telemetry: tracing, metrics, and exportable run reports.

Three cooperating pieces, all zero-dependency and thread-safe:

- :class:`Tracer` — hierarchical wall-clock + simulated-cost spans
  with JSONL and Chrome ``trace_event`` exporters
  (:mod:`repro.observability.tracing`);
- :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms with Prometheus-text and JSON snapshot exporters
  (:mod:`repro.observability.metrics`);
- :class:`RunReport` — the profiler's breakdown/energy reports and
  their per-stage medians as one serializable run summary
  (:mod:`repro.observability.report`).

PR 7 adds end-to-end request observability on top:

- :class:`TraceContext` — immutable propagation token minted at the
  serving front door and threaded through batching, retries, and
  hedges, so one request's spans stitch into a single cross-replica
  trace (:mod:`repro.observability.context`);
- :class:`SloEngine` — declarative latency/error/goodput objectives
  evaluated over sliding metric windows with multi-window error-budget
  burn-rate alerts (:mod:`repro.observability.slo`);
- :func:`write_artifacts` — the one writer of a run's artifact
  bundle (metrics snapshot, span JSONL, Chrome trace, command
  report), and :func:`render_dashboard` — deterministic text snapshot
  of fleet health, SLO budgets, the partitioned scene, and slowest
  traces, also exposed as ``repro dashboard``
  (:mod:`repro.observability.dashboard`).

The wall clock is injectable: :mod:`repro.observability.clock` holds
the one sanctioned ``time.time()`` call (:func:`wall_clock`) plus a
deterministic :class:`FixedClock`; everything that stamps wall time
takes a ``clock=`` parameter (enforced by the DET-202 lint rule).

Instrumented call sites (:class:`~repro.pipeline.EdgePCPipeline`,
whose guard stage reports through it,
:class:`~repro.core.streaming.StreamingMortonOrder`,
:class:`~repro.train.trainer.Trainer`) accept optional
``tracer``/``metrics`` arguments and resolve ``None`` once to the
no-op :data:`NULL_TRACER` / :data:`NULL_METRICS`; every layer below
them writes to whatever it was handed, so no call site checks
whether telemetry is on.
"""

from repro.observability.clock import Clock, FixedClock, wall_clock
from repro.observability.context import TraceContext, mint_trace_id
from repro.observability.dashboard import (
    DashboardData,
    bundle_title,
    dashboard_data,
    load_artifacts,
    render_dashboard,
    slowest_traces,
    write_artifacts,
)
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
)
from repro.observability.report import (
    RunReport,
    breakdown_to_dict,
    energy_to_dict,
)
from repro.observability.slo import (
    SloAlert,
    SloEngine,
    SloObjective,
    SloSpec,
    SloStatus,
)
from repro.observability.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    emit_stage_spans,
    find_orphans,
)

__all__ = [
    "Clock",
    "Counter",
    "DEFAULT_BUCKETS",
    "DashboardData",
    "FixedClock",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_SPAN",
    "NULL_TRACER",
    "RunReport",
    "SloAlert",
    "SloEngine",
    "SloObjective",
    "SloSpec",
    "SloStatus",
    "Span",
    "TraceContext",
    "Tracer",
    "breakdown_to_dict",
    "bundle_title",
    "dashboard_data",
    "emit_stage_spans",
    "energy_to_dict",
    "escape_label_value",
    "find_orphans",
    "load_artifacts",
    "mint_trace_id",
    "render_dashboard",
    "slowest_traces",
    "wall_clock",
    "write_artifacts",
]
