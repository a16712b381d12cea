"""Thread-pool inference server over the batched pipeline kernels.

:class:`InferenceServer` turns an
:class:`~repro.pipeline.EdgePCPipeline` (guarded or not) into a
request/response service: callers :meth:`~InferenceServer.submit` single
``(N, 3)`` clouds and get back per-request futures, while the
:class:`~repro.serving.queue.RequestQueue` coalesces the traffic
into ``(B, N, 3)`` micro-batches that ride the PR-4 batched kernel
path in one dispatch.

Two execution modes share one dispatch routine:

- **threaded** — :meth:`~InferenceServer.start` spawns a worker pool;
  each worker blocks on the queue and dispatches.  Model forwards are
  serialized by a dispatch lock — the model, its scratch
  :class:`~repro.core.workspace.Workspace` and the guard's breakers
  are shared mutable state — while admission, batching, cancellation,
  and future completion run concurrently.
- **virtual** — :meth:`~InferenceServer.pump` forms and dispatches
  due batches inline on the caller's thread, under a
  :class:`~repro.observability.clock.FixedClock`.  The server keeps
  no notion of time passing: the fleet's event loop
  (:meth:`~repro.serving.fleet.ServerFleet.run`) advances the clock,
  models the workers as lanes, and pumps one batch per free lane.

Shutdown is graceful by default: :meth:`~InferenceServer.stop` closes
the queue (new submissions get a typed
:class:`~repro.serving.queue.QueueClosedError`), lets the workers
flush every buffered request through the queue's drain trigger, and
joins them — zero admitted requests are ever left without a terminal
future outcome.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.observability.clock import Clock, wall_clock
from repro.observability.context import TraceContext
from repro.pipeline import EdgePCPipeline, InferenceResult
from repro.robustness.guard import InferenceRejectedError
from repro.serving.queue import (
    MicroBatch,
    QueueClosedError,
    RequestQueue,
    ServingRequest,
    emit_request_root,
    emit_request_trace,
)

#: Histogram buckets for end-to-end request latency (seconds).
REQUEST_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class DrainTimeoutError(RuntimeError):
    """A worker thread failed to join within ``stop()``'s timeout.

    A thread that outlives the join may still hold requests whose
    futures will never resolve; surfacing that as a typed error (with
    the stuck thread names) beats silently dropping the thread and
    letting the loss go unnoticed.
    """


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving layer (see ``docs/serving.md``).

    Attributes:
        max_queue_depth: admission bound of the request queue.
        max_batch_size: clouds coalesced per dispatched batch.
        max_wait_ms: micro-batching window — how long the oldest
            queued request may wait for co-batchable traffic.
        workers: dispatch worker threads (threaded mode) or modeled
            parallel servers (virtual mode).
    """

    max_queue_depth: int = 64
    max_batch_size: int = 8
    max_wait_ms: float = 50.0
    workers: int = 2

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be positive")


@dataclass(frozen=True)
class ServedResult:
    """Per-request slice of one batched inference.

    Attributes:
        request_id: the request this slice answers.
        logits: this cloud's logits (class axis last).
        prediction: argmax over the class axis.
        batch_size: clouds in the dispatch that served this request.
        trigger: what flushed the batch (full/timeout/drain).
        queue_wait_s: admission-to-dispatch wait on the serving clock.
        simulated_batch_s: the whole batch's simulated device
            seconds.
        degraded_stages: guard fallbacks applied to the batch, if any.
        trace_id: the request's trace id (empty when tracing was off),
            so callers can join a result against the exported trace.
    """

    request_id: str
    logits: np.ndarray
    prediction: np.ndarray
    batch_size: int
    trigger: str
    queue_wait_s: float
    simulated_batch_s: float
    degraded_stages: Tuple[str, ...] = ()
    trace_id: str = ""


@dataclass(frozen=True)
class DispatchRecord:
    """Bookkeeping for one dispatched batch (load-generator input)."""

    dispatched_s: float
    trigger: str
    size: int
    n_points: int
    simulated_s: float
    request_ids: Tuple[str, ...]
    arrivals_s: Tuple[float, ...]
    ok: bool
    error: str = ""

    @classmethod
    def of(
        cls,
        batch: MicroBatch,
        ok: bool,
        simulated_s: float = 0.0,
        error: str = "",
    ) -> "DispatchRecord":
        """The record of ``batch``, dispatched when it was formed."""
        return cls(
            dispatched_s=batch.formed_s,
            trigger=batch.trigger,
            size=batch.size,
            n_points=batch.n_points,
            simulated_s=simulated_s,
            request_ids=tuple(r.request_id for r in batch.requests),
            arrivals_s=tuple(r.arrival_s for r in batch.requests),
            ok=ok,
            error=error,
        )


class InferenceServer:
    """Micro-batching worker-pool server around one pipeline.

    Args:
        pipeline: an :class:`~repro.pipeline.EdgePCPipeline`;
            batches go through its ``infer`` so validation, telemetry,
            and guard fallbacks all apply to served traffic, and the
            server and its queue report through the pipeline's tracer
            and metrics registry.
        config: serving knobs; defaults are tuned for the demo models.
        clock: injectable clock; pass a
            :class:`~repro.observability.clock.FixedClock` for
            deterministic virtual-time serving.
    """

    def __init__(
        self,
        pipeline: EdgePCPipeline,
        config: Optional[ServingConfig] = None,
        clock: Clock = wall_clock,
    ) -> None:
        self.pipeline = pipeline
        self.config = config or ServingConfig()
        self.clock = clock
        self.tracer = pipeline.tracer
        self.metrics = pipeline.metrics
        self.queue = RequestQueue(
            max_depth=self.config.max_queue_depth,
            max_batch_size=self.config.max_batch_size,
            max_wait_s=self.config.max_wait_ms / 1e3,
            clock=clock,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        #: Batches dispatched and the requests they carried (the
        #: mean batch size :meth:`stats` reports).
        self.batches = 0
        self.batched_requests = 0
        self.completed = 0
        self.failed = 0
        self._sequence = 0
        self._threads: List[threading.Thread] = []
        self._dispatch_lock = threading.Lock()
        self._records_lock = threading.Lock()

    # Submission ------------------------------------------------------

    def submit(
        self,
        cloud: np.ndarray,
        deadline_s: Optional[float] = None,
        request_id: Optional[str] = None,
        ctx: Optional[TraceContext] = None,
    ) -> ServingRequest:
        """Admit one ``(N, 3)`` cloud; returns the queued request.

        ``deadline_s`` is relative to now on the serving clock
        (``None``: no deadline).
        ``ctx`` carries an upstream trace context (the fleet passes
        one per attempt); when omitted and tracing is on, the server
        mints a root context here so even standalone submissions get a
        stitched trace.  Raises a typed
        :class:`~repro.serving.queue.AdmissionError` when the queue
        is full or the server is draining; full sanitization happens
        later, inside the pipeline, where its policy and metrics
        apply.
        """
        with self.tracer.span("serving.submit", "serving") as span:
            cloud = np.asarray(cloud, dtype=np.float64)
            if cloud.ndim != 2 or cloud.shape[-1] != 3:
                raise ValueError(
                    f"submit() takes one (N, 3) cloud, got shape "
                    f"{cloud.shape}"
                )
            now = self.clock()
            rid = (
                request_id
                if request_id is not None
                else self._next_id()
            )
            if ctx is None:
                ctx = self.tracer.mint_context(rid)
            request = ServingRequest(
                request_id=rid,
                cloud=cloud,
                arrival_s=now,
                deadline_s=(
                    None if deadline_s is None else now + deadline_s
                ),
                ctx=ctx,
            )
            span.set("request_id", request.request_id)
            span.set("points", request.n_points)
            if ctx is not None:
                span.set("trace_id", ctx.trace_id)
            self.queue.put(request)
        # After the span: a late request's expiry follows its submit.
        self.queue.expire_on_arrival(request)
        return request

    def _next_id(self) -> str:
        with self._records_lock:
            self._sequence += 1
            return f"r{self._sequence:06d}"

    # Dispatch (shared by workers and the virtual pump) ---------------

    def _fail_batch(
        self, batch: MicroBatch, error: Exception, detail: str
    ) -> None:
        """Fail every request of ``batch`` with ``error``: trace each
        as ``failed`` with ``detail`` and resolve its future.  Callers
        count the batch with :meth:`record_failed` right after."""
        now = self.clock()
        for request in batch.requests:
            emit_request_trace(
                self.tracer, request, now, "failed", detail=detail
            )
            request.future.set_exception(error)

    def record_failed(self, count: int, reason: str) -> None:
        """Fold ``count`` terminal failures into the guarded tally.

        Thread-safe by design: worker threads and a caller's
        :meth:`cancel_backlog` (a non-draining :meth:`stop`, or the
        fleet's event loop shedding a dead replica's backlog) all
        account failures here, so the counter write stays under
        ``_records_lock`` like every other ``failed``/``completed``
        mutation.
        """
        with self._records_lock:
            self.failed += count
        self.metrics.counter(
            "serving_failed_total", reason=reason
        ).inc(count)

    def _dispatch(self, batch: MicroBatch) -> DispatchRecord:
        """Run one micro-batch and resolve its futures."""
        with self.tracer.span("serving.dispatch", "serving") as span:
            span.set("batch", batch.size)
            span.set("points", batch.n_points)
            span.set("trigger", batch.trigger)
            for request in batch.requests:
                if request.ctx is not None:
                    # Fan out one link per coalesced request so the
                    # wall-clock batch span references every request
                    # trace it served (and vice versa via the
                    # request.batch projection below).
                    span.add_link(
                        request.ctx.trace_id, request.ctx.span_id
                    )
            started = self.clock()
            ok, error_text = True, ""
            simulated_s = 0.0
            try:
                # The one blocking call deliberately made under a
                # lock: the model, its workspace and the guard's
                # breakers are shared state, so forwards serialize
                # here by design.
                with self._dispatch_lock:
                    result = self.pipeline.infer(batch.xyz)  # repro: allow[CONC-505]
            except InferenceRejectedError as err:
                ok, error_text = False, err.reason
                self._fail_batch(batch, err, "guard_rejected")
                self.record_failed(batch.size, "guard_rejected")
            except Exception as err:
                # Surface the original typed error (e.g. a
                # CloudValidationError) on every affected future and
                # make the failure observable before moving on.
                ok, error_text = False, f"{type(err).__name__}: {err}"
                self._fail_batch(batch, err, type(err).__name__)
                self.record_failed(batch.size, "pipeline_error")
            else:
                simulated_s = result.breakdown.total_s
                self._complete(
                    batch, result, started,
                    dispatch_span_id=span.span_id,
                )
            span.set("ok", ok)
            record = DispatchRecord.of(
                batch, ok, simulated_s=simulated_s, error=error_text
            )
            with self._records_lock:
                self.batches += 1
                self.batched_requests += batch.size
            return record

    def _complete(
        self,
        batch: MicroBatch,
        profiled: InferenceResult,
        started: float,
        dispatch_span_id: int = 0,
    ) -> None:
        registry = self.metrics
        total_s = profiled.breakdown.total_s
        for index, request in enumerate(batch.requests):
            wait_s = max(0.0, started - request.arrival_s)
            trace_id = (
                request.ctx.trace_id if request.ctx is not None else ""
            )
            request.future.set_result(
                ServedResult(
                    request_id=request.request_id,
                    logits=profiled.logits[index],
                    prediction=profiled.predictions[index],
                    batch_size=batch.size,
                    trigger=batch.trigger,
                    queue_wait_s=wait_s,
                    simulated_batch_s=total_s,
                    degraded_stages=profiled.degraded_stages,
                    trace_id=trace_id,
                )
            )
            # Counted per resolved request, so a batch that fails part
            # way through still balances completed + failed.
            with self._records_lock:
                self.completed += 1
            registry.counter("serving_completed_total").inc()
            registry.histogram(
                "serving_queue_wait_seconds"
            ).observe(wait_s)
            # Device time is priced from the cost model; lane
            # queueing behind busy workers is not included here.
            registry.histogram(
                "serving_request_latency_seconds",
                buckets=REQUEST_LATENCY_BUCKETS,
            ).observe(
                wait_s + total_s, trace_id=trace_id or None
            )
            self._emit_request_spans(
                request, batch, profiled, started, dispatch_span_id
            )

    def _emit_request_spans(
        self,
        request: ServingRequest,
        batch: MicroBatch,
        profiled: InferenceResult,
        started: float,
        dispatch_span_id: int,
    ) -> None:
        """Project one served request into its trace.

        Emits ``request.queue`` (admission → dispatch) and
        ``request.batch`` (the batch's simulated device time, linked
        to the wall-clock dispatch span) under the request's context,
        with one child span per kernel stage tiled from the profiled
        breakdown — so a single trace shows where the request's
        latency went, across replicas.
        """
        ctx = request.ctx
        if ctx is None or not self.tracer.enabled:
            return
        tracer = self.tracer
        breakdown = profiled.breakdown
        start = tracer.rel(request.arrival_s)
        dispatch = tracer.rel(started)
        tracer.emit_span(
            "request.queue",
            start_s=start,
            duration_s=max(0.0, dispatch - start),
            trace_id=ctx.trace_id,
            parent_id=ctx.span_id,
            thread="requests",
            attrs={"trigger": batch.trigger},
        )
        batch_span = tracer.emit_span(
            "request.batch",
            start_s=dispatch,
            duration_s=breakdown.total_s,
            trace_id=ctx.trace_id,
            parent_id=ctx.span_id,
            thread="requests",
            attrs={
                "batch_size": batch.size,
                "points": batch.n_points,
                "trigger": batch.trigger,
            },
            links=(
                [("", dispatch_span_id)] if dispatch_span_id else None
            ),
        )
        offset = dispatch
        for stage, seconds in breakdown.stages():
            tracer.emit_span(
                f"request.{stage}",
                start_s=offset,
                duration_s=seconds,
                category="stage",
                trace_id=ctx.trace_id,
                parent_id=batch_span,
                thread="requests",
            )
            offset += seconds
        if ctx.is_root:
            end = dispatch + breakdown.total_s
            emit_request_root(
                tracer,
                ctx,
                start,
                end - start,
                {"request_id": request.request_id, "outcome": "ok"},
            )

    # Threaded mode ---------------------------------------------------

    def start(self) -> "InferenceServer":
        """Spawn the worker pool (idempotent); returns ``self``."""
        with self.tracer.span("serving.start", "serving") as span:
            span.set("workers", self.config.workers)
            if self._threads:
                return self
            for index in range(self.config.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"serving-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
            self.metrics.gauge("serving_workers").set(
                float(len(self._threads))
            )
            return self

    def _worker_loop(self) -> None:
        while True:
            batch = self.queue.next_batch()
            if batch is None:
                return
            try:
                self._dispatch(batch)
            except Exception:
                # _dispatch already resolves futures for pipeline
                # errors; anything escaping here is a serving bug —
                # fail the futures it left unresolved, count only
                # those, and keep the worker alive so the queue never
                # deadlocks behind a dead consumer.
                now = self.clock()
                unresolved = [
                    request
                    for request in batch.requests
                    if not request.future.done()
                ]
                for request in unresolved:
                    emit_request_trace(
                        self.tracer,
                        request,
                        now,
                        "failed",
                        detail="worker_error",
                    )
                    request.future.set_exception(
                        RuntimeError(
                            "serving worker failed while "
                            f"dispatching {request.request_id!r}"
                        )
                    )
                if unresolved:
                    self.record_failed(len(unresolved), "worker_error")

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Close admission and shut the workers down.

        With ``drain=True`` every buffered request is still dispatched
        (the queue's drain trigger flushes partial buckets); with
        ``drain=False`` undispatched requests fail fast with a typed
        :class:`~repro.serving.queue.QueueClosedError`.

        Raises :class:`DrainTimeoutError` when a worker thread is
        still alive after its join timed out — requests it held may
        never resolve, which must not pass silently.
        """
        with self.tracer.span("serving.stop", "serving") as span:
            span.set("drain", drain)
            self.queue.close()
            if not drain:
                self.cancel_backlog(
                    "cancelled",
                    "stop",
                    "cancelled",
                    lambda request: QueueClosedError(
                        f"request {request.request_id!r} cancelled: "
                        "server stopped without draining"
                    ),
                )
            for thread in self._threads:
                thread.join(timeout=timeout_s)
            stuck = [
                thread.name
                for thread in self._threads
                if thread.is_alive()
            ]
            self._threads = []
            span.set("stuck", len(stuck))
            self.metrics.gauge("serving_workers").set(0.0)
            if stuck:
                self.metrics.counter(
                    "serving_drain_timeouts_total"
                ).inc(len(stuck))
                raise DrainTimeoutError(
                    f"{len(stuck)} worker thread(s) failed to join "
                    f"within {timeout_s:.1f}s: {', '.join(stuck)}; "
                    "their in-flight requests may never resolve"
                )

    def cancel_backlog(
        self,
        outcome: str,
        detail: str,
        reason: str,
        error: Callable[[ServingRequest], Exception],
        now: Optional[float] = None,
    ) -> int:
        """Fail every buffered request; returns the count.

        Each request leaves the queue, is traced as
        ``outcome`` with ``detail``, and resolves with
        ``error(request)``; the lot counts as failed under ``reason``.
        Used by a non-draining :meth:`stop` and by the fleet when it
        sheds a dead replica's backlog.
        """
        if now is None:
            now = self.clock()
        pending = self.queue.cancel_buffered()
        for request in pending:
            emit_request_trace(
                self.tracer, request, now, outcome, detail=detail
            )
            request.future.set_exception(error(request))
        if pending:
            self.record_failed(len(pending), reason)
        return len(pending)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # Virtual mode ----------------------------------------------------

    def pump(
        self, limit: Optional[int] = None
    ) -> List[DispatchRecord]:
        """Dispatch up to ``limit`` due batches inline (all, if
        ``None``); returns their records.

        The virtual-time path: no workers run; the fleet's event loop
        advances the injected clock between calls and pumps one batch
        per free lane (see :meth:`~repro.serving.fleet.ServerFleet.step`).
        """
        records: List[DispatchRecord] = []
        while limit is None or len(records) < limit:
            batch = self.queue.poll()
            if batch is None:
                break
            records.append(self._dispatch(batch))
        return records

    # Introspection ---------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Admitted requests not yet resolved either way."""
        return (
            self.queue.admitted
            - self.completed
            - self.failed
            - self.queue.expired
        )

    def stats(self) -> Dict[str, float]:
        """Snapshot of the serving counters; read-only (the same
        tallies go out as ``serving_*`` metrics where they change)."""
        with self._records_lock:
            batches, batched = self.batches, self.batched_requests
        mean = batched / batches if batches else 0.0
        return {
            "admitted": float(self.queue.admitted),
            "rejected": float(self.queue.rejected),
            "expired": float(self.queue.expired),
            "completed": float(self.completed),
            "failed": float(self.failed),
            "batches": float(batches),
            "mean_batch_size": mean,
            "outstanding": float(self.outstanding),
        }
