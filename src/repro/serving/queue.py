"""Bounded pre-dispatch buffer: admission, deadlines, micro-batching.

The serving layer's front door.  A :class:`RequestQueue` accepts
:class:`ServingRequest` objects up to a fixed depth and rejects the
rest with a typed :class:`AdmissionError` — under overload the cheap
and observable failure mode is an immediate rejection at the door, not
an unbounded queue whose tail latency silently blows every deadline
(the paper's per-frame budgets, Sec. 7, leave no room for queueing
debt).

Admitted requests go straight into **buckets keyed by point count**
``N`` (a batch must be rectangular), and a bucket flushes into a
:class:`MicroBatch` when any of three triggers fires:

- **full** — the bucket reached ``max_batch_size``;
- **timeout** — the bucket's oldest request has waited ``max_wait_s``
  (the latency the queue may spend fishing for co-batchable traffic);
- **drain** — the queue closed; everything still buffered flushes
  immediately so shutdown never strands a request.

Each request carries an optional absolute deadline read from the
injectable :data:`~repro.observability.clock.Clock`; requests that
expire while buffered are cancelled with a typed
:class:`DeadlineExceededError` instead of wasting a dispatch slot.

One lock, the queue's :attr:`~RequestQueue.condition`, orders
admission, batch formation, expiry, and shutdown.  Expiry takes a
request out and counts it under that lock, but traces and fails it
only after the lock is released, so done callbacks never run under
it.  Worker threads block in :meth:`RequestQueue.next_batch`; the
fleet's virtual-time event loop calls the non-blocking
:meth:`RequestQueue.poll` and :meth:`RequestQueue.expire_due`.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.observability.clock import Clock, wall_clock
from repro.observability.context import TraceContext
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.tracing import NULL_TRACER, Tracer

#: Histogram buckets for dispatched batch sizes (clouds per batch).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
)


class AdmissionError(RuntimeError):
    """The serving layer refused to accept a request.

    Carries a machine-readable :attr:`reason` so load generators and
    clients can tell deliberate load shedding from bugs.
    """

    reason = "admission"

    def __init__(self, message: str) -> None:
        super().__init__(message)


class QueueFullError(AdmissionError):
    """Rejected because the queue is at its configured depth."""

    reason = "queue_full"


class QueueClosedError(AdmissionError):
    """Rejected because the server is draining or stopped."""

    reason = "closed"


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before it could be dispatched."""


@dataclass
class ServingRequest:
    """One queued inference request for a single ``(N, 3)`` cloud.

    Attributes:
        request_id: caller-visible identifier (unique per server).
        cloud: the ``(N, 3)`` float64 point cloud to classify/segment.
        arrival_s: clock reading when the request was admitted.
        deadline_s: absolute clock instant after which the request is
            cancelled instead of dispatched; ``None`` means no
            deadline.
        future: resolves to a
            :class:`~repro.serving.server.ServedResult` or to a typed
            error (:class:`DeadlineExceededError`,
            :class:`QueueClosedError`, a guard rejection, ...).
        ctx: trace context minted at the front door (fleet or server
            submit); every span the request touches — queue wait,
            batch execution, kernel stages, terminal outcome — joins
            ``ctx.trace_id`` so cross-replica attempts stitch into a
            single trace.  ``None`` only when tracing is disabled.
    """

    request_id: str
    cloud: np.ndarray
    arrival_s: float
    deadline_s: Optional[float] = None
    future: Future = field(default_factory=Future)
    ctx: Optional[TraceContext] = None

    @property
    def n_points(self) -> int:
        return int(self.cloud.shape[0])

    def expired(self, now: float) -> bool:
        """The boundary counts as expired (``now >= deadline``), so a
        virtual-time event loop parked exactly on the deadline makes
        progress instead of re-polling the same instant forever."""
        return self.deadline_s is not None and now >= self.deadline_s


@dataclass(frozen=True)
class MicroBatch:
    """One flushed batch, ready for a single batched dispatch.

    Attributes:
        requests: the coalesced requests, admission order.
        xyz: the stacked ``(B, N, 3)`` float64 input batch.
        formed_s: clock reading when the batch was flushed.
        trigger: ``"full"`` | ``"timeout"`` | ``"drain"``.
    """

    requests: Tuple[ServingRequest, ...]
    xyz: np.ndarray
    formed_s: float
    trigger: str

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def n_points(self) -> int:
        return int(self.xyz.shape[1])


def emit_request_root(
    tracer: Tracer,
    ctx: TraceContext,
    start_s: float,
    duration_s: float,
    attrs: Dict[str, object],
) -> None:
    """Write a trace's root span ``request`` under the span id ``ctx``
    reserved at mint time, once the request's path is known.

    The one writer of the root, for every way a request ends: served
    by a lone server, failed or expired in a replica's queue, or
    settled by the fleet.  ``start_s`` is trace-relative and ``attrs``
    carry the path's outcome.
    """
    tracer.emit_span(
        "request",
        start_s=start_s,
        duration_s=duration_s,
        trace_id=ctx.trace_id,
        span_id=ctx.span_id,
        thread="requests",
        attrs=attrs,
    )


def emit_request_trace(
    tracer: Tracer,
    request: ServingRequest,
    now: float,
    outcome: str,
    detail: str = "",
) -> None:
    """Project a request's unhappy terminal state into its trace.

    Emits a ``request.<outcome>`` span covering arrival → ``now`` under
    the request's :class:`TraceContext`, and — when this context *owns*
    the trace (``ctx.is_root``) — the late-bound root span reserved at
    mint time.  Shared by every path that resolves a request future
    without a result: queue expiry, batch failure, shutdown
    cancellation, and fleet backlog sheds, so no future is ever
    settled outside its trace (lint rule OBS-303 keeps it that way).
    """
    ctx = request.ctx
    if ctx is None or not tracer.enabled:
        return
    attrs: Dict[str, object] = {"outcome": outcome}
    if detail:
        attrs["detail"] = detail
    tracer.emit_span(
        f"request.{outcome}",
        start_s=tracer.rel(request.arrival_s),
        duration_s=max(0.0, now - request.arrival_s),
        trace_id=ctx.trace_id,
        parent_id=ctx.span_id,
        thread="requests",
        attrs=attrs,
    )
    if ctx.is_root:
        emit_request_root(
            tracer,
            ctx,
            tracer.rel(request.arrival_s),
            now - request.arrival_s,
            {"request_id": request.request_id, "outcome": outcome},
        )


#: An expired request and the error its future resolves to.
_Expired = Tuple[ServingRequest, DeadlineExceededError]


class RequestQueue:
    """Bounded buffer of :class:`ServingRequest` that forms the batches.

    Args:
        max_depth: buffered requests before :meth:`put` rejects with
            :class:`QueueFullError`.  A request leaves the buffer when
            it is dispatched in a batch, expires, or is cancelled.
        max_batch_size: flush a bucket at this many clouds.
        max_wait_s: flush a bucket once its oldest request has waited
            this long.
        clock: injectable clock shared with the server.
        metrics: the owner's registry; admission decisions become
            ``serving_admitted_total`` / ``serving_rejected_total``
            counters and a ``serving_queue_depth`` gauge; flushed
            batches ``serving_batches_total`` (by trigger),
            ``serving_batch_size_clouds`` and
            ``serving_batch_wait_seconds``; expiries
            ``serving_expired_total``.
        tracer: optional tracer; an expiry projects a
            ``request.expired`` span into the request's trace so a
            deadline miss shows in the same timeline as the batches
            that did dispatch.

    Attributes:
        condition: the queue's :class:`threading.Condition`.  It
            guards the buckets; :meth:`next_batch` waits on it and
            :meth:`put` / :meth:`close` notify it, so one lock orders
            admission, batch formation, and shutdown.
        admitted: requests accepted so far (backpressure counter).
        rejected: requests refused so far (backpressure counter).
        rejected_by_reason: rejection counts keyed by the typed
            :attr:`AdmissionError.reason` (``queue_full``,
            ``closed``, ...), mirrored into the load report.
        expired: requests cancelled past their deadline so far.
    """

    def __init__(
        self,
        max_depth: int = 64,
        max_batch_size: int = 8,
        max_wait_s: float = 0.05,
        clock: Clock = wall_clock,
        metrics: MetricsRegistry = NULL_METRICS,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be positive")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        self.max_depth = int(max_depth)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.clock = clock
        self.metrics = metrics
        self.tracer = tracer
        self.condition = threading.Condition()
        self.admitted = 0
        self.rejected = 0
        self.rejected_by_reason: Dict[str, int] = {}
        self.expired = 0
        self._buckets: Dict[int, List[ServingRequest]] = {}
        self._closed = False

    # Admission -------------------------------------------------------

    def put(self, request: ServingRequest) -> None:
        """Admit one request into its point-count bucket or raise a
        typed :class:`AdmissionError`.

        Thread-safe; wakes any worker blocked in :meth:`next_batch`.
        A request admitted already past its deadline stays buffered
        until :meth:`expire_on_arrival` (or the next formation pass)
        cancels it.
        """
        with self.condition:
            if self._closed:
                self._count_rejection(QueueClosedError.reason)
                raise QueueClosedError(
                    f"request {request.request_id!r} rejected: the "
                    "server is draining"
                )
            if self._depth_locked() >= self.max_depth:
                self._count_rejection(QueueFullError.reason)
                raise QueueFullError(
                    f"request {request.request_id!r} rejected: "
                    f"backlog is at max depth {self.max_depth}"
                )
            self._buckets.setdefault(request.n_points, []).append(
                request
            )
            self.admitted += 1
            self.metrics.counter("serving_admitted_total").inc()
            self._set_depth_gauge_locked()
            self.condition.notify_all()

    def _count_rejection(self, reason: str) -> None:
        self.rejected += 1
        self.rejected_by_reason[reason] = (
            self.rejected_by_reason.get(reason, 0) + 1
        )
        self.metrics.counter(
            "serving_rejected_total", reason=reason
        ).inc()

    # Bucket maintenance (caller holds condition) ---------------------

    def _depth_locked(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def _set_depth_gauge_locked(self) -> None:
        self.metrics.gauge("serving_queue_depth").set(
            float(self._depth_locked())
        )

    def _expire_locked(self, request: ServingRequest, now: float) -> _Expired:
        """Count ``request``, already out of its bucket, and return it
        with its error for :meth:`_fail_expired`."""
        self.expired += 1
        self._set_depth_gauge_locked()
        self.metrics.counter("serving_expired_total").inc()
        return request, DeadlineExceededError(
            f"request {request.request_id!r} expired "
            f"{now - request.deadline_s:.4f}s past its deadline "
            "before dispatch"
        )

    def _remove_locked(self, request: ServingRequest) -> bool:
        """Take ``request`` out of its bucket; ``False`` if it was not
        buffered (already dispatched, expired or cancelled)."""
        bucket = self._buckets.get(request.n_points, [])
        kept = [queued for queued in bucket if queued is not request]
        if len(kept) == len(bucket):
            return False
        if kept:
            self._buckets[request.n_points] = kept
        else:
            del self._buckets[request.n_points]
        return True

    def _drop_expired_locked(self, now: float) -> List[_Expired]:
        """Expire every buffered request past its deadline, bucket by
        bucket in admission order; returns them for
        :meth:`_fail_expired`."""
        doomed = [
            request
            for bucket in self._buckets.values()
            for request in bucket
            if request.expired(now)
        ]
        expired = []
        for request in doomed:
            self._remove_locked(request)
            expired.append(self._expire_locked(request, now))
        return expired

    def _fail_expired(self, expired: List[_Expired], now: float) -> None:
        """Trace and fail expired requests in expiry order.  Callers
        have released :attr:`condition`, so done callbacks, which may
        take their owner's locks, never run under the queue lock."""
        for request, error in expired:
            emit_request_trace(
                self.tracer, request, now, "expired", detail="pre-dispatch"
            )
            request.future.set_exception(error)

    def _pop_due_locked(self, now: float) -> Optional[MicroBatch]:
        """Flush and return one due bucket, or ``None``; callers drop
        the expired requests first.

        Preference order: a full bucket, then (once the queue closed)
        any bucket, then a bucket whose oldest request timed out.
        """
        trigger = None
        chosen = None
        for n_points, bucket in self._buckets.items():
            if len(bucket) >= self.max_batch_size:
                chosen, trigger = n_points, "full"
                break
        if chosen is None and self._closed and self._buckets:
            chosen = next(iter(self._buckets))
            trigger = "drain"
        if chosen is None:
            for n_points, bucket in self._buckets.items():
                if now >= bucket[0].arrival_s + self.max_wait_s:
                    chosen, trigger = n_points, "timeout"
                    break
        if chosen is None:
            return None
        bucket = self._buckets[chosen]
        taken = bucket[: self.max_batch_size]
        rest = bucket[self.max_batch_size:]
        if rest:
            self._buckets[chosen] = rest
        else:
            del self._buckets[chosen]
        batch = MicroBatch(
            requests=tuple(taken),
            xyz=np.stack([r.cloud for r in taken]),
            formed_s=now,
            trigger=str(trigger),
        )
        self._set_depth_gauge_locked()
        self._note_batch(batch, now)
        return batch

    def _note_batch(self, batch: MicroBatch, now: float) -> None:
        self.metrics.counter(
            "serving_batches_total", trigger=batch.trigger
        ).inc()
        self.metrics.histogram(
            "serving_batch_size_clouds", buckets=BATCH_SIZE_BUCKETS
        ).observe(float(batch.size))
        oldest = min(r.arrival_s for r in batch.requests)
        self.metrics.histogram(
            "serving_batch_wait_seconds"
        ).observe(max(0.0, now - oldest))

    def _wait_hint_locked(self, now: float) -> Optional[float]:
        """Seconds until the next batch comes due (``None``: nothing
        buffered).  Zero when a batch is due right now — a full
        bucket, or any bucket once the queue closed — so event-driven
        callers (the fleet's virtual-time event loop) see it as
        dispatchable the moment a worker frees up."""
        if self._buckets and (
            self._closed
            or any(
                len(bucket) >= self.max_batch_size
                for bucket in self._buckets.values()
            )
        ):
            return 0.0
        deadlines = [
            bucket[0].arrival_s + self.max_wait_s
            for bucket in self._buckets.values()
        ]
        due = deadlines + self._expiries_locked()
        if not due:
            return None
        return max(0.0, min(due) - now)

    def _expiries_locked(self) -> List[float]:
        return [
            request.deadline_s
            for bucket in self._buckets.values()
            for request in bucket
            if request.deadline_s is not None
        ]

    # Batch formation -------------------------------------------------

    def poll(self) -> Optional[MicroBatch]:
        """Non-blocking: return one due batch, or ``None``.

        Used by the fleet's virtual-time event loop, which advances
        the injected clock itself and pumps the server between events.
        """
        with self.condition:
            now = self.clock()
            expired = self._drop_expired_locked(now)
            batch = self._pop_due_locked(now)
        self._fail_expired(expired, now)
        return batch

    def expire_due(self) -> int:
        """Cancel every buffered request past its deadline.

        Returns the number of requests expired by this call.  Used by
        the fleet for **stalled** replicas: a hung worker dispatches
        nothing, but its requests must still fail with a typed
        :class:`DeadlineExceededError` the instant their deadlines
        pass, so callers can retry elsewhere instead of waiting
        forever.
        """
        with self.condition:
            now = self.clock()
            expired = self._drop_expired_locked(now)
        self._fail_expired(expired, now)
        return len(expired)

    def expire_on_arrival(self, request: ServingRequest) -> None:
        """Cancel ``request`` now if it is still buffered and already
        past its deadline.

        The server calls this right after its ``serving.submit`` span
        closes, so a request admitted too late is traced and failed
        after its submission, never inside it.
        """
        expired = []
        with self.condition:
            now = self.clock()
            if request.expired(now) and self._remove_locked(request):
                expired.append(self._expire_locked(request, now))
        self._fail_expired(expired, now)

    def next_batch(self) -> Optional[MicroBatch]:
        """Block until a batch is due; ``None`` means fully drained.

        Worker threads loop on this.  Once the queue is closed and
        every bucket has flushed (through the ``drain`` trigger),
        returns ``None`` so workers exit.
        """
        while True:
            with self.condition:
                now = self.clock()
                expired = self._drop_expired_locked(now)
                batch = self._pop_due_locked(now)
                done = batch is not None or (
                    self._closed and not self._buckets
                )
                if not done and not expired:
                    wait = self._wait_hint_locked(now)
                    # Bounded waits keep a worker responsive to
                    # close() even if a notify is missed.
                    wait = 0.05 if wait is None else min(wait, 0.05)
                    self.condition.wait(wait)
            self._fail_expired(expired, now)
            if done:
                return batch

    def cancel_buffered(self) -> List[ServingRequest]:
        """Remove and return every buffered request, admission order
        within each bucket (a non-draining stop, a shed replica)."""
        with self.condition:
            taken = [
                request
                for bucket in self._buckets.values()
                for request in bucket
            ]
            self._buckets.clear()
            self._set_depth_gauge_locked()
            return taken

    @property
    def next_flush_at(self) -> Optional[float]:
        """Earliest clock instant a batch or an expiry comes due."""
        with self.condition:
            now = self.clock()
            hint = self._wait_hint_locked(now)
            return None if hint is None else now + hint

    @property
    def next_expiry_at(self) -> Optional[float]:
        """Earliest clock instant a buffered deadline expires.

        Unlike :attr:`next_flush_at` this ignores timeout/full
        triggers, so a virtual-time event loop can park a *stalled*
        replica on its next deadline expiry without spinning on a
        flush that will never dispatch.
        """
        with self.condition:
            expiries = self._expiries_locked()
            return min(expiries) if expiries else None

    # Lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Stop admitting; wakes every waiter so drains can finish."""
        with self.condition:
            self._closed = True
            self.metrics.gauge("serving_queue_open").set(0.0)
            self.condition.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def depth(self) -> int:
        """Buffered requests: admitted, not yet dispatched, expired
        or cancelled."""
        with self.condition:
            return self._depth_locked()

    def __repr__(self) -> str:
        return (
            f"RequestQueue(depth={self._depth_locked()}/"
            f"{self.max_depth}, admitted={self.admitted}, "
            f"rejected={self.rejected}, closed={self._closed})"
        )
