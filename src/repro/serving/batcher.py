"""Dynamic micro-batching: coalesce queued requests into ``(B, N, 3)``.

The PR-4 batched kernels only pay off when concurrent single-cloud
requests actually share a dispatch — one fused ``knn_batch`` over
``(B, N, 3)`` instead of ``B`` per-cloud calls.  A
:class:`MicroBatcher` drains the :class:`~repro.serving.queue.
RequestQueue` into **buckets keyed by point count** ``N`` (a batch
must be rectangular) and flushes a bucket into a :class:`MicroBatch`
when any of three triggers fires:

- **full** — the bucket reached ``max_batch_size``;
- **timeout** — the bucket's oldest request has waited ``max_wait_s``
  (the latency the batcher may spend fishing for co-batchable
  traffic);
- **drain** — the queue closed; everything still buffered flushes
  immediately so shutdown never strands a request.

Requests whose deadline expires while buffered are cancelled with a
:class:`~repro.serving.queue.DeadlineExceededError` before they can
waste a dispatch slot.

All batcher state is guarded by the queue's own
:attr:`~repro.serving.queue.RequestQueue.condition`, so admission,
bucketing, flushing, and shutdown are ordered by a single lock; both
the blocking :meth:`MicroBatcher.next_batch` (worker threads) and the
non-blocking :meth:`MicroBatcher.poll` (the fleet's virtual-time
event loop) sit on the same formation logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.observability.clock import Clock, wall_clock
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import NULL_TRACER, Tracer
from repro.serving.queue import (
    DeadlineExceededError,
    RequestQueue,
    ServingRequest,
    emit_request_trace,
)

#: Histogram buckets for dispatched batch sizes (clouds per batch).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
)


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


class MicroBatcher:
    """Coalesces queued requests into rectangular micro-batches.

    Args:
        queue: the admission queue to drain; its ``condition`` also
            guards all bucket state.
        max_batch_size: flush a bucket at this many clouds.
        max_wait_s: flush a bucket once its oldest request has waited
            this long.
        clock: injectable clock shared with the queue/server.
        metrics: optional registry; dispatched batches become
            ``serving_batches_total`` counters (labelled by trigger),
            a ``serving_batch_size_clouds`` histogram, and
            ``serving_expired_total`` cancellations.
        tracer: optional tracer; pre-dispatch expiries project a
            ``request.expired`` span into the request's trace so a
            deadline miss is visible in the same timeline as the
            batches that did dispatch.
    """

    def __init__(
        self,
        queue: RequestQueue,
        max_batch_size: int = 8,
        max_wait_s: float = 0.05,
        clock: Clock = wall_clock,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        self.queue = queue
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.clock = clock
        self.metrics = metrics
        self.tracer = tracer
        self.batches_formed = 0
        self.requests_expired = 0
        self._buckets: Dict[int, List[ServingRequest]] = {}

    # Bucket maintenance (caller holds queue.condition) ---------------

    def _ingest_locked(self, now: float) -> None:
        """Move queued requests into point-count buckets."""
        for request in self.queue.pop_pending():
            if request.expired(now):
                self._expire_locked(request, now)
                continue
            self._buckets.setdefault(request.n_points, []).append(
                request
            )

    def _expire_locked(self, request: ServingRequest, now: float) -> None:
        self.requests_expired += 1
        self.queue.release(1)
        if self.metrics is not None:
            self.metrics.counter("serving_expired_total").inc()
        emit_request_trace(
            self.tracer, request, now, "expired", detail="pre-dispatch"
        )
        request.future.set_exception(
            DeadlineExceededError(
                f"request {request.request_id!r} expired "
                f"{now - request.deadline_s:.4f}s past its deadline "
                "before dispatch"
            )
        )

    def _drop_expired_locked(self, now: float) -> None:
        for n_points in list(self._buckets):
            bucket = self._buckets[n_points]
            alive = []
            for request in bucket:
                if request.expired(now):
                    self._expire_locked(request, now)
                else:
                    alive.append(request)
            if alive:
                self._buckets[n_points] = alive
            else:
                del self._buckets[n_points]

    def _pop_due_locked(self, now: float) -> Optional[MicroBatch]:
        """Flush and return one due bucket, or ``None``.

        Preference order: a full bucket, then (once the queue closed)
        any bucket, then a bucket whose oldest request timed out.
        """
        self._drop_expired_locked(now)
        trigger = None
        chosen = None
        for n_points, bucket in self._buckets.items():
            if len(bucket) >= self.max_batch_size:
                chosen, trigger = n_points, "full"
                break
        if chosen is None and self.queue.closed and self._buckets:
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
        self.queue.release(batch.size)
        self._note_batch(batch, now)
        return batch

    def _note_batch(self, batch: MicroBatch, now: float) -> None:
        self.batches_formed += 1
        if self.metrics is None:
            return
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
        """Seconds until the next batch comes due (``None``: no
        bucket).  Zero when a batch is due right now — a full bucket,
        or any bucket once the queue closed — so event-driven callers
        (the fleet's virtual-time event loop) see it as dispatchable the
        moment a worker frees up."""
        if self._buckets and (
            self.queue.closed
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
        expiries = [
            request.deadline_s
            for bucket in self._buckets.values()
            for request in bucket
            if request.deadline_s is not None
        ]
        due = deadlines + expiries
        if not due:
            return None
        return max(0.0, min(due) - now)

    # Public formation API --------------------------------------------

    def ingest(self) -> int:
        """Move queued requests into buckets now; returns buffered
        count.

        Event-driven callers (the fleet's virtual-time event loop)
        call this after each submission so :attr:`next_flush_at` reflects
        the new request even while every modeled worker is busy.
        """
        with self.queue.condition:
            self._ingest_locked(self.clock())
            return sum(len(b) for b in self._buckets.values())

    def poll(self) -> Optional[MicroBatch]:
        """Non-blocking: return one due batch, or ``None``.

        Used by the fleet's virtual-time event loop, which advances
        the injected clock itself and pumps the server between events.
        """
        with self.queue.condition:
            self._ingest_locked(self.clock())
            return self._pop_due_locked(self.clock())

    def expire_due(self) -> int:
        """Cancel every queued/buffered request past its deadline.

        Returns the number of requests expired by this call.  Used by
        the fleet for **stalled** replicas: a hung worker dispatches
        nothing, but its requests must still fail with a typed
        :class:`~repro.serving.queue.DeadlineExceededError` the
        instant their deadlines pass, so callers can retry elsewhere
        instead of waiting forever.
        """
        with self.queue.condition:
            now = self.clock()
            self._ingest_locked(now)
            before = self.requests_expired
            self._drop_expired_locked(now)
            return self.requests_expired - before

    def next_batch(
        self, timeout_s: Optional[float] = None
    ) -> Optional[MicroBatch]:
        """Block until a batch is due; ``None`` means fully drained.

        Worker threads loop on this.  Once the queue is closed and
        every bucket has flushed, returns ``None`` so workers exit.
        With a ``timeout_s``, also returns ``None`` when nothing
        became due within that host time (callers distinguish via
        :meth:`drained`).
        """
        remaining = timeout_s
        with self.queue.condition:
            while True:
                now = self.clock()
                self._ingest_locked(now)
                batch = self._pop_due_locked(now)
                if batch is not None:
                    return batch
                if self.queue.closed and not self._buckets:
                    # Fully drained (close() already flushed buckets
                    # through the "drain" trigger above).
                    return None
                if remaining is not None and remaining <= 0:
                    return None
                wait = self._wait_hint_locked(now)
                if remaining is not None:
                    wait = (
                        remaining
                        if wait is None
                        else min(wait, remaining)
                    )
                # Bounded waits keep a worker responsive to close()
                # even if a notify is missed.
                wait = 0.05 if wait is None else min(wait, 0.05)
                if remaining is not None:
                    remaining -= wait
                self.queue.condition.wait(wait)

    def cancel_buffered(self) -> List[ServingRequest]:
        """Remove and return every buffered request (non-drain stop)."""
        with self.queue.condition:
            taken = [
                request
                for bucket in self._buckets.values()
                for request in bucket
            ]
            self._buckets.clear()
            if taken:
                self.queue.release(len(taken))
            if self.metrics is not None:
                self.metrics.gauge("serving_queue_depth").set(0.0)
            return taken

    def drained(self) -> bool:
        """True when the queue closed and no request is buffered."""
        with self.queue.condition:
            if not self.queue.closed or self._buckets:
                return False
            depth = self.queue.depth
            if self.metrics is not None:
                self.metrics.gauge("serving_queue_depth").set(
                    float(depth)
                )
            return depth == 0

    @property
    def next_flush_at(self) -> Optional[float]:
        """Earliest clock instant a timeout/expiry flush comes due."""
        with self.queue.condition:
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
        with self.queue.condition:
            self._ingest_locked(self.clock())
            expiries = [
                request.deadline_s
                for bucket in self._buckets.values()
                for request in bucket
                if request.deadline_s is not None
            ]
            return min(expiries) if expiries else None

    @property
    def buffered(self) -> int:
        """Requests sitting in buckets, not yet dispatched."""
        with self.queue.condition:
            return sum(len(b) for b in self._buckets.values())
