"""Multi-replica serving fleet with health-aware failover.

A :class:`ServerFleet` fronts N
:class:`~repro.serving.server.InferenceServer` replicas with a
consistent-hash :class:`Router` keyed on stream/tenant id, and layers
the fault-tolerance policy the single-replica server cannot express:

- **Health-aware routing** — each replica carries a
  :class:`~repro.serving.health.ReplicaHealth` state machine fed by
  attempt outcomes.  Ejected replicas receive no traffic; probation
  replicas keep their ring position so re-admission happens through
  real traffic.
- **Deadline-aware retries** — a failed retryable attempt
  (:class:`~repro.serving.chaos.ReplicaFaultError`, admission
  refusals) is re-dispatched to the next replica in preference order
  after a deterministic jittered backoff
  (:class:`~repro.serving.retry.RetryPolicy`), but never when the
  backoff alone would outlive the request's remaining deadline.
- **Hedging** — with a :class:`~repro.serving.retry.HedgePolicy`, a
  primary attempt still pending past the observed latency quantile
  earns one duplicate dispatch on another replica; first result wins
  and the loser is cancelled.

A request with no routable replica is shed at the door with a typed
:class:`NoHealthyReplicaError`.  Which kernel a stage runs is the
guard's decision inside each replica's pipeline; the fleet never
reads it.

The fleet reads its tracer and metrics registry from its pipelines,
which must all share one of each.

The fleet runs only in virtual time, on one thread, under a
:class:`~repro.observability.clock.FixedClock`: time advances only in
its one event loop (:attr:`~ServerFleet.next_event_at`,
:meth:`~ServerFleet.step`, :meth:`~ServerFleet.run`,
:meth:`~ServerFleet.drain`), each replica's ``workers`` are lanes next
to its chaos gate, and the load generator and the chaos harness both
step that loop.  Threaded serving is one
:class:`~repro.serving.server.InferenceServer` (``repro serve``).

Each decision is recorded once, byte-identical across same-seed runs:
its tally is a ``serving_fleet_*`` counter in the shared metrics
registry (the only place a load report reads), and its place in time
is the request's trace — a ``request`` root span with the outcome,
attempt and hedge counts, and one ``request.attempt`` span per
dispatch, carrying its replica, hedge flag, outcome and whether it
was cancelled.
"""

from __future__ import annotations

import bisect
import heapq
import zlib
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.observability.clock import FixedClock
from repro.observability.context import TraceContext
from repro.observability.metrics import NULL_METRICS
from repro.serving.chaos import ChaosGate, ReplicaFaultError
from repro.serving.health import ReplicaHealth
from repro.serving.queue import (
    AdmissionError,
    DeadlineExceededError,
    ServingRequest,
    emit_request_root,
)
from repro.serving.retry import (
    HedgePolicy,
    RetryExhaustedError,
    RetryPolicy,
)
from repro.pipeline import EdgePCPipeline
from repro.serving.server import (
    DispatchRecord,
    InferenceServer,
    ServingConfig,
)


class NoHealthyReplicaError(AdmissionError):
    """Rejected because no routable replica exists right now."""

    reason = "no_healthy_replica"


#: Virtual nodes per replica on the hash ring.
RING_POINTS = 32


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-level knobs (per-replica knobs live in
    :class:`~repro.serving.server.ServingConfig`).

    Attributes:
        retry: the deadline-aware retry policy.
        hedge: optional hedged-dispatch policy; ``None`` disables
            hedging.
    """

    retry: RetryPolicy = RetryPolicy()
    hedge: Optional[HedgePolicy] = None


class Router:
    """Consistent-hash ring mapping tenant keys to replica indices.

    Each replica owns :data:`RING_POINTS` virtual nodes hashed with
    :func:`zlib.crc32` (deterministic across processes, unlike
    ``hash()``).  :meth:`preference` walks the ring clockwise from the
    key's position and returns every replica once, in encounter
    order — the natural failover order that keeps a tenant pinned to
    its primary replica while spreading its retries.
    """

    def __init__(self, replicas: int) -> None:
        if replicas < 1:
            raise ValueError("replicas must be positive")
        self.replicas = int(replicas)
        ring: List[Tuple[int, int]] = []
        for replica in range(self.replicas):
            for vnode in range(RING_POINTS):
                token = f"replica-{replica}-vnode-{vnode}"
                ring.append(
                    (zlib.crc32(token.encode("utf-8")), replica)
                )
        ring.sort()
        self._ring = ring
        self._hashes = [h for h, _ in ring]

    def preference(self, key: str) -> Tuple[int, ...]:
        """All replica indices in ring-walk (failover) order."""
        point = zlib.crc32(str(key).encode("utf-8"))
        start = bisect.bisect_left(self._hashes, point) % len(
            self._ring
        )
        order: List[int] = []
        seen: Set[int] = set()
        for offset in range(len(self._ring)):
            _, replica = self._ring[(start + offset) % len(self._ring)]
            if replica not in seen:
                seen.add(replica)
                order.append(replica)
                if len(order) == self.replicas:
                    break
        return tuple(order)


@dataclass
class FleetRequest:
    """One fleet-level request; its future survives replica failures.

    Attributes:
        request_id: fleet-level id (``f000001``); attempt ids append
            ``.aK``.
        tenant: routing key (stream/tenant id).
        cloud: the ``(N, 3)`` cloud.
        arrival_s: fleet admission instant.
        deadline_s: absolute deadline shared by every attempt.
        future: resolves exactly once — to a
            :class:`~repro.serving.server.ServedResult` or a typed
            error.
        attempts: dispatch attempts made so far.
        tried: replica indices attempted, in order.
        hedges: hedged dispatches issued (at most one).
        inflight: attempt ids not yet resolved.
        winner: attempt id that resolved the future, if successful.
        ctx: root trace context minted at fleet admission; every
            attempt's spans — on whichever replica they land — join
            ``ctx.trace_id``, and the fleet emits the root span when
            the request reaches its terminal state.
    """

    request_id: str
    tenant: str
    cloud: np.ndarray
    arrival_s: float
    deadline_s: Optional[float] = None
    future: Future = field(default_factory=Future)
    attempts: int = 0
    tried: List[int] = field(default_factory=list)
    hedges: int = 0
    inflight: Set[str] = field(default_factory=set)
    winner: Optional[str] = None
    ctx: Optional[TraceContext] = None


@dataclass
class _Attempt:
    """One dispatch of a fleet request onto one replica."""

    attempt_id: str
    request: FleetRequest
    replica: int
    submitted_s: float
    serving_request: ServingRequest
    hedge: bool = False
    cancelled: bool = False
    ctx: Optional[TraceContext] = None


@dataclass
class Replica:
    """One fleet member: server + health + chaos gate.

    ``lanes`` models the replica's ``workers`` in virtual time: the
    instant each lane frees up from the batch it last ran.
    """

    index: int
    server: InferenceServer
    health: ReplicaHealth
    gate: ChaosGate = field(default_factory=ChaosGate)
    lanes: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class Dispatch:
    """One batch a virtual-time step handed to a replica's gate.

    ``busy_s`` is the batch's simulated device time times the gate's
    slow factor, and ``done_s`` its lane start plus ``busy_s``; a
    failed batch (``record.ok`` false) takes no lane: ``busy_s`` is
    zero and ``done_s`` its dispatch instant.
    """

    record: DispatchRecord
    done_s: float
    busy_s: float = 0.0


#: Errors worth re-dispatching to another replica.  Guard rejections,
#: validation errors, and deadline expiries are terminal.
RETRYABLE_ERRORS = (ReplicaFaultError, AdmissionError)


class ServerFleet:
    """N replicas behind a consistent-hash router (see module doc).

    Args:
        pipelines: one pipeline per replica (each replica needs its
            own model instance).  They must share one tracer and one
            metrics registry, which the fleet reports through too.
            The registry holds the fleet's only tallies, so one that
            records nothing (``NULL_METRICS``) is a ``ValueError``.
        config: fleet-level policy knobs.
        serving_config: per-replica serving knobs.
        clock: the virtual clock shared by every replica, which only
            the fleet's event loop advances; a fresh ``FixedClock(0.0)``
            by default.  Any other clock is a ``TypeError``.
    """

    #: Unlabeled counters created at construction, so a snapshot of a
    #: clean run reads 0 for them instead of leaving them out.
    COUNTERS = (
        "serving_fleet_submitted_total",
        "serving_fleet_completed_total",
        "serving_fleet_failed_total",
        "serving_fleet_expired_total",
        "serving_fleet_retries_total",
        "serving_fleet_hedges_total",
        "serving_fleet_hedge_wins_total",
        "serving_fleet_hedge_cancelled_total",
    )

    def __init__(
        self,
        pipelines: Sequence[EdgePCPipeline],
        config: Optional[FleetConfig] = None,
        serving_config: Optional[ServingConfig] = None,
        clock: Optional[FixedClock] = None,
    ) -> None:
        if clock is None:
            clock = FixedClock(0.0)
        if not isinstance(clock, FixedClock):
            raise TypeError(
                "a ServerFleet runs only in virtual time and needs a "
                f"FixedClock, got {type(clock).__name__}; threaded "
                "serving is one InferenceServer"
            )
        if not pipelines:
            raise ValueError("a fleet needs at least one pipeline")
        first = pipelines[0]
        if any(
            pipeline.tracer is not first.tracer
            or pipeline.metrics is not first.metrics
            for pipeline in pipelines
        ):
            raise ValueError(
                "a fleet's pipelines must share one tracer and one "
                "metrics registry"
            )
        if first.metrics is NULL_METRICS:
            raise ValueError(
                "a ServerFleet keeps its tallies in its pipelines' "
                "metrics registry and needs one that records, got "
                "NULL_METRICS"
            )
        self.config = config or FleetConfig()
        self.serving_config = serving_config or ServingConfig()
        self.clock = clock
        self.tracer = first.tracer
        self.metrics = first.metrics
        self.replicas: List[Replica] = []
        for index, pipeline in enumerate(pipelines):
            server = InferenceServer(
                pipeline, config=self.serving_config, clock=clock
            )
            health = ReplicaHealth(str(index), self.metrics)
            self.replicas.append(
                Replica(
                    index=index,
                    server=server,
                    health=health,
                    lanes=[0.0] * self.serving_config.workers,
                )
            )
        self.router = Router(len(self.replicas))
        for name in self.COUNTERS:
            self.metrics.counter(name)
        self._attempts: Dict[str, _Attempt] = {}
        self._resolved: Deque[str] = deque()
        self._retries: List[Tuple[float, int, FleetRequest]] = []
        self._hedge_timers: List[Tuple[float, int, str]] = []
        self._timer_seq = 0
        self._sequence = 0
        self._attempt_latencies: Deque[float] = deque(maxlen=256)
        self._requests: Dict[str, FleetRequest] = {}

    # Submission ------------------------------------------------------

    def submit(
        self,
        cloud: np.ndarray,
        tenant: str = "default",
        deadline_s: Optional[float] = None,
    ) -> FleetRequest:
        """Admit one cloud under a tenant key; returns the request.

        ``deadline_s`` is relative to now on the fleet clock and
        bounds the *whole* request including retries and hedges.
        Raises a
        typed :class:`~repro.serving.queue.AdmissionError` subclass
        when the fleet sheds the request at the door (no routable
        replica, every candidate queue full/closed).
        """
        with self.tracer.span("serving.fleet.submit", "serving") as span:
            cloud = np.asarray(cloud, dtype=np.float64)
            if cloud.ndim != 2 or cloud.shape[-1] != 3:
                raise ValueError(
                    f"submit() takes one (N, 3) cloud, got shape "
                    f"{cloud.shape}"
                )
            now = self.clock()
            self.metrics.counter("serving_fleet_submitted_total").inc()
            rid = self._next_id()
            span.set("request_id", rid)
            span.set("tenant", str(tenant))
            ctx = self.tracer.mint_context(rid, tenant=str(tenant))
            if ctx is not None:
                span.set("trace_id", ctx.trace_id)
            request = FleetRequest(
                request_id=rid,
                tenant=str(tenant),
                cloud=cloud,
                arrival_s=now,
                deadline_s=(
                    None if deadline_s is None else now + deadline_s
                ),
                ctx=ctx,
            )
            index, refusal = self._dispatch_attempt(
                request, now, hedge=False, exclude=set()
            )
            if index is None:
                if refusal is None:
                    self._reject(now, rid, "no_healthy_replica", ctx=ctx)
                    raise NoHealthyReplicaError(
                        f"request {rid!r} rejected: no routable "
                        "replica in the fleet"
                    )
                self._reject(now, rid, refusal.reason, ctx=ctx)
                raise refusal
            self._requests[rid] = request
            return request

    def _next_id(self) -> str:
        self._sequence += 1
        return f"f{self._sequence:06d}"

    def _reject(
        self,
        now: float,
        rid: str,
        reason: str,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        self.metrics.counter(
            "serving_fleet_rejected_total", reason=reason
        ).inc()
        if ctx is not None:
            # Shed-at-the-door requests still close their trace: a
            # zero-length root span records the rejection.
            emit_request_root(
                self.tracer,
                ctx,
                self.tracer.rel(now),
                0.0,
                {
                    "request_id": rid,
                    "outcome": "rejected",
                    "reason": reason,
                },
            )

    # Routing and dispatch --------------------------------------------

    def _candidates(
        self, tenant: str, now: float, exclude: Set[int]
    ) -> List[int]:
        """Routable replicas in failover order, avoiding ``exclude``
        (already-tried) unless that would leave nowhere to go."""
        order = self.router.preference(tenant)
        routable = [
            index
            for index in order
            if not self.replicas[index].gate.killed
            and self.replicas[index].health.routable(now)
        ]
        fresh = [index for index in routable if index not in exclude]
        return fresh or routable

    def _dispatch_attempt(
        self,
        request: FleetRequest,
        now: float,
        hedge: bool,
        exclude: Set[int],
    ) -> Tuple[Optional[int], Optional[AdmissionError]]:
        """Try each candidate replica once; returns ``(replica,
        last_refusal)`` where ``replica`` is ``None`` if nobody
        accepted."""
        candidates = self._candidates(request.tenant, now, exclude)
        last_refusal: Optional[AdmissionError] = None
        for index in candidates:
            replica = self.replicas[index]
            remaining = (
                None
                if request.deadline_s is None
                else request.deadline_s - now
            )
            attempt_number = request.attempts + 1
            attempt_id = f"{request.request_id}.a{attempt_number}"
            attempt_ctx: Optional[TraceContext] = None
            if request.ctx is not None:
                # Re-anchor the request's trace on a pre-reserved
                # attempt span id; the replica's queue/batch/stage
                # spans parent under it, and the fleet emits the
                # attempt span itself once the outcome is known.
                attempt_ctx = request.ctx.child(
                    self.tracer.next_span_id()
                ).with_baggage(attempt=str(attempt_number))
            try:
                serving_request = replica.server.submit(
                    request.cloud,
                    deadline_s=remaining,
                    request_id=attempt_id,
                    ctx=attempt_ctx,
                )
            except AdmissionError as err:
                last_refusal = err
                continue
            request.attempts = attempt_number
            request.tried.append(index)
            request.inflight.add(attempt_id)
            attempt = _Attempt(
                attempt_id=attempt_id,
                request=request,
                replica=index,
                submitted_s=now,
                serving_request=serving_request,
                hedge=hedge,
                ctx=attempt_ctx,
            )
            self._attempts[attempt_id] = attempt
            if hedge:
                request.hedges += 1
                self.metrics.counter("serving_fleet_hedges_total").inc()
            if not hedge and self.config.hedge is not None:
                delay = self.config.hedge.delay_s(
                    list(self._attempt_latencies)
                )
                self._timer_seq += 1
                heapq.heappush(
                    self._hedge_timers,
                    (now + delay, self._timer_seq, attempt_id),
                )
            serving_request.future.add_done_callback(
                lambda fut, aid=attempt_id: self._attempt_resolved(
                    aid
                )
            )
            return index, None
        return None, last_refusal

    def _attempt_resolved(self, attempt_id: str) -> None:
        self._resolved.append(attempt_id)

    # Outcome processing ----------------------------------------------

    def service(self, now: Optional[float] = None) -> None:
        """Process resolved attempts and due timers at ``now``.

        The fleet's heartbeat, called by the event loop after every
        clock advance.
        """
        if now is None:
            now = self.clock()
        self._process_resolved(now)
        self._fire_hedges(now)
        self._fire_retries(now)
        self._process_resolved(now)
        self._tick_health(now)

    def _process_resolved(self, now: float) -> None:
        while True:
            if not self._resolved:
                return
            attempt_id = self._resolved.popleft()
            attempt = self._attempts.pop(attempt_id, None)
            if attempt is not None:
                self._handle_outcome(attempt, now)

    def _emit_attempt_span(
        self, attempt: _Attempt, now: float, error: Optional[BaseException]
    ) -> None:
        """Emit the attempt span reserved at dispatch time.

        Parented under the request's root span; the replica-side
        queue/batch/stage spans already point at this id via the
        attempt's child context, so the stitched trace has no orphans
        even though the span is written after its children.
        """
        ctx = attempt.ctx
        root = attempt.request.ctx
        if ctx is None or root is None:
            return
        attrs: Dict[str, object] = {
            "replica": attempt.replica,
            "hedge": attempt.hedge,
            "outcome": (
                "ok" if error is None else type(error).__name__
            ),
        }
        if attempt.cancelled:
            attrs["cancelled"] = True
        self.tracer.emit_span(
            "request.attempt",
            start_s=self.tracer.rel(attempt.submitted_s),
            duration_s=max(0.0, now - attempt.submitted_s),
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            parent_id=root.span_id,
            thread="requests",
            attrs=attrs,
        )

    def _close_request_trace(
        self,
        request: FleetRequest,
        now: float,
        outcome: str,
        detail: str = "",
    ) -> None:
        """Emit the span reserved at fleet admission: the trace
        root."""
        if request.ctx is None:
            return
        attrs: Dict[str, object] = {
            "request_id": request.request_id,
            "tenant": request.tenant,
            "outcome": outcome,
            "attempts": request.attempts,
            "hedges": request.hedges,
        }
        if detail:
            attrs["detail"] = detail
        emit_request_root(
            self.tracer,
            request.ctx,
            self.tracer.rel(request.arrival_s),
            now - request.arrival_s,
            attrs,
        )

    def _handle_outcome(self, attempt: _Attempt, now: float) -> None:
        request = attempt.request
        request.inflight.discard(attempt.attempt_id)
        replica = self.replicas[attempt.replica]
        error = attempt.serving_request.future.exception()
        self._emit_attempt_span(attempt, now, error)
        if error is None:
            latency = max(0.0, now - attempt.submitted_s)
            replica.health.record_success(now)
            self._attempt_latencies.append(latency)
            if request.future.done():
                return  # a sibling already won
            request.winner = attempt.attempt_id
            request.future.set_result(
                attempt.serving_request.future.result()
            )
            self.metrics.counter("serving_fleet_completed_total").inc()
            if attempt.hedge:
                self.metrics.counter(
                    "serving_fleet_hedge_wins_total"
                ).inc()
            self._close_request_trace(request, now, "ok")
            self._cancel_siblings(request)
            return
        failure_kind = (
            "deadline"
            if isinstance(error, DeadlineExceededError)
            else type(error).__name__
        )
        replica.health.record_failure(now, failure_kind)
        if request.future.done() or attempt.cancelled:
            return
        if request.inflight:
            return  # a sibling attempt may still win
        if isinstance(error, DeadlineExceededError):
            self._expire_request(request, now, error)
            return
        if not isinstance(error, RETRYABLE_ERRORS):
            self._fail_request(request, now, error)
            return
        self._schedule_retry(request, now, error)

    def _expire_request(
        self, request: FleetRequest, now: float, error: Exception
    ) -> None:
        self.metrics.counter("serving_fleet_expired_total").inc()
        self._close_request_trace(request, now, "expired")
        request.future.set_exception(error)

    def _fail_request(
        self, request: FleetRequest, now: float, error: Exception
    ) -> None:
        self.metrics.counter(
            "serving_fleet_failed_total",
            reason=type(error).__name__,
        ).inc()
        self._close_request_trace(
            request, now, "failed", detail=type(error).__name__
        )
        request.future.set_exception(error)

    def _exhaust_request(
        self, request: FleetRequest, now: float, cause: Exception
    ) -> None:
        self.metrics.counter(
            "serving_fleet_failed_total",
            reason="retry_exhausted",
        ).inc()
        self._close_request_trace(
            request, now, "exhausted", detail=type(cause).__name__
        )
        exhausted = RetryExhaustedError(
            f"request {request.request_id!r} exhausted after "
            f"{request.attempts} attempt(s); last error: "
            f"{type(cause).__name__}: {cause}"
        )
        exhausted.__cause__ = cause
        request.future.set_exception(exhausted)

    def _schedule_retry(
        self, request: FleetRequest, now: float, error: Exception
    ) -> None:
        """Back off and re-dispatch ``request`` later, or exhaust it
        when the policy (attempts or remaining deadline) says no."""
        remaining = (
            None
            if request.deadline_s is None
            else request.deadline_s - now
        )
        backoff = self.config.retry.next_backoff(
            request.attempts, request.request_id, remaining
        )
        if backoff is None:
            self._exhaust_request(request, now, error)
            return
        self.metrics.counter("serving_fleet_retries_total").inc()
        self._timer_seq += 1
        heapq.heappush(
            self._retries,
            (now + backoff, self._timer_seq, request),
        )

    def _cancel_siblings(self, request: FleetRequest) -> None:
        for attempt_id in sorted(request.inflight):
            sibling = self._attempts.get(attempt_id)
            if sibling is None or sibling.cancelled:
                continue
            sibling.cancelled = True
            self.metrics.counter(
                "serving_fleet_hedge_cancelled_total"
            ).inc()

    # Timers ----------------------------------------------------------

    def _fire_retries(self, now: float) -> None:
        while True:
            if not self._retries:
                return
            due, _, request = self._retries[0]
            if due > now:
                return
            heapq.heappop(self._retries)
            if request.future.done():
                continue
            if (
                request.deadline_s is not None
                and now >= request.deadline_s
            ):
                self._expire_request(
                    request,
                    now,
                    DeadlineExceededError(
                        f"request {request.request_id!r} deadline "
                        "passed before its retry could dispatch"
                    ),
                )
                continue
            index, _ = self._dispatch_attempt(
                request, now, hedge=False, exclude=set(request.tried)
            )
            if index is not None:
                continue
            # Nowhere to go right now: a failed placement consumes an
            # attempt, so the loop terminates at max_attempts even
            # while every queue refuses.
            request.attempts += 1
            self._schedule_retry(
                request,
                now,
                NoHealthyReplicaError(
                    f"request {request.request_id!r}: no replica "
                    "accepted the retry"
                ),
            )

    def _fire_hedges(self, now: float) -> None:
        while True:
            if not self._hedge_timers:
                return
            due, _, attempt_id = self._hedge_timers[0]
            if due > now:
                return
            heapq.heappop(self._hedge_timers)
            attempt = self._attempts.get(attempt_id)
            if attempt is None or attempt.cancelled:
                continue
            request = attempt.request
            if request.future.done() or request.hedges >= 1:
                continue
            self._dispatch_attempt(
                request, now, hedge=True, exclude={attempt.replica}
            )

    def _next_due(self, now: float) -> Optional[float]:
        """When the fleet's own work is next due: ``now`` while attempt
        outcomes wait to be processed, else the earliest retry/hedge
        timer, else ``None`` (settled)."""
        if self._resolved:
            return now
        due = []
        if self._retries:
            due.append(self._retries[0][0])
        if self._hedge_timers:
            due.append(self._hedge_timers[0][0])
        return min(due) if due else None

    # Health ----------------------------------------------------------

    def healthy_count(self, now: float) -> int:
        """Replicas the router may send traffic to at ``now``; changes
        no replica's health (an elapsed sit-out counts as routable)."""
        return sum(
            1
            for replica in self.replicas
            if not replica.gate.killed
            and replica.health.routable_at(now)
        )

    def _tick_health(self, now: float) -> None:
        """Advance every replica's sit-out clock (killed ones too) and
        export the routable count, the one writer of
        ``serving_fleet_healthy_replicas``."""
        for replica in self.replicas:
            replica.health.tick(now)
        self.metrics.gauge("serving_fleet_healthy_replicas").set(
            float(self.healthy_count(now))
        )

    # Chaos controls (driven by the chaos harness) -------------------

    def kill_replica(
        self, index: int, now: Optional[float] = None
    ) -> int:
        """Kill a replica: fail its backlog, force-eject its health.

        Returns the number of shed attempts (each fails with a
        retryable :class:`~repro.serving.chaos.ReplicaFaultError`, so
        the fleet re-dispatches them elsewhere).
        """
        if now is None:
            now = self.clock()
        replica = self.replicas[index]
        replica.gate.killed = True
        shed = self.shed_replica_backlog(index, "killed", now=now)
        replica.health.force_eject(now, "killed")
        return shed

    def stall_replica(
        self, index: int, now: Optional[float] = None
    ) -> None:
        """Stall a replica: it stops dispatching but keeps its
        backlog (deadlines still expire)."""
        self.replicas[index].gate.stalled = True

    def slow_replica(
        self,
        index: int,
        factor: float = 4.0,
        now: Optional[float] = None,
    ) -> None:
        """Slow a replica's simulated device by ``factor``."""
        self.replicas[index].gate.slow_factor = float(factor)

    def error_replica(
        self, index: int, now: Optional[float] = None
    ) -> None:
        """Make every dispatched batch on a replica fail retryably."""
        self.replicas[index].gate.erroring = True

    def recover_replica(
        self, index: int, now: Optional[float] = None
    ) -> None:
        """Clear chaos state; health still walks EJECTED ->
        PROBATION -> HEALTHY on its own clock."""
        self.replicas[index].gate.reset()

    def shed_replica_backlog(
        self, index: int, reason: str, now: Optional[float] = None
    ) -> int:
        """Fail every queued/buffered attempt on a replica with a
        retryable :class:`~repro.serving.chaos.ReplicaFaultError`;
        returns the count."""
        return self.replicas[index].server.cancel_backlog(
            "shed",
            reason,
            "replica_fault",
            lambda request: ReplicaFaultError(
                f"attempt {request.request_id!r} shed: "
                f"replica {index} {reason}"
            ),
            now=now,
        )

    # Event loop ------------------------------------------------------

    @property
    def next_event_at(self) -> Optional[float]:
        """Earliest virtual instant the fleet has work, if any.

        Per replica, by chaos gate: a stalled replica wakes only for
        its next deadline expiry, a failing one at its next flush, and
        any other at its next flush clamped to its earliest free lane.
        Then retry/hedge timers, and ``now`` while attempt outcomes
        wait to be processed.
        """
        due: List[float] = []
        for replica in self.replicas:
            queue = replica.server.queue
            if replica.gate.stalled:
                at = queue.next_expiry_at
            else:
                at = queue.next_flush_at
                if at is not None and not replica.gate.failing:
                    at = max(at, min(replica.lanes))
            if at is not None:
                due.append(at)
        own = self._next_due(self.clock())
        if own is not None:
            due.append(own)
        return min(due) if due else None

    def step(
        self,
        now: float,
        on_dispatch: Optional[Callable[[Dispatch], None]] = None,
    ) -> None:
        """Act at virtual instant ``now``: process outcomes and due
        timers, then dispatch, fail, or expire every due batch per its
        replica's chaos gate.  ``on_dispatch`` sees each
        :class:`Dispatch` right after its outcome was processed (so a
        winning attempt is already marked on its request)."""
        self.service(now)
        self._dispatch_due(now, on_dispatch)

    def _dispatch_due(
        self,
        now: float,
        on_dispatch: Optional[Callable[[Dispatch], None]],
    ) -> None:
        """Sweep the replicas until no gate has a due batch left."""
        progress = True
        while progress:
            progress = False
            for replica in self.replicas:
                while True:
                    dispatch = self._dispatch_one(replica, now)
                    if dispatch is None:
                        break
                    self.service(now)
                    if on_dispatch is not None:
                        on_dispatch(dispatch)
                    progress = True
        self.service(now)

    def _dispatch_one(
        self, replica: Replica, now: float
    ) -> Optional[Dispatch]:
        """Hand one due batch of ``replica`` to its chaos gate.

        Stalled: expire due deadlines, dispatch nothing.  Failing
        (killed/erroring): fail the batch with a retryable
        :class:`~repro.serving.chaos.ReplicaFaultError`; it occupies
        no lane.  Otherwise: run it on the earliest free lane, if one
        is free at ``now``.
        """
        gate = replica.gate
        server = replica.server
        if gate.stalled:
            server.queue.expire_due()
            return None
        if gate.failing:
            batch = server.queue.poll()
            if batch is None:
                return None
            server._fail_batch(
                batch,
                ReplicaFaultError(
                    f"replica {replica.index} is {gate.describe()}"
                ),
                "replica_fault",
            )
            server.record_failed(batch.size, "replica_fault")
            record = DispatchRecord.of(
                batch, ok=False, error="ReplicaFaultError: chaos"
            )
            return Dispatch(record, record.dispatched_s)
        lanes = replica.lanes
        if min(lanes) > now:
            return None
        records = server.pump(limit=1)
        if not records:
            return None
        record = records[0]
        if not record.ok:
            return Dispatch(record, record.dispatched_s)
        busy = record.simulated_s * gate.slow_factor
        lane = lanes.index(min(lanes))
        done = max(record.dispatched_s, lanes[lane]) + busy
        lanes[lane] = done
        return Dispatch(record, done, busy)

    def _advance_to(self, t: float) -> float:
        """Move the virtual clock forward to ``t``; returns now."""
        delta = t - self.clock()
        if delta > 0:
            self.clock.advance(delta)
        return self.clock()

    def run(
        self,
        sources: Sequence = (),
        on_dispatch: Optional[Callable[[Dispatch], None]] = None,
        on_tick: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Step virtual time from event to event until none remain.

        ``sources`` are external event sources with a
        ``next_event_at`` and a ``fire(now)`` (load arrivals, a
        :class:`~repro.serving.chaos.ChaosHarness`).  At each instant
        the due sources fire in order, then the fleet takes its
        :meth:`step`, then ``on_tick(now)`` runs.  Returns rather than
        spinning when nothing is scheduled, even if a request can
        never settle (its only replica stalled, no deadline).
        """
        while True:
            fleet_at = self.next_event_at
            due = [(source, source.next_event_at) for source in sources]
            times = [fleet_at] + [at for _, at in due]
            if all(at is None for at in times):
                return
            t = min(at for at in times if at is not None)
            now = self._advance_to(t)
            for source, at in due:
                if at is not None and at <= t:
                    source.fire(now)
            self.step(now, on_dispatch)
            if on_tick is not None:
                on_tick(now)

    def drain(
        self,
        on_dispatch: Optional[Callable[[Dispatch], None]] = None,
        on_tick: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Close admission and step until every request settles.

        Live replicas flush through the drain trigger; backlogs on
        stalled/killed replicas are shed with retryable faults (their
        retries then resolve against closed queues as typed
        :class:`~repro.serving.retry.RetryExhaustedError`); remaining
        timers are honored by advancing the virtual clock to them.
        Returns once nothing is scheduled, so a stuck request shows up
        as unsettled instead of hanging the caller.
        """
        self.close()
        while not self._settled():
            now = self.clock()
            for replica in self.replicas:
                unreachable = replica.gate.stalled or replica.gate.killed
                if unreachable and replica.server.queue.depth:
                    self.shed_replica_backlog(
                        replica.index, "unreachable at drain", now=now
                    )
            self._dispatch_due(now, on_dispatch)
            t = self.next_event_at
            if t is not None and t > now:
                now = self._advance_to(t)
            self.service(now)
            if on_tick is not None:
                on_tick(now)
            if t is None:
                return

    def _settled(self) -> bool:
        """Whether every admitted request reached a terminal state."""
        return all(
            request.future.done() for request in self._requests.values()
        )

    def close(self) -> None:
        """Close every replica's admission queue (drain begins)."""
        for replica in self.replicas:
            replica.server.queue.close()

    # Introspection ---------------------------------------------------

    def replica_states(self, now: Optional[float] = None) -> Dict[
        str, str
    ]:
        """Health state per replica index at ``now``; read-only, like
        :meth:`healthy_count` (an elapsed sit-out reads ``probation``
        before the fleet's heartbeat makes the transition)."""
        if now is None:
            now = self.clock()
        return {
            str(replica.index): replica.health.state_at(now)
            for replica in self.replicas
        }
