"""Deterministic synthetic load generation against the serving stack.

A :class:`FleetLoadGenerator` drives a
:class:`~repro.serving.fleet.ServerFleet` — one replica stands in for
a single server — in **virtual time**: it shares the fleet's
:class:`~repro.observability.clock.FixedClock`, generates seeded
clouds and seeded Poisson (or fixed-rate) arrivals, and advances the
clock from event to event — each arrival, micro-batch flush, retry
timer, and deadline expiry happens at an exact virtual instant, and
batches are dispatched inline through
:meth:`~repro.serving.fleet.ServerFleet.pump_replica`.  Because
nothing depends on host scheduling, two runs at the same seed produce
bit-identical reports: same admission decisions, same batch-size
histogram, same latency percentiles.

Service is modeled on the paper's simulated edge device: a dispatched
batch occupies one of each replica's ``workers`` virtual servers for
the batch's simulated device seconds
(:attr:`~repro.runtime.profiler.StageBreakdown.total_s`), so reported
latencies are queue wait + batching delay + simulated device time —
the end-to-end budget EdgePC Sec. 7 is about, not host wall time.

Two load shapes:

- **open loop** — arrivals at a fixed or Poisson ``rate``, regardless
  of completions (models independent users; overload shows up as
  admission rejections);
- **closed loop** — ``concurrency`` clients, each submitting its next
  request the instant the previous one completes (models a pipeline
  of sensors; throughput self-limits instead of shedding).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.observability.clock import FixedClock
from repro.serving.fleet import FleetRequest, ServerFleet
from repro.serving.queue import AdmissionError

ARRIVALS = ("poisson", "fixed")
MODES = ("open", "closed")


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of one synthetic load run.

    Attributes:
        duration_s: virtual seconds of arrivals to generate.
        rate: offered requests/second (open loop).
        arrival: ``"poisson"`` (seeded exponential gaps) or
            ``"fixed"`` (metronome).
        mode: ``"open"`` or ``"closed"`` loop.
        concurrency: in-flight clients in closed-loop mode.
        points: candidate cloud sizes; each request draws one
            uniformly (mixed sizes exercise the batcher's N-buckets).
        deadline_ms: per-request deadline; ``None`` disables.
        seed: seeds both the arrival process and the cloud contents.
        tenants: distinct tenant keys drawn uniformly per request
            (tenants are the fleet's routing keys).
        low_priority_tenants: how many of the tenant indices carry
            priority 0 and are shed first under brownout.
    """

    duration_s: float = 5.0
    rate: float = 50.0
    arrival: str = "poisson"
    mode: str = "open"
    concurrency: int = 8
    points: Tuple[int, ...] = (64,)
    deadline_ms: Optional[float] = None
    seed: int = 0
    tenants: int = 4
    low_priority_tenants: int = 1

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.arrival not in ARRIVALS:
            raise ValueError(f"arrival must be one of {ARRIVALS}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.concurrency < 1:
            raise ValueError("concurrency must be positive")
        if not self.points or any(n < 8 for n in self.points):
            raise ValueError("points must be sizes >= 8")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.tenants < 1:
            raise ValueError("tenants must be positive")
        if not 0 <= self.low_priority_tenants <= self.tenants:
            raise ValueError(
                "low_priority_tenants must be within [0, tenants]"
            )


@dataclass
class LoadReport:
    """Deterministic outcome of one load run (see ``to_dict``)."""

    mode: str
    arrival: str
    duration_s: float
    offered_rps: float
    seed: int
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    expired: int = 0
    completed: int = 0
    failed: int = 0
    lost: int = 0
    late: int = 0
    batches: int = 0
    mean_batch_size: float = 0.0
    batch_size_hist: Dict[str, int] = field(default_factory=dict)
    trigger_counts: Dict[str, int] = field(default_factory=dict)
    latency_ms: Dict[str, float] = field(default_factory=dict)
    goodput_rps: float = 0.0
    simulated_busy_s: float = 0.0
    rejection_reasons: Dict[str, int] = field(default_factory=dict)
    replicas: int = 1
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    hedge_cancelled: int = 0
    chaos_events: int = 0
    replica_states: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "arrival": self.arrival,
            "duration_s": self.duration_s,
            "offered_rps": self.offered_rps,
            "seed": self.seed,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "expired": self.expired,
            "completed": self.completed,
            "failed": self.failed,
            "lost": self.lost,
            "late": self.late,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_hist": dict(
                sorted(self.batch_size_hist.items())
            ),
            "trigger_counts": dict(
                sorted(self.trigger_counts.items())
            ),
            "latency_ms": dict(sorted(self.latency_ms.items())),
            "goodput_rps": self.goodput_rps,
            "simulated_busy_s": self.simulated_busy_s,
            "rejection_reasons": dict(
                sorted(self.rejection_reasons.items())
            ),
            "replicas": self.replicas,
            "retries": self.retries,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "hedge_cancelled": self.hedge_cancelled,
            "chaos_events": self.chaos_events,
            "replica_states": dict(
                sorted(self.replica_states.items())
            ),
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def summary(self) -> str:
        lines = [
            f"loadgen: {self.mode} loop, {self.arrival} arrivals, "
            f"{self.offered_rps:.0f} req/s offered for "
            f"{self.duration_s:.1f}s (seed {self.seed})",
            f"  submitted {self.submitted}  admitted {self.admitted}"
            f"  rejected {self.rejected}  expired {self.expired}",
            f"  completed {self.completed}  failed {self.failed}"
            f"  lost {self.lost}  late {self.late}",
            f"  batches {self.batches}  mean batch size "
            f"{self.mean_batch_size:.2f}  "
            f"goodput {self.goodput_rps:.1f} req/s",
        ]
        if self.rejection_reasons:
            reasons = "  ".join(
                f"{reason}={count}"
                for reason, count in sorted(
                    self.rejection_reasons.items()
                )
            )
            lines.append(f"  rejections by reason: {reasons}")
        lines.append(
            f"  fleet: {self.replicas} replicas  "
            f"retries {self.retries}  hedges {self.hedges} "
            f"(wins {self.hedge_wins}, cancelled "
            f"{self.hedge_cancelled})  chaos events "
            f"{self.chaos_events}"
        )
        states = "  ".join(
            f"{index}:{state}"
            for index, state in sorted(self.replica_states.items())
        )
        if states:
            lines.append(f"  replica states: {states}")
        if self.latency_ms:
            lines.append(
                "  latency p50 {p50:.2f} ms  p95 {p95:.2f} ms  "
                "p99 {p99:.2f} ms  max {max:.2f} ms".format(
                    **self.latency_ms
                )
            )
        hist = " ".join(
            f"{size}x{count}"
            for size, count in sorted(
                self.batch_size_hist.items(), key=lambda kv: int(kv[0])
            )
        )
        lines.append(f"  batch-size histogram: {hist or '(empty)'}")
        return "\n".join(lines)


class FleetLoadGenerator:
    """Virtual-time load driver for a :class:`ServerFleet`.

    One event loop advances the shared :class:`FixedClock` across
    arrivals, per-replica micro-batch flushes (clamped by each
    replica's modeled workers), fleet retry/hedge timers, deadline
    expiries on stalled replicas, and scheduled chaos events — then
    drains the tail so every submitted request reaches a terminal
    future state.  Two runs at the same seed (and the same chaos
    schedule) produce byte-identical reports and fleet retry traces.
    A 1-replica fleet is how a single server is load-tested.

    Args:
        fleet: the fleet under test; its ``clock`` must be the
            :class:`FixedClock` passed here.
        config: load shape; ``tenants`` draws routing keys.
        clock: the shared virtual clock (defaults to the fleet's).
        chaos: optional :class:`~repro.serving.chaos.ChaosHarness`
            replayed as virtual time passes.
        slo: optional :class:`~repro.observability.slo.SloEngine`
            ticked on every event-loop step (and through the drain
            tail), so burn-rate windows see the same virtual instants
            the fleet acted on — deterministic per seed.
    """

    def __init__(
        self,
        fleet: ServerFleet,
        config: Optional[LoadGenConfig] = None,
        clock: Optional[FixedClock] = None,
        chaos=None,
        slo=None,
    ) -> None:
        self.fleet = fleet
        self.config = config or LoadGenConfig()
        self.slo = slo
        if clock is None:
            clock = fleet.clock
        if not isinstance(clock, FixedClock):
            raise TypeError(
                "FleetLoadGenerator needs a FixedClock shared with "
                "the fleet; threaded wall-clock serving is exercised "
                "via ServerFleet.start() instead"
            )
        self.clock = clock
        self.chaos = chaos
        self.tracer = fleet.tracer
        self.metrics = fleet.metrics

    # Schedules -------------------------------------------------------

    def _open_arrivals(self, rng: np.random.Generator) -> List[float]:
        cfg = self.config
        if cfg.arrival == "fixed":
            count = int(math.floor(cfg.duration_s * cfg.rate))
            return [i / cfg.rate for i in range(count)]
        times: List[float] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / cfg.rate))
            if t >= cfg.duration_s:
                return times
            times.append(t)

    def _cloud(self, rng: np.random.Generator) -> np.ndarray:
        n = int(rng.choice(np.asarray(self.config.points)))
        return rng.random((n, 3))

    # Run -------------------------------------------------------------

    def run(self) -> LoadReport:
        """Drive the configured load to completion; returns the
        report.  Every future resolves — with a result or a typed
        error — before this returns (the zero-lost invariant the
        chaos tests assert)."""
        with self.tracer.span("loadgen.fleet_run", "serving") as span:
            cfg = self.config
            span.set("mode", cfg.mode)
            span.set("rate", cfg.rate)
            span.set("replicas", len(self.fleet.replicas))
            report = self._run_events()
            span.set("submitted", report.submitted)
            span.set("lost", report.lost)
            if self.metrics is not None:
                self.metrics.gauge("serving_mean_batch_size").set(
                    report.mean_batch_size
                )
            return report

    def _run_events(self) -> LoadReport:
        cfg = self.config
        fleet = self.fleet
        rng = np.random.default_rng(cfg.seed)
        report = LoadReport(
            mode=cfg.mode,
            arrival=cfg.arrival,
            duration_s=cfg.duration_s,
            offered_rps=cfg.rate,
            seed=cfg.seed,
            replicas=len(fleet.replicas),
        )
        if cfg.mode == "open":
            arrivals = self._open_arrivals(rng)
        else:
            arrivals = [0.0] * cfg.concurrency
        arrivals.reverse()  # pop() from the tail = earliest first

        workers = fleet.serving_config.workers
        busy: Dict[int, List[float]] = {
            replica.index: [0.0] * workers
            for replica in fleet.replicas
        }
        deadline_s = (
            None if cfg.deadline_ms is None else cfg.deadline_ms / 1e3
        )
        latencies: List[float] = []
        tracked: List[FleetRequest] = []
        tracked_by_id: Dict[str, FleetRequest] = {}
        recorded: set = set()

        def advance_to(t: float) -> None:
            delta = t - self.clock()
            if delta > 0:
                self.clock.advance(delta)

        def settle(index: int, record) -> None:
            """Model one dispatched batch occupying a replica lane."""
            report.batches += 1
            key = str(record.size)
            report.batch_size_hist[key] = (
                report.batch_size_hist.get(key, 0) + 1
            )
            report.trigger_counts[record.trigger] = (
                report.trigger_counts.get(record.trigger, 0) + 1
            )
            if not record.ok:
                return
            gate = fleet.replicas[index].gate
            simulated = record.simulated_s * gate.slow_factor
            lanes = busy[index]
            worker = lanes.index(min(lanes))
            start = max(record.dispatched_s, lanes[worker])
            done = start + simulated
            lanes[worker] = done
            report.simulated_busy_s += simulated
            for attempt_id in record.request_ids:
                rid = attempt_id.rsplit(".a", 1)[0]
                request = tracked_by_id.get(rid)
                if request is None:
                    continue
                if request.winner != attempt_id or rid in recorded:
                    continue
                recorded.add(rid)
                latencies.append(done - request.arrival_s)
                if (
                    deadline_s is not None
                    and done - request.arrival_s > deadline_s
                ):
                    report.late += 1
                if cfg.mode == "closed" and done < cfg.duration_s:
                    arrivals.insert(0, done)

        def dispatch_free(t: float) -> None:
            """Hand due batches to replica lanes free at ``t``."""
            progress = True
            while progress:
                progress = False
                for replica in fleet.replicas:
                    index = replica.index
                    if replica.gate.stalled:
                        fleet.pump_replica(index, limit=1)
                        continue
                    if replica.gate.failing:
                        # Failed dispatches occupy no lane.
                        while True:
                            records = fleet.pump_replica(
                                index, limit=1
                            )
                            if not records:
                                break
                            fleet.service(t)
                            settle(index, records[0])
                            progress = True
                        continue
                    while any(until <= t for until in busy[index]):
                        records = fleet.pump_replica(index, limit=1)
                        if not records:
                            break
                        fleet.service(t)
                        settle(index, records[0])
                        progress = True
            fleet.service(t)

        def submit_arrival(now: float) -> None:
            report.submitted += 1
            cloud = self._cloud(rng)
            tenant_index = int(rng.integers(cfg.tenants))
            tenant = f"tenant-{tenant_index}"
            priority = (
                0 if tenant_index < cfg.low_priority_tenants else 1
            )
            try:
                request = fleet.submit(
                    cloud,
                    tenant=tenant,
                    priority=priority,
                    deadline_s=deadline_s,
                )
            except AdmissionError:
                pass  # counted by the fleet's typed reason counters
            else:
                tracked.append(request)
                tracked_by_id[request.request_id] = request

        while True:
            t_arrival = arrivals[-1] if arrivals else None
            flush_candidates: List[float] = []
            for replica in fleet.replicas:
                batcher = replica.server.batcher
                if replica.gate.stalled:
                    expiry = batcher.next_expiry_at
                    if expiry is not None:
                        flush_candidates.append(expiry)
                    continue
                flush_at = batcher.next_flush_at
                if flush_at is None:
                    continue
                if replica.gate.failing:
                    flush_candidates.append(flush_at)
                else:
                    flush_candidates.append(
                        max(flush_at, min(busy[replica.index]))
                    )
            t_flush = (
                min(flush_candidates) if flush_candidates else None
            )
            t_timer = fleet.next_timer_at
            t_chaos = (
                self.chaos.next_event_at
                if self.chaos is not None
                else None
            )
            events = [
                t
                for t in (t_arrival, t_flush, t_timer, t_chaos)
                if t is not None
            ]
            if not events:
                break
            t = min(events)
            advance_to(t)
            now = self.clock()
            if self.chaos is not None and (
                t_chaos is not None and t_chaos <= now
            ):
                if self.chaos.apply_due(now):
                    fleet.service(now)
            if t_arrival is not None and t_arrival <= t:
                arrivals.pop()
                submit_arrival(now)
            fleet.service(now)
            dispatch_free(now)
            if self.slo is not None:
                self.slo.tick(now)

        self._drain_tail(tracked, dispatch_free, advance_to)

        now = self.clock()
        if self.slo is not None:
            self.slo.tick(now)
        report.admitted = fleet.accepted
        report.rejected = fleet.submit_rejected
        report.expired = fleet.expired
        report.completed = fleet.completed
        report.failed = fleet.failed
        report.lost = sum(
            1 for request in tracked if not request.future.done()
        )
        report.retries = fleet.retries
        report.hedges = fleet.hedges
        report.hedge_wins = fleet.hedge_wins
        report.hedge_cancelled = fleet.hedge_cancelled
        report.rejection_reasons = dict(fleet.rejection_reasons)
        report.replica_states = fleet.replica_states(now)
        report.chaos_events = (
            len(self.chaos.applied) if self.chaos is not None else 0
        )
        if report.batches:
            total = sum(
                int(size) * count
                for size, count in report.batch_size_hist.items()
            )
            report.mean_batch_size = total / report.batches
        if latencies:
            ordered = np.sort(np.asarray(latencies))
            report.latency_ms = {
                "p50": float(np.percentile(ordered, 50)) * 1e3,
                "p95": float(np.percentile(ordered, 95)) * 1e3,
                "p99": float(np.percentile(ordered, 99)) * 1e3,
                "mean": float(ordered.mean()) * 1e3,
                "max": float(ordered.max()) * 1e3,
            }
        on_time = report.completed - report.late
        report.goodput_rps = max(0.0, on_time) / cfg.duration_s
        return report

    def _drain_tail(self, tracked, dispatch_free, advance_to) -> None:
        """Close admission and force every future to a terminal state.

        Live replicas flush through the drain trigger; backlogs on
        stalled/killed replicas are shed with retryable faults (their
        retries then resolve against closed queues as typed
        :class:`~repro.serving.retry.RetryExhaustedError`); remaining
        retry timers are honored by advancing the virtual clock to
        them.  A generous iteration guard turns any stuck state into
        visible lost requests instead of a hang.
        """
        fleet = self.fleet
        fleet.close()
        for _ in range(10_000):
            if all(request.future.done() for request in tracked):
                return
            now = self.clock()
            for replica in fleet.replicas:
                unreachable = (
                    replica.gate.stalled or replica.gate.killed
                )
                backlog = (
                    replica.server.queue.depth
                    + replica.server.batcher.buffered
                )
                if unreachable and backlog:
                    fleet.shed_replica_backlog(
                        replica.index, "unreachable at drain", now=now
                    )
            dispatch_free(now)
            next_timer = fleet.next_timer_at
            if next_timer is not None and next_timer > now:
                advance_to(next_timer)
            fleet.service(self.clock())
            if self.slo is not None:
                self.slo.tick(self.clock())
