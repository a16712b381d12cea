"""Deterministic synthetic load generation against the serving stack.

A :class:`FleetLoadGenerator` drives a
:class:`~repro.serving.fleet.ServerFleet` — one replica stands in for
a single server — in **virtual time**: it generates seeded clouds,
tenants, and seeded Poisson arrivals and feeds them,
with an optional chaos schedule, into the fleet's event loop
(:meth:`~repro.serving.fleet.ServerFleet.run`, then
:meth:`~repro.serving.fleet.ServerFleet.drain`).  The fleet advances
the shared :class:`~repro.observability.clock.FixedClock` from event
to event; this module only keeps the books.  Because nothing depends
on host scheduling, two runs at the same seed produce bit-identical
reports: same admission decisions, same batch-size histogram, same
latency percentiles.

Service is modeled on the paper's simulated edge device: a dispatched
batch occupies one of each replica's ``workers`` virtual lanes for
the batch's simulated device seconds
(:attr:`~repro.runtime.profiler.StageBreakdown.total_s`), so reported
latencies are queue wait + batching delay + simulated device time —
the end-to-end budget EdgePC Sec. 7 is about, not host wall time.

Two load shapes:

- **open loop** — Poisson arrivals at ``rate``, regardless
  of completions (models independent users; overload shows up as
  admission rejections);
- **closed loop** — ``concurrency`` clients, each submitting its next
  request the instant the previous one completes (models a pipeline
  of sensors; throughput self-limits instead of shedding).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.serving.fleet import Dispatch, FleetRequest, ServerFleet
from repro.serving.queue import AdmissionError

MODES = ("open", "closed")
#: Distinct tenant keys (the fleet's routing keys), drawn uniformly
#: per request.
TENANTS = 4


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of one synthetic load run.

    Attributes:
        duration_s: virtual seconds of arrivals to generate.
        rate: offered requests/second (open loop, seeded
            exponential gaps).
        mode: ``"open"`` or ``"closed"`` loop.
        concurrency: in-flight clients in closed-loop mode.
        points: candidate cloud sizes; each request draws one
            uniformly (mixed sizes exercise the queue's N-buckets).
        deadline_ms: per-request deadline; ``None`` disables.
        seed: seeds both the arrival process and the cloud contents.
    """

    duration_s: float = 5.0
    rate: float = 50.0
    mode: str = "open"
    concurrency: int = 8
    points: Tuple[int, ...] = (64,)
    deadline_ms: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.concurrency < 1:
            raise ValueError("concurrency must be positive")
        if not self.points or any(n < 8 for n in self.points):
            raise ValueError("points must be sizes >= 8")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")


@dataclass
class LoadReport:
    """Deterministic outcome of one load run (see ``to_dict``)."""

    mode: str
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
        return asdict(self)

    def summary(self) -> str:
        lines = [
            f"loadgen: {self.mode} loop, poisson arrivals, "
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

    Feeds arrivals and scheduled chaos events into the fleet's event
    loop, which steps the shared
    :class:`~repro.observability.clock.FixedClock` across them and
    across micro-batch flushes (clamped by each replica's modeled
    lanes), retry/hedge timers, and deadline expiries — then drains
    the tail so every submitted request reaches a terminal future
    state.  The report's request tallies are read from the fleet's
    ``serving_fleet_*`` counters after the run, so each run needs a
    registry of its own; the batch, latency and lateness books are
    kept here from the dispatches the loop hands back.  Two runs at
    the same seed (and the same chaos schedule) produce byte-identical
    reports, metrics and traces.  A 1-replica fleet is how a single
    server is load-tested.

    Args:
        fleet: the fleet under test; the run steps its virtual
            clock.
        config: load shape.
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
        chaos=None,
        slo=None,
    ) -> None:
        self.fleet = fleet
        self.config = config or LoadGenConfig()
        self.slo = slo
        self.clock = fleet.clock
        self.chaos = chaos
        self.tracer = fleet.tracer
        self.metrics = fleet.metrics

    # Schedules -------------------------------------------------------

    def _open_arrivals(self, rng: np.random.Generator) -> List[float]:
        cfg = self.config
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
        deadline_s = (
            None if cfg.deadline_ms is None else cfg.deadline_ms / 1e3
        )
        latencies: List[float] = []
        tracked: List[FleetRequest] = []
        tracked_by_id: Dict[str, FleetRequest] = {}
        recorded: set = set()

        def settle(dispatch: Dispatch) -> None:
            """Book one dispatched batch; a winning attempt's latency
            ends at the batch's modeled completion."""
            record = dispatch.record
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
            done = dispatch.done_s
            report.simulated_busy_s += dispatch.busy_s
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

        def submit_arrival(now: float) -> None:
            arrivals.pop()
            cloud = self._cloud(rng)
            tenant = f"tenant-{int(rng.integers(TENANTS))}"
            try:
                request = fleet.submit(
                    cloud, tenant=tenant, deadline_s=deadline_s
                )
            except AdmissionError:
                pass  # counted in serving_fleet_rejected_total{reason}
            else:
                tracked.append(request)
                tracked_by_id[request.request_id] = request

        # Chaos fires before the instant's arrival (see ChaosHarness).
        sources = [] if self.chaos is None else [self.chaos]
        sources.append(_Arrivals(arrivals, submit_arrival))
        tick = None if self.slo is None else self.slo.tick
        fleet.run(sources, on_dispatch=settle, on_tick=tick)
        fleet.drain(on_dispatch=settle, on_tick=tick)

        now = self.clock()
        if self.slo is not None:
            self.slo.tick(now)
        self._fill_tallies(report)
        report.lost = sum(
            1 for request in tracked if not request.future.done()
        )
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

    def _fill_tallies(self, report: LoadReport) -> None:
        """Copy the fleet's request tallies from its registry.

        ``rejection_reasons`` counts every request that did not
        complete for a typed reason: door rejections by their
        admission reason, expiries as ``deadline`` and exhausted
        retries as ``retry_exhausted``.
        """
        sum_by = self.metrics.sum_by
        for tally in (
            "submitted", "rejected", "expired", "completed", "failed",
            "retries", "hedges", "hedge_wins", "hedge_cancelled",
        ):
            counts = sum_by(f"serving_fleet_{tally}_total")
            setattr(report, tally, int(sum(counts.values())))
        report.admitted = report.submitted - report.rejected
        reasons = {
            reason: int(count)
            for reason, count in sum_by(
                "serving_fleet_rejected_total", "reason"
            ).items()
        }
        exhausted = sum_by("serving_fleet_failed_total", "reason").get(
            "retry_exhausted", 0.0
        )
        for reason, count in (
            ("deadline", report.expired),
            ("retry_exhausted", int(exhausted)),
        ):
            if count:
                reasons[reason] = reasons.get(reason, 0) + count
        report.rejection_reasons = reasons


class _Arrivals:
    """Pending arrival instants as a fleet event source: the earliest
    sits at the tail, and each firing submits exactly one request."""

    def __init__(
        self, times: List[float], submit: Callable[[float], None]
    ) -> None:
        self.times = times
        self.submit = submit

    @property
    def next_event_at(self) -> Optional[float]:
        return self.times[-1] if self.times else None

    def fire(self, now: float) -> None:
        self.submit(now)
