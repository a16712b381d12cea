"""Deterministic chaos harness for the serving fleet.

The robustness tests corrupt *inputs* with seeded faults; this module
applies the same philosophy one layer up and breaks *replicas* on a
virtual-time schedule.  A :class:`ChaosSchedule` is a sorted list of
:class:`ChaosEvent` — ``kill``, ``stall``, ``slow``, ``error``, or
``recover`` a replica at an exact instant on the shared
:class:`~repro.observability.clock.FixedClock` — and a
:class:`ChaosHarness` replays it against a
:class:`~repro.serving.fleet.ServerFleet` as an event source of the
fleet's virtual-time loop.  Because both the faults and the load are
functions of (seed, schedule), the whole chaos matrix is reproducible
enough to run in tier-1 CI.

Actions:

- ``kill`` — the replica drops every in-flight and buffered attempt
  with a :class:`ReplicaFaultError` and its health is force-ejected;
  new attempts route around it until ``recover``.
- ``stall`` — the replica stops dispatching but keeps its backlog;
  deadlines still expire (the queue cancels them), which is how a
  hung worker looks from outside.
- ``slow`` — dispatches take ``factor`` times their simulated device
  seconds, modeling FlashFPS-style fallback cost asymmetry.
- ``error`` — every dispatched batch fails with a
  :class:`ReplicaFaultError` (retryable, unlike a pipeline bug).
- ``recover`` — clears kill/stall/slow/error state; health still
  walks EJECTED -> PROBATION -> HEALTHY on its own clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


#: Supported chaos actions, in documentation order.
CHAOS_ACTIONS: Tuple[str, ...] = (
    "kill", "stall", "slow", "error", "recover",
)


class ReplicaFaultError(RuntimeError):
    """An attempt failed because its replica is dead or erroring.

    Retryable: the fleet's :class:`~repro.serving.retry.RetryPolicy`
    may re-dispatch the request to another replica.
    """

    reason = "replica_fault"


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault against one replica.

    Attributes:
        at_s: virtual-clock instant the event fires.
        replica: target replica index.
        action: one of :data:`CHAOS_ACTIONS`.
        factor: slowdown multiplier (``slow`` only).
    """

    at_s: float
    replica: int
    action: str
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        if self.replica < 0:
            raise ValueError("replica must be non-negative")
        if self.action not in CHAOS_ACTIONS:
            raise ValueError(
                f"action must be one of {CHAOS_ACTIONS}, "
                f"got {self.action!r}"
            )
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1")

    def describe(self) -> str:
        text = f"{self.at_s:.3f}s {self.action} replica {self.replica}"
        if self.action == "slow":
            text += f" x{self.factor:g}"
        return text


def parse_chaos_event(spec: str) -> ChaosEvent:
    """Parse ``action:replica:at_s[:factor]`` (the CLI format)."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            "chaos event spec must be action:replica:at_s[:factor], "
            f"got {spec!r}"
        )
    action, replica_text, at_text = parts[0], parts[1], parts[2]
    factor = float(parts[3]) if len(parts) == 4 else 4.0
    return ChaosEvent(
        at_s=float(at_text),
        replica=int(replica_text),
        action=action,
        factor=factor,
    )


@dataclass(frozen=True)
class ChaosSchedule:
    """An ordered, immutable fault schedule."""

    events: Tuple[ChaosEvent, ...] = ()

    @classmethod
    def from_specs(cls, specs: Sequence[str]) -> "ChaosSchedule":
        """Build a schedule from CLI ``action:replica:at_s`` specs."""
        return cls(
            events=tuple(parse_chaos_event(spec) for spec in specs)
        )

    def ordered(self) -> Tuple[ChaosEvent, ...]:
        """Events sorted by (time, replica, action)."""
        return tuple(
            sorted(
                self.events,
                key=lambda e: (e.at_s, e.replica, e.action),
            )
        )

    def __len__(self) -> int:
        return len(self.events)


class ChaosGate:
    """Mutable per-replica chaos state consulted by the fleet."""

    def __init__(self) -> None:
        self.reset()

    @property
    def failing(self) -> bool:
        """Attempts on this replica fail outright."""
        return self.killed or self.erroring

    def reset(self) -> None:
        self.killed = False
        self.stalled = False
        self.erroring = False
        self.slow_factor = 1.0

    def describe(self) -> str:
        flags = []
        if self.killed:
            flags.append("killed")
        if self.stalled:
            flags.append("stalled")
        if self.erroring:
            flags.append("erroring")
        if self.slow_factor != 1.0:
            flags.append(f"slow x{self.slow_factor:g}")
        return ", ".join(flags) or "nominal"


class ChaosHarness:
    """Replays a :class:`ChaosSchedule` against a fleet.

    Args:
        fleet: the target :class:`~repro.serving.fleet.ServerFleet`
            (not imported here, to avoid an import cycle).
        schedule: the fault schedule; replayed once, in time order.
            Every event must target one of the fleet's replicas
            (``ValueError`` otherwise, before anything runs).

    Applied events count into ``serving_chaos_events_total`` on the
    fleet's metrics registry.
    """

    def __init__(self, fleet, schedule: ChaosSchedule) -> None:
        self.fleet = fleet
        self.schedule = schedule
        self._pending: List[ChaosEvent] = list(schedule.ordered())
        for event in self._pending:
            if event.replica >= len(fleet.replicas):
                raise ValueError(
                    f"chaos event '{event.describe()}' targets replica "
                    f"{event.replica}, but the fleet has "
                    f"{len(fleet.replicas)} replica(s)"
                )
        self._cursor = 0
        self.applied: List[ChaosEvent] = []

    @property
    def next_event_at(self) -> Optional[float]:
        """Virtual instant of the next unapplied event, if any."""
        if self._cursor >= len(self._pending):
            return None
        return self._pending[self._cursor].at_s

    def apply_due(self, now: float) -> List[ChaosEvent]:
        """Apply every event with ``at_s <= now``; returns them."""
        fired: List[ChaosEvent] = []
        while (
            self._cursor < len(self._pending)
            and self._pending[self._cursor].at_s <= now
        ):
            event = self._pending[self._cursor]
            self._cursor += 1
            self._apply(event, now)
            fired.append(event)
        return fired

    def fire(self, now: float) -> None:
        """Event-source hook for :meth:`ServerFleet.run
        <repro.serving.fleet.ServerFleet.run>`: apply the due events
        and, if any fired, service the fleet at once — a kill's shed
        backlog schedules its retries before the instant's arrivals."""
        if self.apply_due(now):
            self.fleet.service(now)

    def _apply(self, event: ChaosEvent, now: float) -> None:
        fleet = self.fleet
        if event.action == "kill":
            fleet.kill_replica(event.replica, now=now)
        elif event.action == "stall":
            fleet.stall_replica(event.replica, now=now)
        elif event.action == "slow":
            fleet.slow_replica(
                event.replica, factor=event.factor, now=now
            )
        elif event.action == "error":
            fleet.error_replica(event.replica, now=now)
        else:
            fleet.recover_replica(event.replica, now=now)
        self.applied.append(event)
        fleet.metrics.counter(
            "serving_chaos_events_total", action=event.action
        ).inc()
