"""Per-replica health tracking for the serving fleet.

:class:`ReplicaHealth` is a deterministic state machine over attempt
outcomes that decides whether a replica keeps receiving traffic:

``HEALTHY -> EJECTED -> PROBATION -> HEALTHY``

- **-> EJECTED** — :data:`EJECT_CONSECUTIVE_FAILURES` failures in a
  row, a windowed failure rate of at least :data:`EJECT_FAILURE_RATE`
  over :data:`MIN_SAMPLES` or more outcomes, or an explicit
  :meth:`ReplicaHealth.force_eject` (chaos kill).  Ejected replicas
  receive no traffic at all.
- **EJECTED -> PROBATION** — after :data:`EJECT_S` on the injected
  clock the replica is re-admitted on probation.
- **PROBATION -> HEALTHY** — :data:`PROBATION_SUCCESSES` consecutive
  successes; any failure during probation re-ejects immediately.

Health is fault detection only: which kernel a stage runs is the
pipeline's guard's decision, not the fleet's.  All timestamps come
from caller-provided clock readings (no wall-clock reads), every
transition is appended to :attr:`ReplicaHealth.transitions`, and state
is exported as the ``serving_replica_state`` gauge plus a
``serving_replica_transitions_total`` counter.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.observability.metrics import MetricsRegistry

HEALTHY = "healthy"
EJECTED = "ejected"
PROBATION = "probation"

#: Gauge encoding of each state (``serving_replica_state``).  Code 1
#: belonged to the retired ``degraded`` state and stays unused, so a
#: stored series keeps its meaning.
STATE_CODES: Dict[str, float] = {
    HEALTHY: 0.0,
    EJECTED: 2.0,
    PROBATION: 3.0,
}


# Thresholds of the state machine.

#: Sliding window over attempt outcomes (seconds).
WINDOW_S = 2.0
#: Outcomes needed in the window before the rate threshold applies.
MIN_SAMPLES = 4
#: Windowed failure rate that ejects.
EJECT_FAILURE_RATE = 0.65
#: Failures in a row that eject regardless of the windowed rate.
EJECT_CONSECUTIVE_FAILURES = 4
#: Seconds an ejected replica sits out before probation.
EJECT_S = 1.0
#: Consecutive successes that promote a probation replica to healthy.
PROBATION_SUCCESSES = 3


class ReplicaHealth:
    """Health state machine for one replica.

    Args:
        replica: label used in metrics and transition records.
        metrics: the owner's registry for the state gauge and the
            transition counter.
    """

    def __init__(
        self, replica: str, metrics: MetricsRegistry
    ) -> None:
        self.replica = str(replica)
        self.metrics = metrics
        self.state = HEALTHY
        #: ``(t_s, from_state, to_state, reason)`` per transition.
        self.transitions: List[Tuple[float, str, str, str]] = []
        self._outcomes: Deque[Tuple[float, bool]] = deque()
        self._consecutive_failures = 0
        self._consecutive_successes = 0
        self._ejected_at: Optional[float] = None
        self._export_state()

    # Signal intake ---------------------------------------------------

    def record_success(self, now: float) -> None:
        """Record one successful attempt finishing at ``now``."""
        self.tick(now)
        self._outcomes.append((now, True))
        self._trim(now)
        self._consecutive_successes += 1
        self._consecutive_failures = 0
        if (
            self.state == PROBATION
            and self._consecutive_successes >= PROBATION_SUCCESSES
        ):
            self._set_state(now, HEALTHY, "probation_passed")

    def record_failure(
        self, now: float, reason: str = "failure"
    ) -> None:
        """Record one failed attempt finishing at ``now``."""
        self.tick(now)
        self._outcomes.append((now, False))
        self._trim(now)
        self._consecutive_failures += 1
        self._consecutive_successes = 0
        if self.state == PROBATION:
            self._eject(now, f"probation_failure:{reason}")
            return
        if self.state == EJECTED:
            return
        total = len(self._outcomes)
        failed = sum(1 for _, ok in self._outcomes if not ok)
        if self._consecutive_failures >= EJECT_CONSECUTIVE_FAILURES or (
            total >= MIN_SAMPLES and failed / total >= EJECT_FAILURE_RATE
        ):
            self._eject(now, reason)

    def force_eject(self, now: float, reason: str) -> None:
        """Eject immediately (chaos kill, operator action)."""
        self.tick(now)
        if self.state != EJECTED:
            self._eject(now, reason)

    # Time ------------------------------------------------------------

    def tick(self, now: float) -> None:
        """Advance time-driven transitions (ejection sit-out)."""
        if self._sit_out_over(now):
            self._consecutive_failures = 0
            self._consecutive_successes = 0
            self._set_state(now, PROBATION, "eject_elapsed")

    def routable(self, now: float) -> bool:
        """Whether the router may send this replica traffic at ``now``."""
        self.tick(now)
        return self.state != EJECTED

    def routable_at(self, now: float) -> bool:
        """What :meth:`routable` would return at ``now``, without
        making the transition (for read-only views)."""
        return self.state_at(now) != EJECTED

    def state_at(self, now: float) -> str:
        """The state :meth:`tick` would leave at ``now``, without
        making the transition (for read-only views)."""
        return PROBATION if self._sit_out_over(now) else self.state

    def _sit_out_over(self, now: float) -> bool:
        return (
            self.state == EJECTED
            and self._ejected_at is not None
            and now >= self._ejected_at + EJECT_S
        )

    # Internals -------------------------------------------------------

    def _trim(self, now: float) -> None:
        horizon = now - WINDOW_S
        while self._outcomes and self._outcomes[0][0] < horizon:
            self._outcomes.popleft()

    def _eject(self, now: float, reason: str) -> None:
        self._ejected_at = now
        # A clean slate on re-admission: stale window samples must not
        # re-eject a probation replica on its first post-sit-out error
        # path evaluation.
        self._outcomes.clear()
        self._consecutive_failures = 0
        self._consecutive_successes = 0
        self._set_state(now, EJECTED, reason)

    def _set_state(self, now: float, state: str, reason: str) -> None:
        if state == self.state:
            return
        previous = self.state
        self.state = state
        self.transitions.append((now, previous, state, reason))
        self.metrics.counter(
            "serving_replica_transitions_total",
            replica=self.replica,
            from_state=previous,
            to_state=state,
        ).inc()
        self._export_state()

    def _export_state(self) -> None:
        self.metrics.gauge(
            "serving_replica_state", replica=self.replica
        ).set(STATE_CODES[self.state])

    def __repr__(self) -> str:
        return (
            f"ReplicaHealth({self.replica!r}, state={self.state!r}, "
            f"transitions={len(self.transitions)})"
        )
