"""Deadline-aware retry and hedging policies for the serving fleet.

A failed attempt on one replica is only worth retrying if the retry
can still land inside the request's latency budget — EdgePC's
per-frame deadlines (Sec. 7) leave no room for a retry storm that
delivers answers after the frame they were for.  :class:`RetryPolicy`
therefore computes exponential backoff with **deterministic jitter**
(a :func:`zlib.crc32` hash of the request id and attempt number, not
wall-clock randomness) and refuses to schedule a retry whose backoff
alone would consume the remaining ``deadline_s`` budget.

:class:`HedgePolicy` covers the complementary tail-latency case: a
replica that is *slow* rather than failed.  Once enough attempt
latencies have been observed, a request still pending past the
latency quantile gets a second, hedged dispatch on another replica;
first result wins and the loser is cancelled
(:class:`~repro.serving.fleet.ServerFleet` does the bookkeeping).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Sequence


class RetryExhaustedError(RuntimeError):
    """Every allowed attempt failed (or no retry fit the deadline).

    Carries a machine-readable :attr:`reason` like the admission
    errors, so load generators can bucket terminal outcomes.
    """

    reason = "retry_exhausted"


#: Backoff before the first retry (seconds).
BASE_BACKOFF_S = 0.02
#: Backoff growth factor per further retry.
BACKOFF_MULTIPLIER = 2.0
#: Ceiling on the un-jittered backoff (seconds).
MAX_BACKOFF_S = 2.0
#: Jitter fraction: the backoff is scaled by a deterministic factor in
#: ``[1 - JITTER, 1 + JITTER]`` derived from the request id and attempt
#: number, so synchronized failures don't retry in lockstep yet two
#: runs at the same seed stay byte-identical.
JITTER = 0.5
#: Attempt-latency quantile past which a still-pending primary attempt
#: earns a hedge.
HEDGE_QUANTILE = 0.95
#: Observed attempt latencies required before the quantile estimate is
#: trusted (until then the hedge waits its floor).
HEDGE_MIN_SAMPLES = 16


def _unit_hash(token: str) -> float:
    """Deterministic uniform-ish draw in ``[0, 1)`` from a token."""
    return zlib.crc32(token.encode("utf-8")) / 2.0**32


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a deadline cap.

    The schedule is :data:`BASE_BACKOFF_S` growing by
    :data:`BACKOFF_MULTIPLIER` per retry up to :data:`MAX_BACKOFF_S`,
    jittered by :data:`JITTER`.

    Attributes:
        max_attempts: total dispatch attempts per request (the first
            attempt counts; ``1`` disables retries).
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")

    def backoff_s(self, attempt: int, token: str = "") -> float:
        """Jittered backoff before retry number ``attempt``.

        ``attempt`` counts completed attempts (1 = first retry).  The
        jitter factor is a pure function of ``(token, attempt)``, so
        the schedule is deterministic per request.
        """
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        raw = BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** (attempt - 1)
        raw = min(raw, MAX_BACKOFF_S)
        unit = _unit_hash(f"{token}:{attempt}")
        return raw * (1.0 - JITTER + 2.0 * JITTER * unit)

    def next_backoff(
        self,
        attempt: int,
        token: str = "",
        remaining_s: Optional[float] = None,
    ) -> Optional[float]:
        """Backoff before the next retry, or ``None`` to give up.

        Returns ``None`` when the attempt budget is spent or when the
        backoff alone would consume the remaining deadline budget
        (``remaining_s``) — a retry that cannot finish in time is load
        the fleet should shed, not carry.
        """
        if attempt >= self.max_attempts:
            return None
        backoff = self.backoff_s(attempt, token)
        if remaining_s is not None and backoff >= remaining_s:
            return None
        return backoff


@dataclass(frozen=True)
class HedgePolicy:
    """When to issue a duplicate (hedged) dispatch for a slow attempt.

    A primary attempt still pending past the :data:`HEDGE_QUANTILE`
    of the observed attempt latencies earns a hedge, once
    :data:`HEDGE_MIN_SAMPLES` latencies exist.

    Attributes:
        min_delay_s: floor on the hedge delay — also the delay used
            before enough latency samples exist.
    """

    min_delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.min_delay_s <= 0:
            raise ValueError("min_delay_s must be positive")

    def delay_s(self, latencies: Sequence[float]) -> float:
        """Hedge delay given the observed attempt latencies."""
        if len(latencies) < HEDGE_MIN_SAMPLES:
            return self.min_delay_s
        ordered = sorted(latencies)
        position = HEDGE_QUANTILE * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        frac = position - low
        estimate = ordered[low] * (1.0 - frac) + ordered[high] * frac
        return max(self.min_delay_s, estimate)
