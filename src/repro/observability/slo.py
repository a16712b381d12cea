"""Declarative SLOs with sliding windows and burn-rate alerting.

An :class:`SloEngine` turns the raw counters and histograms of a
:class:`~repro.observability.metrics.MetricsRegistry` into *service
level objective* state: each declared :class:`SloObjective` is
evaluated over sliding windows of registry snapshots, producing a
compliance ratio, multi-window **error-budget burn rates** (the SRE
fast-burn/slow-burn pattern: alert only when both the short and the
long window burn faster than the threshold, so a single slow batch
can't page but a sustained regression can't hide), a lifetime
**budget-remaining** figure the CI gate fails on, and typed
:class:`SloAlert` events.

Three objective kinds share one budget algebra — every objective
defines a *bad fraction* ``b`` over a window and an *allowed
fraction* ``A``; ``burn = b / A``:

- ``latency_quantile`` — "``quantile`` of requests finish within
  ``target`` seconds", read from a latency histogram's bucket deltas
  (``A = 1 - quantile``).  The histogram's exemplars then link a
  burning bucket to a concrete trace id.
- ``error_rate`` — "at most ``target`` of requests fail", from
  good/bad counter deltas (``A = target``).
- ``goodput`` — "sustain ``quantile * target`` good requests/second"
  (``A = 1 - quantile``; ``b`` is the shortfall fraction vs
  ``target``).

Everything is deterministic: the engine reads the injectable clock it
was built with, so a virtual-time load run ticking the engine at
event times produces byte-identical SLO reports per seed.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.observability.clock import Clock, wall_clock
from repro.observability.metrics import Histogram, MetricsRegistry

#: Supported objective kinds.
KINDS = ("latency_quantile", "error_rate", "goodput")

#: Schema marker for saved specs/reports.
SPEC_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SloObjective:
    """One declarative objective (see the module doc for semantics).

    Attributes:
        name: unique objective id (used as the metric label).
        kind: one of :data:`KINDS`.
        target: kind-specific threshold — seconds for
            ``latency_quantile``, max failure ratio for
            ``error_rate``, required good requests/second for
            ``goodput``.
        quantile: required compliance ratio (``latency_quantile``,
            ``goodput``); unused for ``error_rate``.
        metric: latency histogram name (``latency_quantile``).
        good_metric: success counter name (``error_rate``,
            ``goodput``).
        bad_metrics: failure counter names, summed (``error_rate``).
        short_window_s / long_window_s: the two burn windows.
        burn_threshold: both windows must burn at or above this
            multiple of the allowed rate to raise an alert.
        description: free-form note carried into reports.
    """

    name: str
    kind: str
    target: float
    quantile: float = 0.95
    metric: str = "serving_request_latency_seconds"
    good_metric: str = "serving_fleet_completed_total"
    bad_metrics: Tuple[str, ...] = (
        "serving_fleet_failed_total",
        "serving_fleet_expired_total",
    )
    short_window_s: float = 0.5
    long_window_s: float = 2.0
    burn_threshold: float = 2.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("objective name must be non-empty")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.target <= 0:
            raise ValueError("target must be positive")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be within (0, 1)")
        if self.kind == "error_rate" and not self.target < 1.0:
            raise ValueError("error_rate target must be below 1")
        if self.short_window_s <= 0 or self.long_window_s <= 0:
            raise ValueError("windows must be positive")
        if self.short_window_s > self.long_window_s:
            raise ValueError(
                "short_window_s must not exceed long_window_s"
            )
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")

    @property
    def allowed_fraction(self) -> float:
        """The error budget ``A``: tolerated bad fraction."""
        if self.kind == "error_rate":
            return self.target
        return 1.0 - self.quantile

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "quantile": self.quantile,
            "metric": self.metric,
            "good_metric": self.good_metric,
            "bad_metrics": list(self.bad_metrics),
            "short_window_s": self.short_window_s,
            "long_window_s": self.long_window_s,
            "burn_threshold": self.burn_threshold,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SloObjective":
        known = dict(data)
        bad = known.pop("bad_metrics", None)
        kwargs: Dict[str, object] = {
            key: known[key]
            for key in (
                "name", "kind", "target", "quantile", "metric",
                "good_metric", "short_window_s", "long_window_s",
                "burn_threshold", "description",
            )
            if key in known
        }
        if bad is not None:
            kwargs["bad_metrics"] = tuple(bad)
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SloSpec:
    """A named set of objectives, JSON-serializable for committing
    next to the CI gates (see ``SLO_serving.json``)."""

    objectives: Tuple[SloObjective, ...]
    name: str = "serving"

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("a spec needs at least one objective")
        names = [objective.name for objective in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names in {names}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "objectives": [
                objective.to_dict() for objective in self.objectives
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SloSpec":
        version = data.get("schema_version", SPEC_SCHEMA_VERSION)
        if version != SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported SLO spec schema_version {version!r}"
            )
        return cls(
            name=str(data.get("name", "serving")),
            objectives=tuple(
                SloObjective.from_dict(entry)
                for entry in data["objectives"]  # type: ignore[union-attr]
            ),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "SloSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class SloAlert:
    """One burn-rate alert (both windows over the threshold)."""

    t_s: float
    objective: str
    kind: str
    burn_short: float
    burn_long: float
    short_window_s: float
    long_window_s: float
    threshold: float
    message: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "t_s": self.t_s,
            "objective": self.objective,
            "kind": self.kind,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
            "short_window_s": self.short_window_s,
            "long_window_s": self.long_window_s,
            "threshold": self.threshold,
            "message": self.message,
        }


@dataclass
class SloStatus:
    """Evaluation snapshot of one objective at one instant.

    ``NaN`` fields mean *no data in the window* — deliberately not a
    healthy 0.0 (the same bug class as the empty-histogram quantile).
    """

    objective: str
    kind: str
    t_s: float
    compliance: float
    burn_short: float
    burn_long: float
    budget_remaining: float
    events: float
    alerting: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "objective": self.objective,
            "kind": self.kind,
            "t_s": self.t_s,
            "compliance": self.compliance,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
            "budget_remaining": self.budget_remaining,
            "events": self.events,
            "alerting": self.alerting,
        }


@dataclass
class _Frame:
    """One extracted registry frame: counters summed by name,
    histograms merged by name into (buckets, cumulative, count)."""

    counters: Dict[str, float]
    hists: Dict[str, Tuple[Tuple[float, ...], List[int], int]]


class SloEngine:
    """Evaluates an :class:`SloSpec` against a live registry.

    Args:
        spec: the objectives to track.
        registry: the registry the serving stack writes into; the
            engine both reads raw series from it and publishes
            ``slo_*`` gauges/counters back into it.
        clock: injectable time source (share the serving stack's
            :class:`~repro.observability.clock.FixedClock` for
            deterministic virtual-time evaluation).
        min_tick_interval_s: ticks arriving closer together than this
            are coalesced (the virtual event loop ticks at every
            event; the engine only needs window-resolution samples).
    """

    def __init__(
        self,
        spec: SloSpec,
        registry: MetricsRegistry,
        clock: Clock = wall_clock,
        min_tick_interval_s: float = 0.05,
    ) -> None:
        self.spec = spec
        self.registry = registry
        self.clock = clock
        self.min_tick_interval_s = float(min_tick_interval_s)
        self.alerts: List[SloAlert] = []
        self._alerting: Dict[str, bool] = {
            objective.name: False for objective in spec.objectives
        }
        self._frames: Deque[Tuple[float, _Frame]] = deque()
        self._horizon = max(
            objective.long_window_s for objective in spec.objectives
        )
        start = self.clock()
        self._baseline: Tuple[float, _Frame] = (
            start, self._extract()
        )
        self._frames.append(self._baseline)

    # Frame extraction ------------------------------------------------

    def _needed_names(self) -> Tuple[set, set]:
        counters = set()
        histograms = set()
        for objective in self.spec.objectives:
            if objective.kind == "latency_quantile":
                histograms.add(objective.metric)
            else:
                counters.add(objective.good_metric)
                counters.update(objective.bad_metrics)
        return counters, histograms

    def _extract(self) -> _Frame:
        counter_names, histogram_names = self._needed_names()
        frame = _Frame(
            counters={
                name: self.registry.sum_by(name).get("", 0.0)
                for name in counter_names
            },
            hists={},
        )
        for (name, _labels), metric in self.registry.items():
            if name in histogram_names and isinstance(
                metric, Histogram
            ):
                cumulative = metric.cumulative_counts()
                held = frame.hists.get(name)
                if held is None:
                    frame.hists[name] = (
                        metric.buckets,
                        list(cumulative),
                        metric.count,
                    )
                else:
                    buckets, counts, total = held
                    frame.hists[name] = (
                        buckets,
                        [a + b for a, b in zip(counts, cumulative)],
                        total + metric.count,
                    )
        return frame

    # Windows ---------------------------------------------------------

    def _frame_at(self, cutoff: float) -> Tuple[float, _Frame]:
        """Newest frame at or before ``cutoff`` (the engine baseline
        when the run is younger than the window)."""
        chosen = self._frames[0]
        for t, frame in self._frames:
            if t <= cutoff:
                chosen = (t, frame)
            else:
                break
        return chosen

    @staticmethod
    def _counter_delta(
        then: _Frame, now_frame: _Frame, name: str
    ) -> float:
        return now_frame.counters.get(name, 0.0) - then.counters.get(
            name, 0.0
        )

    @staticmethod
    def _latency_window(
        then: _Frame, now_frame: _Frame, name: str, target: float
    ) -> Tuple[float, float]:
        """``(good, total)`` sample counts within the window for a
        latency histogram, where *good* approximates samples at or
        under ``target`` via the first bucket bound >= target."""
        now_entry = now_frame.hists.get(name)
        if now_entry is None:
            return 0.0, 0.0
        buckets, now_counts, now_total = now_entry
        then_entry = then.hists.get(name)
        if then_entry is None:
            then_counts: List[int] = [0] * len(now_counts)
            then_total = 0
        else:
            _, then_counts, then_total = then_entry
        total = float(now_total - then_total)
        if total <= 0:
            return 0.0, 0.0
        index = bisect_left(list(buckets), target)
        index = min(index, len(now_counts) - 1)
        good = float(now_counts[index] - then_counts[index])
        return good, total

    def _bad_fraction(
        self,
        objective: SloObjective,
        then_t: float,
        then: _Frame,
        now_t: float,
        now_frame: _Frame,
    ) -> Tuple[float, float]:
        """``(bad_fraction, events)`` over one window; NaN fraction
        when the window holds no signal."""
        if objective.kind == "latency_quantile":
            good, total = self._latency_window(
                then, now_frame, objective.metric, objective.target
            )
            if total <= 0:
                return float("nan"), 0.0
            return 1.0 - good / total, total
        good = self._counter_delta(
            then, now_frame, objective.good_metric
        )
        bad = sum(
            self._counter_delta(then, now_frame, name)
            for name in objective.bad_metrics
        )
        if objective.kind == "error_rate":
            total = good + bad
            if total <= 0:
                return float("nan"), 0.0
            return bad / total, total
        # goodput: shortfall of the good-event rate vs target.
        elapsed = now_t - then_t
        if elapsed <= 0:
            return float("nan"), 0.0
        rate = good / elapsed
        shortfall = max(0.0, 1.0 - rate / objective.target)
        return shortfall, good

    # Public API ------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> List[SloAlert]:
        """Snapshot the registry and evaluate every objective.

        Returns the alerts *raised by this tick* (transitions into
        the alerting state); all alerts accumulate on :attr:`alerts`.
        Publishes ``slo_compliance_ratio``, ``slo_burn_rate``,
        ``slo_budget_remaining_ratio`` gauges and an
        ``slo_alerts_total`` counter back into the registry.
        """
        if now is None:
            now = self.clock()
        last_t = self._frames[-1][0]
        if (
            len(self._frames) > 1
            and now - last_t < self.min_tick_interval_s
        ):
            return []
        self._frames.append((now, self._extract()))
        # Trim to the window horizon; frames[0] stays the newest
        # frame old enough to anchor the longest window.  Lifetime
        # budgets read self._baseline, which is kept separately.
        keep_from = now - 2.0 * self._horizon
        while len(self._frames) > 2 and self._frames[1][0] <= keep_from:
            self._frames.popleft()
        raised: List[SloAlert] = []
        for status in self.evaluate(now):
            self._publish(status)
            was = self._alerting[status.objective]
            self._alerting[status.objective] = status.alerting
            if status.alerting and not was:
                objective = self._objective(status.objective)
                alert = SloAlert(
                    t_s=now,
                    objective=objective.name,
                    kind=objective.kind,
                    burn_short=status.burn_short,
                    burn_long=status.burn_long,
                    short_window_s=objective.short_window_s,
                    long_window_s=objective.long_window_s,
                    threshold=objective.burn_threshold,
                    message=(
                        f"{objective.name}: burn "
                        f"{status.burn_long:.2f}x over "
                        f"{objective.long_window_s:g}s and "
                        f"{status.burn_short:.2f}x over "
                        f"{objective.short_window_s:g}s (threshold "
                        f"{objective.burn_threshold:g}x)"
                    ),
                )
                self.alerts.append(alert)
                raised.append(alert)
                self.registry.counter(
                    "slo_alerts_total", objective=objective.name
                ).inc()
        return raised

    def _objective(self, name: str) -> SloObjective:
        for objective in self.spec.objectives:
            if objective.name == name:
                return objective
        raise KeyError(name)

    def evaluate(self, now: Optional[float] = None) -> List[SloStatus]:
        """Pure evaluation against the frames already collected."""
        if now is None:
            now = self.clock()
        now_t, now_frame = self._frames[-1]
        statuses: List[SloStatus] = []
        for objective in self.spec.objectives:
            windows: Dict[str, Tuple[float, float]] = {}
            for label, window_s in (
                ("short", objective.short_window_s),
                ("long", objective.long_window_s),
            ):
                then_t, then = self._frame_at(now_t - window_s)
                windows[label] = self._bad_fraction(
                    objective, then_t, then, now_t, now_frame
                )
            allowed = objective.allowed_fraction
            burns = {
                label: (
                    float("nan")
                    if math.isnan(bad)
                    else bad / allowed
                )
                for label, (bad, _) in windows.items()
            }
            base_t, base = self._baseline
            life_bad, life_events = self._bad_fraction(
                objective, base_t, base, now_t, now_frame
            )
            if math.isnan(life_bad):
                budget = float("nan")
            else:
                budget = 1.0 - (life_bad / allowed)
            long_bad, long_events = windows["long"]
            alerting = (
                not math.isnan(burns["short"])
                and not math.isnan(burns["long"])
                and burns["short"] >= objective.burn_threshold
                and burns["long"] >= objective.burn_threshold
            )
            statuses.append(
                SloStatus(
                    objective=objective.name,
                    kind=objective.kind,
                    t_s=now_t,
                    compliance=(
                        float("nan")
                        if math.isnan(long_bad)
                        else 1.0 - long_bad
                    ),
                    burn_short=burns["short"],
                    burn_long=burns["long"],
                    budget_remaining=budget,
                    events=long_events,
                    alerting=alerting,
                )
            )
        return statuses

    def _publish(self, status: SloStatus) -> None:
        labels = {"objective": status.objective}
        if not math.isnan(status.compliance):
            self.registry.gauge(
                "slo_compliance_ratio", **labels
            ).set(status.compliance)
        if not math.isnan(status.burn_long):
            self.registry.gauge(
                "slo_burn_rate", window="long", **labels
            ).set(status.burn_long)
        if not math.isnan(status.burn_short):
            self.registry.gauge(
                "slo_burn_rate", window="short", **labels
            ).set(status.burn_short)
        if not math.isnan(status.budget_remaining):
            self.registry.gauge(
                "slo_budget_remaining_ratio", **labels
            ).set(status.budget_remaining)

    def exhausted(self) -> List[str]:
        """Objectives whose lifetime error budget is spent."""
        return [
            status.objective
            for status in self.evaluate()
            if not math.isnan(status.budget_remaining)
            and status.budget_remaining <= 0.0
        ]

    def report(self, now: Optional[float] = None) -> Dict[str, object]:
        """JSON-serializable SLO report (the ``slo_report.json``
        artifact the CI job uploads and the dashboard renders)."""
        statuses = self.evaluate(now)
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "spec": self.spec.name,
            "objectives": [status.to_dict() for status in statuses],
            "alerts": [alert.to_dict() for alert in self.alerts],
            "exhausted": [
                status.objective
                for status in statuses
                if not math.isnan(status.budget_remaining)
                and status.budget_remaining <= 0.0
            ],
        }
