"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a thread-safe, zero-dependency metric
store modelled on the Prometheus client data model, sized for this
library's needs: instruments are created on first use
(``registry.counter("guard_trips_total", stage="sampling").inc()``),
identified by name plus a sorted label set, and exported either as a
JSON snapshot (:meth:`MetricsRegistry.snapshot`) or as Prometheus text
exposition (:meth:`MetricsRegistry.to_prometheus`).

Metrics are **off by default**, like tracing: every instrumented
constructor resolves ``metrics=None`` once to the module-level
:data:`NULL_METRICS`, whose ``counter`` / ``gauge`` / ``histogram``
hand back one shared no-op instrument and register nothing, so its
snapshot and Prometheus text stay empty and no call site checks
whether metrics are on.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

#: Default latency buckets (seconds), Prometheus-style.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Prometheus text-exposition escaping for a label value:
    backslash, double quote, and newline (in that order, so escapes
    are not themselves re-escaped)."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(items: LabelItems, extra: str = "") -> str:
    parts = [f'{k}="{escape_label_value(v)}"' for k, v in items]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    the tail.  ``counts[i]`` is *non-cumulative* internally and
    cumulated at export time.

    Each bucket keeps one **exemplar** — the ``(trace_id, value)`` of
    its largest observation passed with a trace id — so a bad tail
    bucket links directly to the trace that produced it
    (OpenMetrics-style; see ``docs/observability.md``).
    """

    kind = "histogram"

    def __init__(
        self,
        lock: threading.Lock,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a sorted non-empty tuple")
        self._lock = lock
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.exemplars: Dict[int, Tuple[str, float]] = {}

    def observe(
        self, value: float, trace_id: Optional[str] = None
    ) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1
            if trace_id:
                held = self.exemplars.get(index)
                if held is None or value > held[1]:
                    self.exemplars[index] = (trace_id, value)

    def cumulative_counts(self) -> List[int]:
        total = 0
        out = []
        for c in self.counts:
            total += c
            out.append(total)
        return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (``NaN`` with no
        samples).

        An empty histogram has no quantiles: returning a number here
        (historically ``0.0``) let idle runs sail through latency
        gates, so absence is now explicit and gates must check
        ``math.isnan`` (the SLO engine reads NaN as *no data*).
        The tail (+Inf) bucket reports its lower bound — the estimate
        saturates at the largest finite bucket boundary.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            if self.count == 0:
                return float("nan")
            target = q * self.count
            cumulative = 0
            for i, c in enumerate(self.counts):
                lower = self.buckets[i - 1] if i > 0 else 0.0
                upper = (
                    self.buckets[i]
                    if i < len(self.buckets)
                    else self.buckets[-1]
                )
                if cumulative + c >= target:
                    if c == 0 or i >= len(self.buckets):
                        return upper
                    frac = (target - cumulative) / c
                    return lower + (upper - lower) * frac
                cumulative += c
            return self.buckets[-1]

    @property
    def value(self) -> float:
        return self.sum


class MetricsRegistry:
    """Thread-safe named-instrument store with two exporters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}

    def _get(self, name: str, labels: Dict[str, str], factory, kind):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = factory()
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {kind}"
                )
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(
            name, labels, lambda: Counter(self._lock), "counter"
        )

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(
            name, labels, lambda: Gauge(self._lock), "gauge"
        )

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(
            name, labels,
            lambda: Histogram(self._lock, buckets), "histogram",
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def items(self) -> List[Tuple[Tuple[str, LabelItems], object]]:
        """Stable-ordered snapshot of ``((name, labels), metric)``
        pairs (the SLO engine's histogram reader)."""
        with self._lock:
            return sorted(self._metrics.items())

    def sum_by(self, name: str, label: str = "") -> Dict[str, float]:
        """Values of the counter and gauge series named ``name``,
        summed per value of their ``label`` label (every series into
        one ``""`` entry when ``label`` is empty), in label order.

        ``{}`` when no such series exists: unlike :meth:`counter`,
        reading never creates a series.
        """
        with self._lock:
            series = sorted(
                (labels, metric)
                for (key, labels), metric in self._metrics.items()
                if key == name and metric.kind != "histogram"
            )
        sums: Dict[str, float] = {}
        for labels, metric in series:
            group = dict(labels).get(label, "") if label else ""
            sums[group] = sums.get(group, 0.0) + float(metric.value)
        return sums

    # Exporters -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable dump of every instrument.

        ``{"metrics": [{"name", "kind", "labels", ...payload}]}``,
        sorted by (name, labels) so snapshots diff cleanly.
        """
        with self._lock:
            items = sorted(self._metrics.items())
        out: List[Dict[str, object]] = []
        for (name, labels), metric in items:
            entry: Dict[str, object] = {
                "name": name,
                "kind": metric.kind,
                "labels": dict(labels),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["counts"] = list(metric.counts)
                entry["sum"] = metric.sum
                entry["count"] = metric.count
                if metric.exemplars:
                    entry["exemplars"] = {
                        str(index): [trace_id, value]
                        for index, (trace_id, value) in sorted(
                            metric.exemplars.items()
                        )
                    }
            else:
                entry["value"] = metric.value
            out.append(entry)
        return {"metrics": out}

    def export_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (v0.0.4)."""
        with self._lock:
            items = sorted(self._metrics.items())
        lines: List[str] = []
        seen_types = set()
        for (name, labels), metric in items:
            if name not in seen_types:
                lines.append(f"# TYPE {name} {metric.kind}")
                seen_types.add(name)
            if isinstance(metric, Histogram):
                cumulative = metric.cumulative_counts()
                bounds = [repr(b) for b in metric.buckets] + ["+Inf"]
                for bound, count in zip(bounds, cumulative):
                    label_str = _format_labels(
                        labels, f'le="{bound}"'
                    )
                    lines.append(f"{name}_bucket{label_str} {count}")
                label_str = _format_labels(labels)
                lines.append(f"{name}_sum{label_str} {metric.sum!r}")
                lines.append(f"{name}_count{label_str} {metric.count}")
            else:
                label_str = _format_labels(labels)
                lines.append(f"{name}{label_str} {metric.value!r}")
        return "\n".join(lines) + ("\n" if lines else "")


class _NullInstrument:
    """Shared do-nothing instrument handed out by :data:`NULL_METRICS`."""

    __slots__ = ()

    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(
        self, value: float, trace_id: Optional[str] = None
    ) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class _NullRegistry(MetricsRegistry):
    """A registry that drops every update and registers nothing."""

    def _get(self, name: str, labels: Dict[str, str], factory, kind):
        return _NULL_INSTRUMENT


#: Shared metrics-off registry: the default on every instrumented path.
NULL_METRICS: MetricsRegistry = _NullRegistry()
