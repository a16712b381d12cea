"""Read-back oracles for the telemetry exporters.

:mod:`repro.observability` only writes Prometheus text, JSON metric
snapshots and span records; nothing in the package reads them back.
The tests do, to check that an export round-trips and that a request's
spans stitch into one trace, so the parsers live here.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.observability import MetricsRegistry

LabelItems = Tuple[Tuple[str, str], ...]

#: One label assignment inside ``{...}``: key="value with escapes".
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def unescape_label_value(value: str) -> str:
    """Inverse of :func:`repro.observability.escape_label_value`."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:  # unknown escape: keep it verbatim
                out.append(ch)
                out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse :meth:`MetricsRegistry.to_prometheus` output back into a
    flat ``{"name{labels}": value}`` map (not a general Prometheus
    parser).  Label values keep their exposition escaping (``\\n``
    stays two characters); :func:`parse_prometheus_series` decodes
    them.
    """
    samples: Dict[str, float] = {}
    # Exposition lines end in "\n" only; ``splitlines`` would also
    # split inside label values holding U+2028 and similar breaks.
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.rpartition(" ")
        samples[key] = float(raw)
    return samples


def parse_prometheus_series(
    text: str,
) -> Dict[Tuple[str, LabelItems], float]:
    """Fully decoded parse of :meth:`MetricsRegistry.to_prometheus`
    output: ``{(name, ((label, value), ...)): sample}`` with label
    values unescaped, so series written with ``\\``, ``"``, or
    newlines in a label round-trip to their original strings.
    """
    series: Dict[Tuple[str, LabelItems], float] = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.rpartition(" ")
        name, brace, labels_part = key.partition("{")
        items: LabelItems = ()
        if brace:
            if not labels_part.endswith("}"):
                raise ValueError(f"malformed sample line: {line!r}")
            items = tuple(
                (match.group(1), unescape_label_value(match.group(2)))
                for match in _LABEL_RE.finditer(labels_part[:-1])
            )
        series[(name, items)] = float(raw)
    return series


def registry_from_snapshot(data: Dict[str, object]) -> MetricsRegistry:
    """Rebuild a registry from :meth:`MetricsRegistry.snapshot`
    output."""
    registry = MetricsRegistry()
    for entry in data["metrics"]:
        labels = dict(entry["labels"])
        kind = entry["kind"]
        if kind == "counter":
            registry.counter(entry["name"], **labels).inc(entry["value"])
        elif kind == "gauge":
            registry.gauge(entry["name"], **labels).set(entry["value"])
        elif kind == "histogram":
            hist = registry.histogram(
                entry["name"], tuple(entry["buckets"]), **labels
            )
            hist.counts = list(entry["counts"])
            hist.sum = entry["sum"]
            hist.count = entry["count"]
            hist.exemplars = {
                int(index): (str(pair[0]), float(pair[1]))
                for index, pair in entry.get("exemplars", {}).items()
            }
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
    return registry


def spans_by_trace(
    records: Iterable[Mapping[str, object]],
) -> Dict[str, List[Mapping[str, object]]]:
    """Group span records by ``trace_id`` (untraced spans are
    omitted), each group sorted by start offset then id."""
    groups: Dict[str, List[Mapping[str, object]]] = {}
    for row in records:
        trace_id = row.get("trace_id")
        if not trace_id:
            continue
        groups.setdefault(str(trace_id), []).append(row)
    for rows in groups.values():
        rows.sort(
            key=lambda r: (float(r.get("start_s", 0.0)), int(r.get("id", 0)))
        )
    return groups
