"""Deterministic text dashboard for the serving fleet.

``repro dashboard`` renders one plain-text snapshot — replica health,
queue depths, SLO error budgets, and the top-K slowest request
traces — either from a **live** fleet/engine (at the end of a load
run) or from **saved artifacts** (the files a CI chaos run uploads:
``metrics.json``, ``trace.jsonl``, ``slo_report.json``,
``loadgen.json``).  Output is a pure function of its inputs: two runs
at the same seed render byte-identical dashboards, so the snapshot
can be asserted in tests and diffed across CI runs.

This is deliberately *not* a terminal UI — a deterministic string is
greppable, diffable, and renders the same in a CI log as in a shell.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

#: Conventional artifact file names (written by ``repro chaos`` /
#: ``repro loadgen`` with ``--out-dir`` and read by ``--from``).
ARTIFACT_METRICS = "metrics.json"
ARTIFACT_TRACE = "trace.jsonl"
ARTIFACT_SLO = "slo_report.json"
ARTIFACT_LOADGEN = "loadgen.json"

WIDTH = 66


@dataclass
class DashboardData:
    """Everything the dashboard can render; every piece optional."""

    title: str = "serving"
    fleet_stats: Dict[str, float] = field(default_factory=dict)
    replica_states: Dict[str, str] = field(default_factory=dict)
    queue_depths: Dict[str, float] = field(default_factory=dict)
    slo_report: Dict[str, object] = field(default_factory=dict)
    latency_ms: Dict[str, float] = field(default_factory=dict)
    trace_records: List[Mapping[str, object]] = field(
        default_factory=list
    )


def collect_live(
    fleet,
    slo=None,
    report=None,
    now: Optional[float] = None,
) -> DashboardData:
    """Snapshot a live :class:`~repro.serving.fleet.ServerFleet` (its
    trace too, when its tracer is on, plus optional SLO engine / load
    report) into renderable data."""
    if now is None:
        now = fleet.clock()
    data = DashboardData(title="fleet")
    data.fleet_stats = fleet.stats()
    data.replica_states = fleet.replica_states(now)
    data.queue_depths = {
        str(replica.index): float(replica.server.queue.depth)
        for replica in fleet.replicas
    }
    if slo is not None:
        data.slo_report = slo.report(now)
    if fleet.tracer.enabled:
        data.trace_records = [
            span.to_dict() for span in fleet.tracer.finished()
        ]
    if report is not None:
        data.latency_ms = dict(report.latency_ms)
    return data


def load_artifacts(directory: str) -> DashboardData:
    """Load the conventional artifact files found in ``directory``.

    Missing files are skipped — the dashboard renders whatever is
    available — but an entirely empty directory is an error (a silent
    blank dashboard would mask a broken upload).
    """
    data = DashboardData(title=os.path.basename(
        os.path.normpath(directory)
    ) or "artifacts")
    found = False
    metrics_path = os.path.join(directory, ARTIFACT_METRICS)
    if os.path.exists(metrics_path):
        found = True
        with open(metrics_path) as fh:
            snapshot = json.load(fh)
        data.fleet_stats = _stats_from_snapshot(snapshot)
        data.queue_depths = _queues_from_snapshot(snapshot)
    slo_path = os.path.join(directory, ARTIFACT_SLO)
    if os.path.exists(slo_path):
        found = True
        with open(slo_path) as fh:
            data.slo_report = json.load(fh)
    loadgen_path = os.path.join(directory, ARTIFACT_LOADGEN)
    if os.path.exists(loadgen_path):
        found = True
        with open(loadgen_path) as fh:
            loadgen = json.load(fh)
        data.latency_ms = dict(loadgen.get("latency_ms", {}))
        states = loadgen.get("replica_states", {})
        if states and not data.replica_states:
            data.replica_states = {
                str(k): str(v) for k, v in states.items()
            }
    trace_path = os.path.join(directory, ARTIFACT_TRACE)
    if os.path.exists(trace_path):
        found = True
        records: List[Mapping[str, object]] = []
        with open(trace_path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        data.trace_records = records
    if not found:
        raise FileNotFoundError(
            f"no dashboard artifacts in {directory!r} (expected any "
            f"of {ARTIFACT_METRICS}, {ARTIFACT_TRACE}, "
            f"{ARTIFACT_SLO}, {ARTIFACT_LOADGEN})"
        )
    return data


def _stats_from_snapshot(
    snapshot: Mapping[str, object]
) -> Dict[str, float]:
    """Fleet-level counters out of a registry JSON snapshot."""
    wanted = {
        "serving_fleet_submitted_total": "submitted",
        "serving_fleet_completed_total": "completed",
        "serving_fleet_failed_total": "failed",
        "serving_fleet_expired_total": "expired",
        "serving_fleet_retries_total": "retries",
        "serving_fleet_hedges_total": "hedges",
        "serving_fleet_hedge_wins_total": "hedge_wins",
        "serving_fleet_healthy_replicas": "healthy",
    }
    stats: Dict[str, float] = {}
    for entry in snapshot.get("metrics", []):  # type: ignore[union-attr]
        name = str(entry.get("name", ""))
        label = wanted.get(name)
        if label is None:
            continue
        value = entry.get("value")
        if isinstance(value, (int, float)):
            stats[label] = stats.get(label, 0.0) + float(value)
    return stats


def _queues_from_snapshot(
    snapshot: Mapping[str, object]
) -> Dict[str, float]:
    depths: Dict[str, float] = {}
    for entry in snapshot.get("metrics", []):  # type: ignore[union-attr]
        if str(entry.get("name", "")) != "serving_queue_depth":
            continue
        labels = entry.get("labels", {}) or {}
        key = str(labels.get("replica", len(depths)))
        value = entry.get("value")
        if isinstance(value, (int, float)):
            depths[key] = float(value)
    return depths


def slowest_traces(
    records: Sequence[Mapping[str, object]], top_k: int = 5
) -> List[Mapping[str, object]]:
    """The ``top_k`` slowest request root spans, slowest first.

    Root spans are the ``request`` spans emitted at each request's
    terminal state; ties break on trace id so the ranking is total.
    """
    roots = [
        record
        for record in records
        if record.get("name") == "request" and record.get("trace_id")
    ]
    roots.sort(
        key=lambda r: (
            -float(r.get("duration_s", 0.0)),
            str(r.get("trace_id")),
        )
    )
    return roots[: max(0, int(top_k))]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        if value == int(value) and abs(value) < 1e9:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


def _rule(char: str = "-") -> str:
    return char * WIDTH


def _section(title: str) -> List[str]:
    return ["", title, _rule()]


def render_dashboard(
    data: DashboardData, top_k: int = 5
) -> str:
    """Render one deterministic text snapshot of ``data``."""
    lines: List[str] = [
        _rule("="),
        f"repro dashboard :: {data.title}",
        _rule("="),
    ]

    if data.fleet_stats:
        lines += _section("fleet")
        for key in sorted(data.fleet_stats):
            lines.append(
                f"  {key:<22} {_fmt(data.fleet_stats[key]):>12}"
            )

    if data.replica_states or data.queue_depths:
        lines += _section("replicas")
        indices = sorted(
            set(data.replica_states) | set(data.queue_depths),
            key=lambda key: (len(key), key),
        )
        for index in indices:
            state = data.replica_states.get(index, "?")
            depth = data.queue_depths.get(index)
            depth_text = (
                "queue=?" if depth is None else f"queue={_fmt(depth)}"
            )
            lines.append(
                f"  replica {index:<4} {state:<10} {depth_text}"
            )

    if data.slo_report:
        lines += _section(
            f"slo budgets :: spec={data.slo_report.get('spec', '?')}"
        )
        exhausted = set(data.slo_report.get("exhausted", []))
        for status in data.slo_report.get("objectives", []):
            name = str(status.get("objective", "?"))
            flags = []
            if status.get("alerting"):
                flags.append("ALERTING")
            if name in exhausted:
                flags.append("EXHAUSTED")
            lines.append(
                f"  {name:<18} {str(status.get('kind', '?')):<16}"
                f" compliance={_fmt(status.get('compliance'))}"
                f" burn={_fmt(status.get('burn_short'))}/"
                f"{_fmt(status.get('burn_long'))}"
                f" budget={_fmt(status.get('budget_remaining'))}"
                + (f"  [{' '.join(flags)}]" if flags else "")
            )
        alerts = data.slo_report.get("alerts", [])
        lines.append(f"  alerts raised: {len(alerts)}")

    if data.latency_ms:
        lines += _section("latency (ms)")
        for key in ("p50", "p95", "p99", "mean", "max"):
            if key in data.latency_ms:
                lines.append(
                    f"  {key:<6} {data.latency_ms[key]:>10.3f}"
                )

    if data.trace_records:
        lines += _section(f"slowest traces (top {top_k})")
        for record in slowest_traces(data.trace_records, top_k):
            duration_ms = float(
                record.get("duration_s", 0.0)
            ) * 1e3
            attrs = record.get("attrs", {}) or {}
            outcome = attrs.get("outcome", "?")
            lines.append(
                f"  {str(record.get('trace_id')):<22}"
                f" {duration_ms:>9.3f} ms"
                f"  outcome={outcome}"
                f" attempts={_fmt(attrs.get('attempts', 1))}"
            )

    lines.append("")
    lines.append(_rule("="))
    return "\n".join(lines)
