"""One run's artifact bundle, and the deterministic text dashboard.

Every CLI command that exports telemetry (``compare``, ``trace``,
``partition``, ``serve``, ``loadgen``) writes it through one function,
:func:`write_artifacts`, into one ``--artifacts-dir`` bundle: the
metrics snapshot (``metrics.json``), the span records
(``trace.jsonl``), the same spans as a Chrome ``trace_event`` file
(``trace.json``, for chrome://tracing or Perfetto), and the command's
own report (``loadgen.json``, ``slo_report.json``, ``partition.json``
or ``run_report.json``).

``repro dashboard`` renders one plain-text snapshot of a bundle —
fleet counters, replica health, SLO error budgets, the partitioned
scene, and the top-K slowest request traces.  :func:`dashboard_data`
builds the renderable data from the bundle's contents, whether
:func:`load_artifacts` read them back from disk or a live load run
(``--dashboard``) passes the in-memory objects it saves, so the two
render byte-identical text for one run.  Output is a pure function of
its inputs: two runs at the same seed render byte-identical
dashboards, so the snapshot can be asserted in tests and diffed across
CI runs.

This is deliberately *not* a terminal UI — a deterministic string is
greppable, diffable, and renders the same in a CI log as in a shell.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

#: Bundle file names (written by :func:`write_artifacts`; the first
#: four are what ``repro dashboard --from`` reads).
ARTIFACT_METRICS = "metrics.json"
ARTIFACT_TRACE = "trace.jsonl"
ARTIFACT_SLO = "slo_report.json"
ARTIFACT_LOADGEN = "loadgen.json"
ARTIFACT_CHROME = "trace.json"
ARTIFACT_PARTITION = "partition.json"
ARTIFACT_RUN_REPORT = "run_report.json"

WIDTH = 66


@dataclass
class DashboardData:
    """Everything the dashboard can render; every piece optional."""

    title: str = "serving"
    fleet_stats: Dict[str, float] = field(default_factory=dict)
    partition_stats: Dict[str, float] = field(default_factory=dict)
    replica_states: Dict[str, str] = field(default_factory=dict)
    slo_report: Mapping[str, object] = field(default_factory=dict)
    latency_ms: Dict[str, float] = field(default_factory=dict)
    trace_records: List[Mapping[str, object]] = field(
        default_factory=list
    )


def bundle_title(directory: Optional[str]) -> str:
    """The dashboard title: the name of the run's artifact bundle
    directory, or ``serving`` for a run that saves none."""
    if directory is None:
        return DashboardData.title
    return os.path.basename(os.path.normpath(directory)) or "artifacts"


def dashboard_data(
    title: str,
    snapshot: Optional[Mapping[str, object]] = None,
    trace_records: Sequence[Mapping[str, object]] = (),
    slo_report: Optional[Mapping[str, object]] = None,
    loadgen: Optional[Mapping[str, object]] = None,
) -> DashboardData:
    """Renderable data from a bundle's contents: the registry
    snapshot, span records, SLO report and load report (each
    optional)."""
    data = DashboardData(title=title)
    if snapshot is not None:
        data.fleet_stats = _stats_from_snapshot(snapshot, _FLEET_SERIES)
        data.partition_stats = _stats_from_snapshot(
            snapshot, _PARTITION_SERIES
        )
    if slo_report is not None:
        data.slo_report = slo_report
    if loadgen is not None:
        data.latency_ms = dict(loadgen.get("latency_ms", {}))
        data.replica_states = {
            str(k): str(v)
            for k, v in loadgen.get("replica_states", {}).items()
        }
    data.trace_records = list(trace_records)
    return data


def write_artifacts(
    directory: str,
    tracer,
    registry,
    reports: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> None:
    """Write one run's bundle into ``directory`` (created if missing):
    the ``registry`` snapshot, the ``tracer``'s spans as JSONL and as
    a Chrome trace, and each ``{file name: document}`` in ``reports``.

    Every file is sorted-key JSON, so same-seed virtual-time runs
    write byte-identical bundles.
    """
    os.makedirs(directory, exist_ok=True)
    registry.export_json(os.path.join(directory, ARTIFACT_METRICS))
    tracer.export_jsonl(os.path.join(directory, ARTIFACT_TRACE))
    tracer.export_chrome(os.path.join(directory, ARTIFACT_CHROME))
    for name, document in (reports or {}).items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _read_json(path: str):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def load_artifacts(directory: str) -> DashboardData:
    """Load the conventional artifact files found in ``directory``.

    Missing files are skipped — the dashboard renders whatever is
    available — but an entirely empty directory is an error (a silent
    blank dashboard would mask a broken upload).
    """
    snapshot = _read_json(os.path.join(directory, ARTIFACT_METRICS))
    slo_report = _read_json(os.path.join(directory, ARTIFACT_SLO))
    loadgen = _read_json(os.path.join(directory, ARTIFACT_LOADGEN))
    trace_path = os.path.join(directory, ARTIFACT_TRACE)
    records: Optional[List[Mapping[str, object]]] = None
    if os.path.exists(trace_path):
        with open(trace_path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    if all(
        part is None for part in (snapshot, slo_report, loadgen, records)
    ):
        raise FileNotFoundError(
            f"no dashboard artifacts in {directory!r} (expected any "
            f"of {ARTIFACT_METRICS}, {ARTIFACT_TRACE}, "
            f"{ARTIFACT_SLO}, {ARTIFACT_LOADGEN})"
        )
    return dashboard_data(
        bundle_title(directory),
        snapshot=snapshot,
        trace_records=records or (),
        slo_report=slo_report,
        loadgen=loadgen,
    )


#: Dashboard row label of each fleet series (``repro loadgen``).
_FLEET_SERIES = {
    "serving_fleet_submitted_total": "submitted",
    "serving_fleet_completed_total": "completed",
    "serving_fleet_failed_total": "failed",
    "serving_fleet_expired_total": "expired",
    "serving_fleet_retries_total": "retries",
    "serving_fleet_hedges_total": "hedges",
    "serving_fleet_hedge_wins_total": "hedge_wins",
    "serving_fleet_healthy_replicas": "healthy",
}

#: Dashboard row label of each partition series (``repro partition``).
_PARTITION_SERIES = {
    "partition_scenes_total": "scenes",
    "partition_chunks_total": "chunks",
    "partition_points_total": "points",
    "partition_simulated_seconds_total": "simulated_s",
}


def _stats_from_snapshot(
    snapshot: Mapping[str, object], wanted: Mapping[str, str]
) -> Dict[str, float]:
    """The ``wanted`` series of a registry JSON snapshot, summed over
    labels and keyed by their dashboard label."""
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

    for title, stats in (
        ("fleet", data.fleet_stats),
        ("partition", data.partition_stats),
    ):
        if stats:
            lines += _section(title)
            for key in sorted(stats):
                lines.append(f"  {key:<22} {_fmt(stats[key]):>12}")

    if data.replica_states:
        lines += _section("replicas")
        for index in sorted(
            data.replica_states, key=lambda key: (len(key), key)
        ):
            lines.append(
                f"  replica {index:<4} {data.replica_states[index]}"
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

    slowest = slowest_traces(data.trace_records, top_k)
    if slowest:
        lines += _section(f"slowest traces (top {top_k})")
        for record in slowest:
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
