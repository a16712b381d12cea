"""One-file run summaries: spans + metrics + breakdown + energy.

:class:`RunReport` merges whatever telemetry a run produced — the
tracer's spans, a metrics snapshot, and the simulated
:class:`~repro.runtime.profiler.StageBreakdown` /
:class:`~repro.runtime.profiler.EnergyReport` — into one
JSON-serializable document, the artifact CI uploads and the BENCH
trajectory consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional

from repro.observability.clock import Clock, wall_clock
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer

SCHEMA_VERSION = 1


def breakdown_to_dict(breakdown) -> Dict[str, object]:
    """Serialize a :class:`StageBreakdown` (per-layer order preserved)."""
    return {
        "sample_s": breakdown.sample_s,
        "neighbor_s": breakdown.neighbor_s,
        "grouping_s": breakdown.grouping_s,
        "feature_s": breakdown.feature_s,
        "total_s": breakdown.total_s,
        "sample_and_neighbor_fraction":
            breakdown.sample_and_neighbor_fraction,
        "per_layer_s": dict(breakdown.per_layer_s),
    }


def energy_to_dict(energy) -> Dict[str, float]:
    """Serialize an :class:`EnergyReport`."""
    return {
        "compute_j": energy.compute_j,
        "memory_j": energy.memory_j,
        "total_j": energy.total_j,
    }


@dataclass
class RunReport:
    """Aggregated, serializable summary of one run."""

    meta: Dict[str, object] = field(default_factory=dict)
    spans: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)
    breakdowns: List[Dict[str, object]] = field(default_factory=list)
    energies: List[Dict[str, object]] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        breakdowns=(),
        energies=(),
        clock: Optional[Clock] = None,
        **meta: object,
    ) -> "RunReport":
        """Collect telemetry objects into one report.

        ``breakdowns``/``energies`` accept the profiler dataclasses
        directly; ``meta`` keyword arguments (workload name, config
        label, batch count ...) are stored verbatim.  ``clock``
        supplies the ``created_unix`` stamp and defaults to the
        :func:`~repro.observability.clock.wall_clock` shim — pass a
        :class:`~repro.observability.clock.FixedClock` to build
        byte-identical reports.
        """
        report = cls(meta=dict(meta))
        report.meta.setdefault("schema_version", SCHEMA_VERSION)
        report.meta.setdefault(
            "created_unix", (clock or wall_clock)()
        )
        if tracer is not None:
            report.spans = [s.to_dict() for s in tracer.finished()]
        if metrics is not None:
            report.metrics = metrics.snapshot()
        report.breakdowns = [breakdown_to_dict(b) for b in breakdowns]
        report.energies = [energy_to_dict(e) for e in energies]
        return report

    def stage_medians_s(self) -> Dict[str, float]:
        """Per-stage median simulated latency across the collected
        breakdowns (the report's ``stage_medians_s``)."""
        out: Dict[str, float] = {}
        if not self.breakdowns:
            return out
        for stage in (
            "sample_s", "neighbor_s", "grouping_s", "feature_s",
            "total_s",
        ):
            out[stage] = median(b[stage] for b in self.breakdowns)
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "meta": self.meta,
            "spans": self.spans,
            "metrics": self.metrics,
            "breakdowns": self.breakdowns,
            "energies": self.energies,
            "stage_medians_s": self.stage_medians_s(),
        }

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunReport":
        with open(path) as fh:
            data = json.load(fh)
        return cls(
            meta=data.get("meta", {}),
            spans=data.get("spans", []),
            metrics=data.get("metrics", {}),
            breakdowns=data.get("breakdowns", []),
            energies=data.get("energies", []),
        )
