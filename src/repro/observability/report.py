"""Run summaries: simulated per-stage breakdowns and energy.

:class:`RunReport` serializes the simulated
:class:`~repro.runtime.profiler.StageBreakdown` /
:class:`~repro.runtime.profiler.EnergyReport` of a ``repro trace`` run
and their per-stage medians into one JSON document, the bundle's
``run_report.json``.  The run's spans and metrics sit beside it in the
same bundle (``trace.jsonl``, ``metrics.json``), not inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional

from repro.observability.clock import Clock, wall_clock

SCHEMA_VERSION = 2


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
    """Serializable per-stage summary of one run."""

    meta: Dict[str, object] = field(default_factory=dict)
    breakdowns: List[Dict[str, object]] = field(default_factory=list)
    energies: List[Dict[str, object]] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        breakdowns=(),
        energies=(),
        clock: Optional[Clock] = None,
        **meta: object,
    ) -> "RunReport":
        """Collect the profiler's results into one report.

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
            "breakdowns": self.breakdowns,
            "energies": self.energies,
            "stage_medians_s": self.stage_medians_s(),
        }
