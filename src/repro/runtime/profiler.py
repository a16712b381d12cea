"""Stage-level latency/energy profiling of recorded forward passes.

Converts a :class:`~repro.nn.recorder.StageRecorder` trace into the
per-stage breakdown, end-to-end latency, and energy the paper's
evaluation reports (Figs. 3, 9, 11, 13):

- latency per pipeline stage (sample, neighbor search, grouping,
  feature compute) and per layer;
- energy = Σ stage_time x stage_power + memory_power x total_time,
  with the paper's measured power levels (compute 4.5 W baseline vs
  4.2 W approximate; memory 1.35 W vs 1.63 W when reuse is cached).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.pipeline import EdgePCConfig
from repro.nn.recorder import (
    STAGE_FEATURE,
    STAGE_GROUPING,
    STAGE_NEIGHBOR,
    STAGE_SAMPLE,
    StageRecorder,
)
from repro.runtime.cost import APPROX_OPS, CostModel
from repro.runtime.device import DeviceSpec, xavier


@dataclass(frozen=True)
class StageBreakdown:
    """Per-stage simulated latency (seconds) plus derived metrics.

    ``per_layer_s`` is insertion-ordered by recorder event: keys appear
    in the order each ``stage[layer]`` pair first occurred in the
    forward pass.  Exporters (trace files, run reports) rely on this,
    so identical runs produce byte-identical artifacts.
    """

    sample_s: float
    neighbor_s: float
    grouping_s: float
    feature_s: float
    per_layer_s: Dict[str, float] = field(default_factory=dict)

    @property
    def sample_and_neighbor_s(self) -> float:
        """The paper's 'SMP + NS' quantity."""
        return self.sample_s + self.neighbor_s

    def stages(self) -> Tuple[Tuple[str, float], ...]:
        """``(stage name, seconds)`` in pipeline order — the names
        spans and the ``stage`` metric label use."""
        return (
            (STAGE_SAMPLE, self.sample_s),
            (STAGE_NEIGHBOR, self.neighbor_s),
            (STAGE_GROUPING, self.grouping_s),
            (STAGE_FEATURE, self.feature_s),
        )

    @property
    def total_s(self) -> float:
        return (
            self.sample_s
            + self.neighbor_s
            + self.grouping_s
            + self.feature_s
        )

    @property
    def sample_and_neighbor_fraction(self) -> float:
        """Fraction of E2E latency in sample + neighbor search (the
        38-80% headline of Fig. 3)."""
        total = self.total_s
        if total == 0:
            return 0.0
        return self.sample_and_neighbor_s / total


@dataclass(frozen=True)
class EnergyReport:
    """Simulated energy (joules) split into compute and memory."""

    compute_j: float
    memory_j: float

    @property
    def total_j(self) -> float:
        return self.compute_j + self.memory_j


class PipelineProfiler:
    """Prices recorded traces under a device and an EdgePC config."""

    def __init__(self, device: Optional[DeviceSpec] = None) -> None:
        self.device = device or xavier()
        self._cost = CostModel(self.device)

    def breakdown(
        self, recorder: StageRecorder, config: EdgePCConfig
    ) -> StageBreakdown:
        """Per-stage latency of one recorded forward pass."""
        stage_times = {
            STAGE_SAMPLE: 0.0,
            STAGE_NEIGHBOR: 0.0,
            STAGE_GROUPING: 0.0,
            STAGE_FEATURE: 0.0,
        }
        per_layer: Dict[str, float] = {}
        for event in recorder:
            seconds = self._cost.price(
                event,
                use_tensor_cores=config.use_tensor_cores,
                merge_factor=config.fc_merge_factor,
            )
            stage_times[event.stage] += seconds
            key = f"{event.stage}[{event.layer}]"
            per_layer[key] = per_layer.get(key, 0.0) + seconds
        return StageBreakdown(
            sample_s=stage_times[STAGE_SAMPLE],
            neighbor_s=stage_times[STAGE_NEIGHBOR],
            grouping_s=stage_times[STAGE_GROUPING],
            feature_s=stage_times[STAGE_FEATURE],
            per_layer_s=per_layer,
        )

    def energy(
        self, recorder: StageRecorder, config: EdgePCConfig
    ) -> EnergyReport:
        """Energy of one recorded forward pass.

        Compute power differs between the exact and approximate
        sample/NS kernels; memory power rises when the reuse buffer is
        live (Sec. 6.2's tegrastats measurements).
        """
        compute_j = 0.0
        total_s = 0.0
        uses_reuse = False
        for event in recorder:
            seconds = self._cost.price(
                event,
                use_tensor_cores=config.use_tensor_cores,
                merge_factor=config.fc_merge_factor,
            )
            total_s += seconds
            if event.stage == STAGE_FEATURE:
                power = self.device.compute_power_fc_w
            elif event.op in APPROX_OPS:
                power = self.device.compute_power_approx_w
                if event.op == "reuse":
                    uses_reuse = True
            else:
                power = self.device.compute_power_baseline_w
            compute_j += seconds * power
        memory_power = (
            self.device.memory_power_reuse_w
            if uses_reuse
            else self.device.memory_power_w
        )
        return EnergyReport(
            compute_j=compute_j, memory_j=total_s * memory_power
        )


@dataclass(frozen=True)
class ComparisonReport:
    """Baseline-vs-EdgePC summary for one workload (Fig. 13 row)."""

    baseline: StageBreakdown
    optimized: StageBreakdown
    baseline_energy: EnergyReport
    optimized_energy: EnergyReport

    @property
    def sample_neighbor_speedup(self) -> float:
        return (
            self.baseline.sample_and_neighbor_s
            / self.optimized.sample_and_neighbor_s
        )

    @property
    def end_to_end_speedup(self) -> float:
        return self.baseline.total_s / self.optimized.total_s

    @property
    def energy_saving_fraction(self) -> float:
        base = self.baseline_energy.total_j
        if base == 0:
            return 0.0
        return 1.0 - self.optimized_energy.total_j / base


def compare(
    profiler: PipelineProfiler,
    baseline_recorder: StageRecorder,
    baseline_config: EdgePCConfig,
    optimized_recorder: StageRecorder,
    optimized_config: EdgePCConfig,
) -> ComparisonReport:
    """Build the Fig. 13-style comparison for one workload."""
    return ComparisonReport(
        baseline=profiler.breakdown(baseline_recorder, baseline_config),
        optimized=profiler.breakdown(optimized_recorder, optimized_config),
        baseline_energy=profiler.energy(
            baseline_recorder, baseline_config
        ),
        optimized_energy=profiler.energy(
            optimized_recorder, optimized_config
        ),
    )
