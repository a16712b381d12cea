"""Stage recording: the bridge between model forward passes and the
edge-device cost model.

Models emit one :class:`StageEvent` per priced operation (an FPS call,
a kNN search, a grouping gather, a shared-MLP matmul ...).  The
:mod:`repro.runtime` cost model then converts the recorded operation
counts into simulated edge-GPU latency and energy, which is how the
latency-breakdown and speedup experiments (Figs. 3, 9, 11, 13) are
regenerated without the Jetson board.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List

#: Stage names used across the library (paper Fig. 3's breakdown).
STAGE_SAMPLE = "sample"
STAGE_NEIGHBOR = "neighbor_search"
STAGE_GROUPING = "grouping"
STAGE_FEATURE = "feature_compute"

VALID_STAGES = frozenset(
    {STAGE_SAMPLE, STAGE_NEIGHBOR, STAGE_GROUPING, STAGE_FEATURE}
)


@dataclass(frozen=True)
class StageEvent:
    """One priced operation.

    Attributes:
        stage: one of :data:`VALID_STAGES`.
        op: operation name the cost model dispatches on
            (e.g. ``"fps"``, ``"knn"``, ``"morton_sort"``).
        layer: the module index the op ran in (for per-layer plots).
        counts: operation-size parameters (``n``, ``N``, ``k``, ``flops``
            ...), consumed by :mod:`repro.runtime.cost`.
    """

    stage: str
    op: str
    layer: int
    counts: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.stage not in VALID_STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.layer < 0:
            raise ValueError("layer must be non-negative")


class StageRecorder:
    """Accumulates :class:`StageEvent` objects during a forward pass."""

    def __init__(self) -> None:
        self.events: List[StageEvent] = []

    def record(
        self, stage: str, op: str, layer: int, **counts: float
    ) -> None:
        self.events.append(StageEvent(stage, op, layer, dict(counts)))

    def record_plan(self, plan: Iterable[StageEvent]) -> None:
        """Record every event of a module's op plan
        (:mod:`repro.nn.plan`), in order."""
        for event in plan:
            self.record(event.stage, event.op, event.layer, **event.counts)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[StageEvent]:
        return iter(self.events)

    def clear(self) -> None:
        self.events.clear()

    def events_for_stage(self, stage: str) -> List[StageEvent]:
        return [e for e in self.events if e.stage == stage]

    def events_for_layer(self, layer: int) -> List[StageEvent]:
        return [e for e in self.events if e.layer == layer]

    def op_names(self) -> List[str]:
        return sorted({e.op for e in self.events})


class NullRecorder(StageRecorder):
    """A recorder that drops everything (zero overhead bookkeeping)."""

    def record(self, stage: str, op: str, layer: int, **counts) -> None:
        pass
