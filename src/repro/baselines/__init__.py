"""Models of the prior-work systems the paper compares against."""

from repro.baselines.comparison import (
    PriorWorkRow,
    as_table,
    table2_rows,
    unique_full_marks,
)
from repro.baselines.mesorasi import (
    DelayedAggregationResult,
    apply_delayed_aggregation,
    summarize,
)
from repro.baselines.pointacc import (
    MappingUnitModel,
    pointnet2_mapping_unit,
)

__all__ = [
    "apply_delayed_aggregation",
    "summarize",
    "DelayedAggregationResult",
    "MappingUnitModel",
    "pointnet2_mapping_unit",
    "PriorWorkRow",
    "table2_rows",
    "as_table",
    "unique_full_marks",
]
