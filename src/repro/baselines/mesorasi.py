"""Mesorasi delayed-aggregation baseline (paper Sec. 6.4, ref [18]).

Mesorasi restructures PointNet-family modules so the shared MLP runs on
the *ungrouped* ``N x C`` features and the (max-pooling) aggregation is
delayed until after feature compute.  That shrinks the MLP input from
``n*k`` rows to ``N`` rows — the paper measures feature compute going
from 88.2 ms to 42.2 ms per batch (2.1x) on PointNet++/S3DIS — but
inflates the feature-grouping stage (now gathering wide post-MLP
features) by 2.73x, and leaves the sampling stage untouched, capping
the end-to-end gain at 1.12x.

This module applies that transformation to a recorded trace: matmul
events from grouped rows are re-priced at ungrouped row counts, and
gather events are re-priced at the (wider) output channel width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.nn.plan import OP_MATMUL
from repro.nn.recorder import (
    STAGE_FEATURE,
    STAGE_GROUPING,
    StageEvent,
    StageRecorder,
)


@dataclass(frozen=True)
class DelayedAggregationResult:
    """Latency deltas from applying delayed aggregation to a trace."""

    feature_speedup: float
    grouping_slowdown: float
    end_to_end_speedup: float


def apply_delayed_aggregation(recorder: StageRecorder) -> StageRecorder:
    """Rewrite a baseline trace as Mesorasi would execute it.

    - ``matmul`` events whose rows include a neighbor factor ``k``
      (identifiable through the matching ``gather`` event of the same
      layer) are re-priced with rows divided by ``k``: the MLP now runs
      once per point instead of once per (point, neighbor) pair.
    - ``gather`` events move *after* the MLP, so they gather the MLP's
      output channels; we re-price their channel width to the layer's
      final MLP output width.
    """
    # Layer indices are shared between encoder and decoder modules, so
    # a matmul is identified as *grouped* (and thus rewritable) only
    # when its row count equals the matching gather's batch*n*k shape.
    layer_k: Dict[int, float] = {}
    grouped_rows: Dict[int, float] = {}
    layer_out_channels: Dict[int, float] = {}
    for event in recorder:
        if event.stage == STAGE_GROUPING and event.op == "gather":
            c = event.counts
            layer_k[event.layer] = c["k"]
            grouped_rows[event.layer] = (
                c.get("batch", 1) * c["n_groups"] * c["k"]
            )
    for event in recorder:
        if (
            event.stage == STAGE_FEATURE
            and event.op == OP_MATMUL
            and event.counts.get("rows") == grouped_rows.get(event.layer)
        ):
            layer_out_channels[event.layer] = event.counts["c_out"]

    rewritten = StageRecorder()
    for event in recorder:
        counts = dict(event.counts)
        if (
            event.stage == STAGE_FEATURE
            and event.op == OP_MATMUL
            and counts.get("rows") == grouped_rows.get(event.layer)
        ):
            k = layer_k[event.layer]
            counts["rows"] = counts["rows"] / k
            counts["flops"] = counts["flops"] / k
        elif (
            event.stage == STAGE_GROUPING
            and event.op == "gather"
            and event.layer in layer_out_channels
        ):
            counts["channels"] = layer_out_channels[event.layer]
        rewritten.events.append(
            StageEvent(event.stage, event.op, event.layer, counts)
        )
    return rewritten


def summarize(
    baseline_breakdown, mesorasi_breakdown
) -> DelayedAggregationResult:
    """Build the Sec. 6.4 comparison numbers from two breakdowns."""
    return DelayedAggregationResult(
        feature_speedup=(
            baseline_breakdown.feature_s / mesorasi_breakdown.feature_s
        ),
        grouping_slowdown=(
            mesorasi_breakdown.grouping_s / baseline_breakdown.grouping_s
        ),
        end_to_end_speedup=(
            baseline_breakdown.total_s / mesorasi_breakdown.total_s
        ),
    )
