"""Op plans: which kernels a module runs, decided in one place.

A module's *plan* is the list of :class:`~repro.nn.recorder.StageEvent`
it runs, derived from its hyper-parameters, input sizes and
:class:`~repro.core.pipeline.EdgePCConfig` alone — no data.  A
module's ``forward`` builds its plan per call (the robustness guard
swaps ``edgepc`` between calls), runs the kernels it names and records
it; :func:`repro.workloads.trace` concatenates the same plans to price
full-scale workloads without running them.

Data-dependent kernels (``fps_fast`` and the :data:`GRID_OPS`) carry
their worst case — ``points_scanned = N·n``, ``pairs_scanned = Q·N`` —
which a real forward overwrites with the scan counts it measured
(:func:`with_measured`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.core.pipeline import EdgePCConfig
from repro.nn.recorder import (
    STAGE_FEATURE,
    STAGE_GROUPING,
    STAGE_NEIGHBOR,
    STAGE_SAMPLE,
    StageEvent,
)
from repro.sampling.fps import fps_operation_count

#: The op every shared-MLP / head Linear stage is priced as.
OP_MATMUL = "matmul"
#: The cell-list engines of the exact stages at or above
#: ``exact_fast_threshold``.  Each event carries ``n_queries``,
#: ``n_candidates`` and ``pairs_scanned`` (bound ``Q·N``).
GRID_OPS = frozenset({"knn_grid", "ball_query_grid", "interp_grid"})

#: Count fields a real forward measures; a plan holds only their
#: static worst-case bound (or omits them).
MEASURED_COUNTS = frozenset({
    "points_scanned", "pairs_scanned", "blocks_applied", "blocks_pruned",
    "rounds",
})

Plan = List[StageEvent]


def _event(stage: str, op: str, layer: int, **counts: float) -> StageEvent:
    return StageEvent(stage, op, layer, counts)


def matmul_plan(layer: int, channels: Sequence[int], rows: int) -> Plan:
    """One matmul per Linear stage of an MLP with widths ``channels``,
    applied to ``rows`` rows (a whole-batch total)."""
    return [
        _event(
            STAGE_FEATURE, OP_MATMUL, layer,
            rows=rows, c_in=c_in, c_out=c_out,
            flops=2.0 * rows * c_in * c_out,
        )
        for c_in, c_out in zip(channels[:-1], channels[1:])
    ]


def linear_widths(*linears) -> Tuple[int, ...]:
    """Channel widths of a chain of ``Linear`` layers, input first —
    the ``channels`` :func:`matmul_plan` prices a model head with."""
    return (linears[0].in_features,) + tuple(
        linear.out_features for linear in linears
    )


def _morton_order(stage: str, layer: int, n_points: int, batch: int) -> Plan:
    return [
        _event(stage, "morton_gen", layer, n_points=n_points, batch=batch),
        _event(stage, "morton_sort", layer, n_points=n_points, batch=batch),
    ]


def _group_and_mlp(
    layer: int, n_groups: int, k: int, channels: Sequence[int], batch: int,
    edgepc: EdgePCConfig,
) -> Plan:
    """Gather ``k`` neighbors per group, then run the shared MLP on
    every (group, neighbor) row."""
    gather = _event(
        STAGE_GROUPING, "gather", layer,
        n_groups=n_groups, k=k, channels=channels[0], batch=batch,
        sorted=float(edgepc.sorted_grouping),
    )
    return [gather] + matmul_plan(layer, channels, batch * n_groups * k)


def sa_plan(
    layer: int,
    sizes: Tuple[int, int, int],
    channels: Sequence[int],
    batch: int,
    edgepc: EdgePCConfig,
) -> Plan:
    """SetAbstraction: sample -> neighbor search -> group -> MLP.

    Args:
        sizes: ``(n_points, n_samples, k)`` — input points, sampled
            centers and neighbors per center, per batch element.
        channels: the shared MLP's widths; ``channels[0]`` is the
            grouped input (features + 3 relative xyz).
    """
    n_in, n_out, k = sizes
    plan: Plan = []
    morton_sampled = edgepc.uses_morton_sampling(layer)
    fast = edgepc.exact_engine_for(n_in) == "fast"
    if morton_sampled:
        plan += _morton_order(STAGE_SAMPLE, layer, n_in, batch)
        plan.append(_event(
            STAGE_SAMPLE, "uniform_pick", layer,
            n_samples=n_out, batch=batch,
        ))
    elif fast:
        bound = float(fps_operation_count(n_in, n_out))
        plan.append(_event(
            STAGE_SAMPLE, "fps_fast", layer,
            n_points=n_in, n_samples=n_out, batch=batch,
            points_scanned=bound, worst_case=bound,
        ))
    else:
        plan.append(_event(
            STAGE_SAMPLE, "fps", layer,
            n_points=n_in, n_samples=n_out, batch=batch,
        ))
    if edgepc.uses_morton_neighbors(layer):
        if not morton_sampled:
            plan += _morton_order(STAGE_NEIGHBOR, layer, n_in, batch)
        plan.append(_event(
            STAGE_NEIGHBOR, "morton_window", layer,
            n_queries=n_out, window=min(n_in, edgepc.window_for(k)),
            k=k, batch=batch,
        ))
    elif fast:
        plan.append(_event(
            STAGE_NEIGHBOR, "ball_query_grid", layer,
            n_queries=n_out, n_candidates=n_in, k=k, batch=batch,
            pairs_scanned=float(n_out * n_in),
        ))
    else:
        plan.append(_event(
            STAGE_NEIGHBOR, "ball_query", layer,
            n_queries=n_out, n_candidates=n_in, k=k, batch=batch,
        ))
    return plan + _group_and_mlp(layer, n_out, k, channels, batch, edgepc)


def fp_plan(
    layer: int,
    sizes: Tuple[int, int],
    channels: Sequence[int],
    batch: int,
    edgepc: EdgePCConfig,
    morton_sampled: bool,
) -> Plan:
    """FeaturePropagation: interpolate up -> MLP.

    Args:
        sizes: ``(n_fine, n_coarse)`` points per batch element.
        channels: the MLP's widths (coarse + skip channels first).
        morton_sampled: whether the paired SA module sampled by Morton
            order (:func:`samples_by_morton` of its plan); the Morton
            upsampler needs that order.
    """
    n_fine, n_coarse = sizes
    if edgepc.uses_morton_upsampling(layer) and morton_sampled:
        interp = _event(
            STAGE_SAMPLE, "interp_morton", layer,
            n_points=n_fine, batch=batch,
        )
    elif edgepc.exact_engine_for(n_fine) == "fast":
        interp = _event(
            STAGE_SAMPLE, "interp_grid", layer,
            n_queries=n_fine, n_candidates=n_coarse, batch=batch,
            pairs_scanned=float(n_fine * n_coarse),
        )
    else:
        interp = _event(
            STAGE_SAMPLE, "interp_exact", layer,
            n_points=n_fine, n_samples=n_coarse, batch=batch,
        )
    return [interp] + matmul_plan(layer, channels, batch * n_fine)


def edgeconv_plan(
    layer: int,
    sizes: Tuple[int, int],
    channels: Sequence[int],
    batch: int,
    edgepc: EdgePCConfig,
) -> Plan:
    """EdgeConv: neighbor graph (or reuse) -> edge gather -> MLP.

    Args:
        sizes: ``(n_points, k)`` per batch element.
        channels: the MLP's widths; ``channels[0]`` is the edge feature
            width, twice the module's input channels.
    """
    n, k = sizes
    plan: Plan = []
    if layer > 0 and edgepc.reuse_policy().should_reuse(layer):
        plan.append(_event(
            STAGE_NEIGHBOR, "reuse", layer, n_queries=n, k=k, batch=batch,
        ))
    elif layer == 0 and edgepc.uses_morton_neighbors(0):
        plan += _morton_order(STAGE_NEIGHBOR, 0, n, batch)
        plan.append(_event(
            STAGE_NEIGHBOR, "morton_window", 0,
            n_queries=n, window=min(n, edgepc.window_for(k)), k=k,
            batch=batch,
        ))
    else:
        # Module 0 searches xyz; later modules search their features.
        dim = 3 if layer == 0 else channels[0] // 2
        if dim == 3 and edgepc.exact_engine_for(n) == "fast":
            plan.append(_event(
                STAGE_NEIGHBOR, "knn_grid", layer,
                n_queries=n, n_candidates=n, k=k, dim=dim, batch=batch,
                pairs_scanned=float(n * n),
            ))
        else:
            plan.append(_event(
                STAGE_NEIGHBOR, "knn", layer,
                n_queries=n, n_candidates=n, k=k, dim=dim, batch=batch,
            ))
    return plan + _group_and_mlp(layer, n, k, channels, batch, edgepc)


def stage_kernels(plan: Plan) -> Dict[str, StageEvent]:
    """Stage -> the event whose kernel produces that stage's result
    (the stage's last event: ``uniform_pick`` after the Morton order
    it picks from, ``morton_window`` after the order it searches)."""
    return {event.stage: event for event in plan}


def samples_by_morton(plan: Plan) -> bool:
    """Whether an SA plan samples by Morton order."""
    return stage_kernels(plan)[STAGE_SAMPLE].op == "uniform_pick"


def with_measured(plan: Plan, op: str, **counts: float) -> Plan:
    """``plan`` with ``counts`` (measured scan statistics) overwriting
    the counts of its ``op`` events."""
    return [
        replace(e, counts={**e.counts, **counts}) if e.op == op else e
        for e in plan
    ]
