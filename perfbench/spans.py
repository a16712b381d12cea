"""Traced runs: spans around the calls into each layer, and their metrics.

:class:`LayerTracer` wraps the public layer functions at the names the
model modules look them up by (``repro.nn.pointnet2.ball_query_batch``,
``SetAbstraction.forward``, ...) so no program code changes.  Spans go
to a :class:`repro.observability.tracing.Tracer`: in memory, parent
links from the per-thread span stack, written out as JSONL at the end.

A span's self time is its duration minus the time its child spans cover.
:func:`layer_metrics` groups spans by the ``pipeline.infer`` call they
ran under (one forward pass) and reports per-forward medians.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from typing import Callable, Dict, List, Mapping, Sequence

import repro.core.neighbor as core_neighbor
import repro.core.reuse as core_reuse
import repro.core.sampler as core_sampler
import repro.nn.dgcnn as dgcnn
import repro.nn.functional as functional
import repro.nn.layers as layers
import repro.nn.pointnet2 as pointnet2
import repro.pipeline as pipeline
import repro.runtime.profiler as profiler
import repro.serving.server as server
from repro.nn.recorder import STAGE_SAMPLE
from repro.observability.tracing import Tracer
from repro.runtime.cost import CostModel

#: Plain functions, patched in the namespace that calls them.
FUNCTIONS = (
    (pipeline, "sanitize_batch", "robustness.validate"),
    (pointnet2, "farthest_point_sample_batch", "sampling.fps"),
    (pointnet2, "farthest_point_sample_fast_batch", "sampling.fps_fast"),
    (pointnet2, "ball_query_batch", "neighbors.ball_query"),
    (pointnet2, "ball_query_grid_batch", "neighbors.ball_query_grid"),
    (dgcnn, "knn_batch", "neighbors.knn"),
    (dgcnn, "knn_grid_batch", "neighbors.knn"),
    (pointnet2, "group_points", "nn.group"),
    (pointnet2, "gather_points", "nn.group"),
    (pointnet2, "relative_neighborhoods", "nn.group"),
    (dgcnn, "edge_features", "nn.group"),
    (functional, "group_points", "nn.group"),
    (pointnet2, "max_pool_neighbors", "nn.pool"),
    (dgcnn, "max_pool_neighbors", "nn.pool"),
)


def _indexed(prefix: str) -> Callable[[tuple], str]:
    return lambda args: f"{prefix}{args[0].layer_index}"


#: Methods, patched on their class; a callable name reads the instance.
METHODS = (
    (profiler.PipelineProfiler, "energy", "runtime.price"),
    (layers.Sequential, "forward", "nn.mlp"),
    (pointnet2.PointNet2Segmentation, "forward", "nn.model"),
    (dgcnn.DGCNNClassifier, "forward", "nn.model"),
    (pointnet2.SetAbstraction, "forward", _indexed("nn.sa")),
    (pointnet2.FeaturePropagation, "forward", _indexed("nn.fp")),
    (dgcnn.EdgeConv, "forward", _indexed("nn.ec")),
    (core_sampler.MortonSampler, "sample_batch", "core.morton_sample"),
    (core_neighbor.MortonNeighborSearch, "search_batch",
     "core.morton_window"),
    (core_sampler.MortonUpsampler, "interpolation_weights_batch",
     "core.morton_upsample"),
    (core_reuse.NeighborCache, "load", "core.reuse"),
    (server.InferenceServer, "_dispatch", "serving.dispatch"),
)

#: Sample-stage cost-model ops that ``MortonSampler.sample_batch`` runs.
MORTON_SAMPLE_OPS = ("morton_gen", "morton_sort", "uniform_pick")
STAGE_NAMES = ("sample", "neighbor", "grouping", "feature")
NETWORK_LAYERS = tuple(
    [f"nn.sa{i}" for i in range(4)]
    + [f"nn.fp{i}" for i in range(4)]
    + [f"nn.ec{i}" for i in range(3)]
)
_FP = tuple(f"nn.fp{i}" for i in range(4))
#: Host self time of each span name, attributed to the cost model's
#: stages.  FP interpolation is priced as ``sample`` work
#: (``interp_exact`` / ``interp_morton``), so it is counted there too.
STAGE_SPANS = {
    "sample": ("sampling.fps", "sampling.fps_fast", "core.morton_sample",
               "core.morton_upsample") + _FP,
    "neighbor": ("neighbors.ball_query", "neighbors.ball_query_grid",
                 "neighbors.knn", "core.morton_window", "core.reuse"),
    "grouping": ("nn.group",) + tuple(
        name for name in NETWORK_LAYERS if name not in _FP
    ),
    "feature": ("nn.mlp", "nn.pool", "nn.model"),
}
#: Per-forward self-time sums reported as ``<metric>``.
SELF_METRICS = {
    "nn.mlp_ms": ("nn.mlp",),
    "nn.pool_ms": ("nn.pool",),
    "nn.fp_interp_ms": _FP,
    "nn.group_ms": ("nn.group",),
    "nn.head_ms": ("nn.model",),
    "neighbors.knn_ms": ("neighbors.knn",),
    "neighbors.ball_query_ms": ("neighbors.ball_query",),
    "neighbors.ball_query_grid_ms": ("neighbors.ball_query_grid",),
    "sampling.fps_ms": ("sampling.fps",),
    "sampling.fps_fast_ms": ("sampling.fps_fast",),
    "core.morton_sample_ms": ("core.morton_sample",),
    "core.morton_window_ms": ("core.morton_window",),
    "core.morton_upsample_ms": ("core.morton_upsample",),
    "robustness.validate_ms": ("robustness.validate",),
    "runtime.price_ms": ("runtime.price",),
}


class LayerTracer:
    """Installs span wrappers on the layer entry points, and removes them."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._saved: List[tuple] = []

    def _span(self, name, original, annotate=None):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            with tracer.span(label, label.split(".")[0]) as span:
                result = original(*args, **kwargs)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr)
            self._patch(module, attr, self._span(name, original,
                                                 _ANNOTATE.get(name)))
        for cls, attr, name in METHODS:
            self._patch(cls, attr, self._span(name, getattr(cls, attr)))
        cls = profiler.PipelineProfiler
        self._patch(cls, "breakdown", self._span(
            "runtime.price", cls.breakdown, _annotate_morton_charge
        ))
        self._patch(pipeline.EdgePCPipeline, "infer",
                    self._traced_infer(pipeline.EdgePCPipeline.infer))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _traced_infer(self, original):
        """``pipeline.infer`` span carrying the simulated breakdown and the
        workspace hit/miss deltas of the forward pass."""
        tracer = self.tracer

        @functools.wraps(original)
        def infer(pipe, xyz):
            workspace = pipe.model.workspace
            hits, misses = workspace.hits, workspace.misses
            with tracer.span("pipeline.infer", "pipeline") as span:
                result = original(pipe, xyz)
            span.set("workspace_hits", workspace.hits - hits)
            span.set("workspace_misses", workspace.misses - misses)
            breakdown = result.breakdown
            for stage, seconds in zip(STAGE_NAMES, (
                breakdown.sample_s, breakdown.neighbor_s,
                breakdown.grouping_s, breakdown.feature_s,
            )):
                span.set(f"sim_{stage}_s", seconds)
            return result

        return infer

    def records(self) -> List[Dict[str, object]]:
        return [span.to_dict() for span in self.tracer.finished()]


def _annotate_fps_fast(span, args, kwargs, result) -> None:
    stats = kwargs["stats"]
    span.set("scanned", stats.points_scanned)
    span.set("worst_case", stats.worst_case)


def _annotate_grid(span, args, kwargs, result) -> None:
    centers, points = args[0], args[1]
    span.set("scanned", kwargs["stats"].pairs_scanned)
    span.set("worst_case",
             centers.shape[0] * centers.shape[1] * points.shape[1])


def _annotate_morton_charge(span, args, kwargs, result) -> None:
    """Simulated seconds of the sample-stage Morton ops of the pass."""
    profiler_, recorder = args[0], args[1]
    cost = CostModel(profiler_.device)
    sample_s = sort_s = 0.0
    for event in recorder:
        if event.stage == STAGE_SAMPLE and event.op in MORTON_SAMPLE_OPS:
            seconds = cost.price(event)
            sample_s += seconds
            if event.op == "morton_sort":
                sort_s += seconds
    span.set("sim_morton_sample_s", sample_s)
    span.set("sim_morton_sort_s", sort_s)


_ANNOTATE = {
    "sampling.fps_fast": _annotate_fps_fast,
    "neighbors.ball_query_grid": _annotate_grid,
}


# Metrics ---------------------------------------------------------------


def self_times(records: Sequence[Mapping]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover (s)."""
    covered: Dict[int, float] = defaultdict(float)
    for row in records:
        if row["parent"] is not None:
            covered[row["parent"]] += row["duration_s"]
    return {
        row["id"]: row["duration_s"] - covered[row["id"]]
        for row in records
    }


def forward_profiles(records: Sequence[Mapping]) -> List[Dict]:
    """One profile per ``pipeline.infer`` span: per span name its summed
    self time, inclusive time and call count over the forward's subtree,
    plus the attributes the wrappers recorded."""
    own = self_times(records)
    children: Dict[int, List[Mapping]] = defaultdict(list)
    for row in records:
        children[row["parent"]].append(row)
    profiles = []
    for root in records:
        if root["name"] != "pipeline.infer":
            continue
        self_s: Dict[str, float] = defaultdict(float)
        total_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        attrs: Dict[str, float] = defaultdict(float)
        stack = [root]
        while stack:
            row = stack.pop()
            name = row["name"]
            self_s[name] += own[row["id"]]
            total_s[name] += row["duration_s"]
            calls[name] += 1
            for key, value in row["attrs"].items():
                attrs[f"{name}:{key}"] += value
            stack.extend(children[row["id"]])
        profiles.append(
            {"self": self_s, "total": total_s, "calls": calls,
             "attrs": attrs}
        )
    return profiles


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(records: Sequence[Mapping]) -> Dict[str, float]:
    """Per-layer metrics of a traced run (see ``README.md``).

    Times are per-forward medians in milliseconds; a layer that never
    ran on the workload reports 0.
    """
    profiles = forward_profiles(records)
    out: Dict[str, float] = {}

    def per_forward(value: Callable[[Dict], float]) -> float:
        return _median([value(p) for p in profiles])

    for name in NETWORK_LAYERS:
        out[f"{name}_ms"] = per_forward(
            lambda p, n=name: p["total"].get(n, 0.0) * 1e3
        )
    for metric, names in SELF_METRICS.items():
        out[metric] = per_forward(
            lambda p, ns=names: sum(p["self"].get(n, 0.0) for n in ns) * 1e3
        )
    out["pipeline.infer_ms"] = per_forward(
        lambda p: p["total"]["pipeline.infer"] * 1e3
    )
    out["core.reuse_hits"] = per_forward(
        lambda p: float(p["calls"].get("core.reuse", 0))
    )

    def summed(key: str) -> float:
        return sum(p["attrs"].get(key, 0.0) for p in profiles)

    out["sampling.fps_fast_scan_ratio"] = _ratio(
        summed("sampling.fps_fast:scanned"),
        summed("sampling.fps_fast:worst_case"),
    )
    out["neighbors.grid_scan_ratio"] = _ratio(
        summed("neighbors.ball_query_grid:scanned"),
        summed("neighbors.ball_query_grid:worst_case"),
    )
    hits = summed("pipeline.infer:workspace_hits")
    out["core.workspace_hit_ratio"] = _ratio(
        hits, hits + summed("pipeline.infer:workspace_misses")
    )
    out["core.morton_sample_sim_ms"] = per_forward(
        lambda p: p["attrs"].get("runtime.price:sim_morton_sample_s", 0.0)
        * 1e3
    )
    out["core.morton_sort_sim_ms"] = per_forward(
        lambda p: p["attrs"].get("runtime.price:sim_morton_sort_s", 0.0)
        * 1e3
    )

    host_totals = {}
    sim_totals = {}
    for stage in STAGE_NAMES:
        spans = STAGE_SPANS[stage]
        host = [sum(p["self"].get(n, 0.0) for n in spans) for p in profiles]
        sim = [p["attrs"].get(f"pipeline.infer:sim_{stage}_s", 0.0)
               for p in profiles]
        out[f"stage.{stage}_ms"] = _median(host) * 1e3
        out[f"stage.{stage}_sim_ms"] = _median(sim) * 1e3
        host_totals[stage] = sum(host)
        sim_totals[stage] = sum(sim)
    host_all = sum(host_totals.values())
    sim_all = sum(sim_totals.values())
    for stage in STAGE_NAMES:
        out[f"stage.{stage}_drift"] = _ratio(
            _ratio(host_totals[stage], host_all),
            _ratio(sim_totals[stage], sim_all),
        )
    return out


def dispatch_durations(records: Sequence[Mapping]) -> List[float]:
    """Durations (s) of the ``serving.dispatch`` spans."""
    return [
        row["duration_s"] for row in records
        if row["name"] == "serving.dispatch"
    ]
