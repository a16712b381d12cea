"""The per-operation cost model: StageEvent -> simulated seconds.

Every event recorded by the models (:mod:`repro.nn.recorder`) is priced
here against a :class:`~repro.runtime.device.DeviceSpec`.  All prices
scale linearly with the batch size (batch elements are independent work
of the same shape), so speedups are batch-invariant; the paper's small
W1-vs-W2 asymmetry (Sec. 6.2, a batch-size effect of their CUDA
scheduler) is outside this model and noted in EXPERIMENTS.md.

Event count conventions: all size fields (``n_points``, ``n_queries``,
...) are *per batch element* with the batch size in ``batch``, except
``matmul`` whose ``rows``/``flops`` are whole-batch totals.

The ops fall into two families, mirroring the paper's Sec. 5:

- **exact ops** — ``fps`` (serial pick chain with per-step overhead),
  ``ball_query`` / ``knn`` (all-pairs distance scans, priced
  proportionally to the distance dimensionality), ``interp_exact``
  (full search over the sampled set), and their large-N engines
  ``fps_fast`` and the :data:`~repro.nn.plan.GRID_OPS` (only the scans
  they performed, plus the cell-list build);
- **approximate ops** — ``morton_gen`` (linear), ``morton_sort``
  (``N log N``, latency-bound on small arrays), ``uniform_pick`` /
  ``reuse`` (pure gathers), ``morton_window`` (``Q x W`` distance
  evaluations), ``interp_morton`` (4 candidate anchors per point,
  gather-latency dominated).
"""

from __future__ import annotations

import math
from typing import Dict

from repro.core.sampler import NUM_CANDIDATES
from repro.nn.plan import GRID_OPS
from repro.nn.recorder import StageEvent
from repro.runtime.device import DeviceSpec

#: The SOTA kernels EdgePC replaces.  ``fps_fast`` and the grid ops
#: are the same exact search behind pruning / cell-list dispatch, so
#: they belong to the exact family too.
EXACT_OPS = frozenset(
    {"fps", "fps_fast", "ball_query", "knn", "interp_exact"}
) | GRID_OPS

#: EdgePC's approximate kernels.
APPROX_OPS = frozenset(
    {
        "morton_gen",
        "morton_sort",
        "uniform_pick",
        "morton_window",
        "interp_morton",
        "reuse",
    }
)


class CostModel:
    """Prices stage events on a device."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    # Individual op prices (seconds, per whole event) --------------------

    def _price_fps(self, c: Dict[str, float]) -> float:
        per_element = c["n_samples"] * (
            self.device.fps_step_overhead_s
            + c["n_points"] / self.device.fps_distance_rate
        )
        return c.get("batch", 1) * per_element

    def _price_fps_fast(self, c: Dict[str, float]) -> float:
        # Same serial pick chain as brute FPS, but only the distance
        # evaluations the pruning bound could not skip are paid.
        per_element = (
            c["n_samples"] * self.device.fps_step_overhead_s
            + c["points_scanned"] / self.device.fps_distance_rate
        )
        return c.get("batch", 1) * per_element

    def _price_grid_query(self, c: Dict[str, float]) -> float:
        # Cell-list build (a stable sort over small linearized cell
        # keys — far cheaper per key than the 60-bit Morton comparison
        # sort that ``sort_rate`` models) plus only the pairs the
        # expanding-ring probe actually scored.
        n = c["n_candidates"]
        build = (
            n * max(1.0, math.log2(max(n, 2))) / self.device.morton_rate
        )
        scan = c["pairs_scanned"] / self.device.brute_distance_rate
        return c.get("batch", 1) * (build + scan)

    def _price_pairwise(self, c: Dict[str, float]) -> float:
        dim_factor = max(1.0, c.get("dim", 3) / 3.0)
        work = c["n_queries"] * c["n_candidates"] * dim_factor
        return c.get("batch", 1) * work / self.device.brute_distance_rate

    def _price_interp_exact(self, c: Dict[str, float]) -> float:
        work = c["n_points"] * c["n_samples"]
        return c.get("batch", 1) * work / self.device.brute_distance_rate

    def _price_morton_gen(self, c: Dict[str, float]) -> float:
        return (
            c.get("batch", 1) * c["n_points"] / self.device.morton_rate
        )

    def _price_morton_sort(self, c: Dict[str, float]) -> float:
        n = c["n_points"]
        work = n * max(1.0, math.log2(max(n, 2)))
        per_element = max(
            self.device.sort_latency_floor_s,
            work / self.device.sort_rate,
        )
        return c.get("batch", 1) * per_element

    def _price_uniform_pick(self, c: Dict[str, float]) -> float:
        return (
            c.get("batch", 1) * c["n_samples"] / self.device.gather_rate
        )

    def _price_morton_window(self, c: Dict[str, float]) -> float:
        work = c["n_queries"] * c["window"]
        return c.get("batch", 1) * work / self.device.brute_distance_rate

    def _price_interp_morton(self, c: Dict[str, float]) -> float:
        # NUM_CANDIDATES candidate anchors per point (Sec. 5.1.2), each
        # costing a gather-latency equivalent rather than one distance
        # evaluation.
        work = (
            c["n_points"] * NUM_CANDIDATES
            * self.device.interp_candidate_cost
        )
        return c.get("batch", 1) * work / self.device.brute_distance_rate

    def _price_reuse(self, c: Dict[str, float]) -> float:
        work = c["n_queries"] * c["k"]
        return c.get("batch", 1) * work / self.device.gather_rate

    def _price_gather(self, c: Dict[str, float]) -> float:
        work = c["n_groups"] * c["k"] * c["channels"]
        rate = self.device.gather_rate
        if c.get("sorted"):
            rate *= self.device.sorted_gather_speedup
        return c.get("batch", 1) * work / rate

    def _price_matmul(
        self,
        c: Dict[str, float],
        use_tensor_cores: bool,
        merge_factor: float = 1.0,
    ) -> float:
        # Channel merging (Sec. 5.4.1) multiplies the effective input
        # channel width at equal FLOPs; grouped (per-neighborhood)
        # convs and pointwise convs benefit alike.
        return self.device.matmul_time(
            c["flops"], c.get("c_in", 0) * merge_factor,
            use_tensor_cores,
        )

    # Dispatch ------------------------------------------------------------

    def price(
        self,
        event: StageEvent,
        use_tensor_cores: bool = False,
        merge_factor: float = 1.0,
    ) -> float:
        """Simulated seconds for one event."""
        c = event.counts
        op = event.op
        if op == "fps":
            return self._price_fps(c)
        if op == "fps_fast":
            return self._price_fps_fast(c)
        if op in ("ball_query", "knn"):
            return self._price_pairwise(c)
        if op in GRID_OPS:
            return self._price_grid_query(c)
        if op == "interp_exact":
            return self._price_interp_exact(c)
        if op == "morton_gen":
            return self._price_morton_gen(c)
        if op == "morton_sort":
            return self._price_morton_sort(c)
        if op == "uniform_pick":
            return self._price_uniform_pick(c)
        if op == "morton_window":
            return self._price_morton_window(c)
        if op == "interp_morton":
            return self._price_interp_morton(c)
        if op == "reuse":
            return self._price_reuse(c)
        if op == "gather":
            return self._price_gather(c)
        if op == "matmul":
            return self._price_matmul(c, use_tensor_cores, merge_factor)
        raise ValueError(f"cost model has no price for op {op!r}")
