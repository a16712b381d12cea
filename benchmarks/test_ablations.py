"""Ablation studies for EdgePC's design choices.

Not figures from the paper — these probe the *why* behind its design
points with the same machinery:

1. window re-ranking (W > k) vs pure index pick (W = k): what the
   extra distance computations buy;
2. DGCNN reuse distance 0/1/2/3: latency vs the accuracy proxy
   (neighbor staleness);
3. sorted grouping on/off (Sec. 5.4.2 as a config knob);
4. the Morton-vs-FPS crossover: below which cloud size the sort
   launch latency makes the approximation a net loss.
"""

import numpy as np
from conftest import print_header

from repro.core import (
    EdgePCConfig,
    MortonNeighborSearch,
    structurize_batch,
)
from repro.datasets import ScanNetLike
from repro.neighbors import false_neighbor_ratio, knn
from repro.nn.recorder import STAGE_SAMPLE, StageEvent
from repro.runtime import CostModel, PipelineProfiler, compare, xavier
from repro.workloads import standard_workloads, trace


def test_ablation_window_rerank(benchmark, rng):
    """W = k (no re-rank) vs W = 2k (re-rank k best of 2k)."""
    cloud = ScanNetLike(num_clouds=1, points_per_cloud=2048, seed=0)[
        0
    ].xyz
    batch = cloud[None]
    order = structurize_batch(batch)
    queries = rng.choice(2048, 512, replace=False)
    exact = knn(cloud[queries], cloud, 16)

    pure = MortonNeighborSearch(16, 16)
    rerank = MortonNeighborSearch(16, 32)
    approx_pure = pure.search_batch(batch, queries, order)[0]
    approx_rerank = benchmark(
        lambda: rerank.search_batch(batch, queries, order)[0]
    )

    fnr_pure = false_neighbor_ratio(approx_pure, exact)
    fnr_rerank = false_neighbor_ratio(approx_rerank, exact)
    ops_pure = pure.operation_count(512)
    ops_rerank = rerank.operation_count(512)

    print_header("Ablation: window re-ranking (k = 16)")
    print(
        f"W = k : FNR {fnr_pure * 100:5.1f}%  ({ops_pure:,} ops)\n"
        f"W = 2k: FNR {fnr_rerank * 100:5.1f}%  ({ops_rerank:,} ops)"
    )
    # Doubling the ops must buy a real FNR reduction.
    assert fnr_rerank < fnr_pure - 0.05
    assert ops_rerank == 2 * ops_pure


def test_ablation_reuse_distance(benchmark, profiler, baseline_config):
    """Reuse distance sweep on W6: latency falls, staleness rises."""
    spec = standard_workloads()["W6"]
    base = trace(spec, baseline_config)
    rows = []
    for distance in (0, 1, 2, 3):
        config = EdgePCConfig(reuse_distance=distance)
        report = compare(
            profiler, base, baseline_config,
            trace(spec, config), config,
        )
        reuse_events = sum(
            1 for e in trace(spec, config) if e.op == "reuse"
        )
        rows.append(
            (distance, report.sample_neighbor_speedup, reuse_events)
        )
    benchmark(lambda: trace(spec, EdgePCConfig(reuse_distance=1)))

    print_header("Ablation: DGCNN neighbor-reuse distance (W6)")
    print(f"{'distance':>9}{'S+N speedup':>13}{'modules reused':>16}")
    for distance, speedup, reused in rows:
        print(f"{distance:>9}{speedup:>12.2f}x{reused:>16}")

    speedups = {r[0]: r[1] for r in rows}
    reused = {r[0]: r[2] for r in rows}
    # Distance 0 never reuses; any reuse beats it.
    assert reused[0] == 0
    assert all(speedups[d] > speedups[0] for d in (1, 2, 3))
    # Reusing everything (distance 3) is the latency optimum.
    assert speedups[3] == max(speedups.values())
    # The schedule's *parity* matters, not just the count: distance 1
    # leaves the cheap EC3 computing while distance 2 leaves the
    # twice-as-wide EC4 computing — so distance 1 (the paper's pick)
    # is faster despite reusing the same number of modules.
    assert reused[1] == reused[2]
    assert speedups[1] > speedups[2]


def test_ablation_sorted_grouping(benchmark, profiler):
    """Sec. 5.4.2 as a config knob: grouping-stage latency."""
    spec = standard_workloads()["W1"]
    plain_cfg = EdgePCConfig.paper_default()
    sorted_cfg = EdgePCConfig(sorted_grouping=True)
    plain = profiler.breakdown(trace(spec, plain_cfg), plain_cfg)
    sorted_b = benchmark(
        lambda: profiler.breakdown(
            trace(spec, sorted_cfg), sorted_cfg
        )
    )

    print_header("Ablation: sorted grouping (W1)")
    print(
        f"grouping latency: {plain.grouping_s * 1e3:.2f} ms -> "
        f"{sorted_b.grouping_s * 1e3:.2f} ms "
        f"(-{(1 - sorted_b.grouping_s / plain.grouping_s) * 100:.0f}%)"
    )
    assert sorted_b.grouping_s < plain.grouping_s
    # Sampling/NS stages are untouched by the knob.
    assert sorted_b.sample_and_neighbor_s == (
        plain.sample_and_neighbor_s
    )


def test_ablation_morton_fps_crossover(benchmark):
    """Find the cloud size where the Morton pipeline starts beating
    FPS on the device — the 'profile your workload first' guidance of
    Sec. 6.3 made quantitative."""
    cost = CostModel(xavier())

    def device_times(n_points: int):
        n_samples = max(1, n_points // 8)
        fps = cost.price(
            StageEvent(
                STAGE_SAMPLE, "fps", 0,
                {"n_points": n_points, "n_samples": n_samples,
                 "batch": 1},
            )
        )
        morton = sum(
            cost.price(StageEvent(STAGE_SAMPLE, op, 0, counts))
            for op, counts in (
                ("morton_gen", {"n_points": n_points, "batch": 1}),
                ("morton_sort", {"n_points": n_points, "batch": 1}),
                ("uniform_pick",
                 {"n_samples": n_samples, "batch": 1}),
            )
        )
        return fps, morton

    sizes = (128, 256, 512, 1024, 2048, 4096, 8192, 16384)
    rows = benchmark(
        lambda: [(n,) + device_times(n) for n in sizes]
    )

    print_header(
        "Ablation: Morton-vs-FPS crossover (sample N -> N/8)"
    )
    print(f"{'N':>7}{'FPS':>10}{'Morton':>10}{'winner':>9}")
    crossover = None
    for n, fps, morton in rows:
        winner = "Morton" if morton < fps else "FPS"
        if winner == "Morton" and crossover is None:
            crossover = n
        print(
            f"{n:>7}{fps * 1e3:>9.2f}m{morton * 1e3:>9.2f}m"
            f"{winner:>9}"
        )

    # Shape: FPS wins on tiny clouds (sort launch floor), Morton wins
    # from some crossover onward, and the gap widens with N.
    assert crossover is not None
    assert 128 < crossover <= 4096
    _, fps_big, morton_big = rows[-1]
    _, fps_cross, morton_cross = [
        r for r in rows if r[0] == crossover
    ][0]
    assert fps_big / morton_big > fps_cross / morton_cross
    _, fps_small, morton_small = rows[0]
    assert morton_small > fps_small


def test_ablation_curve_choice(benchmark, rng):
    """Morton vs Hilbert structurization (the paper assumes Z-order;
    Sec. 4.1's requirements are low complexity + parallelism +
    accuracy).  Hilbert buys a little FNR at a real encoding cost —
    quantifying why Morton's bit-interleave is the right default."""
    import time

    from repro.core.hilbert import hilbert_structurize

    cloud = ScanNetLike(num_clouds=1, points_per_cloud=4096, seed=0)[
        0
    ].xyz
    k = 16
    queries = rng.choice(4096, 512, replace=False)
    exact = knn(cloud[queries], cloud, k)
    searcher = MortonNeighborSearch(k, 2 * k)

    batch = cloud[None]
    morton_order = benchmark(lambda: structurize_batch(batch))
    start = time.perf_counter()
    hilbert_order = hilbert_structurize(cloud)
    hilbert_s = time.perf_counter() - start
    start = time.perf_counter()
    structurize_batch(batch)
    morton_s = time.perf_counter() - start

    fnr_m = false_neighbor_ratio(
        searcher.search_batch(batch, queries, morton_order)[0], exact
    )
    fnr_h = false_neighbor_ratio(
        searcher.search_batch(batch, queries, hilbert_order)[0], exact
    )

    print_header("Ablation: space-filling curve choice (k=16, W=2k)")
    print(
        f"Morton : FNR {fnr_m * 100:5.1f}%  encode+sort "
        f"{morton_s * 1e3:7.2f} ms\n"
        f"Hilbert: FNR {fnr_h * 100:5.1f}%  encode+sort "
        f"{hilbert_s * 1e3:7.2f} ms "
        f"({hilbert_s / morton_s:.0f}x slower encoding)"
    )

    # Hilbert's locality is no worse, but its transform costs much
    # more than a bit-interleave — the trade the paper resolves in
    # Morton's favor.
    assert fnr_h <= fnr_m + 0.02
    assert hilbert_s > 2 * morton_s
