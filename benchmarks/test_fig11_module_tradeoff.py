"""Fig. 11: neighbor-search speedup vs false-neighbor ratio per
PointNet++ module.

Paper result: module 1 (the first SA level, operating on the densest
cloud) shows both the largest speedup from the Morton window search
and the lowest false neighbor ratio — making it the right (and only)
module to approximate.
"""

import numpy as np
from conftest import print_header

from repro.core import (
    EdgePCConfig,
    MortonNeighborSearch,
    structurize_batch,
)
from repro.datasets import ScanNetLike
from repro.neighbors import (
    false_neighbor_ratio,
    knn,
    pairwise_operation_count,
)
from repro.sampling import farthest_point_sample

K = 16
LEVELS = (2048, 512, 128, 32)  # per-module input sizes (scaled W2)


def test_fig11_per_module_tradeoff(benchmark, rng):
    cloud = ScanNetLike(num_clouds=1, points_per_cloud=2048, seed=0)[
        0
    ].xyz
    config = EdgePCConfig.paper_default()

    # Build the SA hierarchy the exact pipeline would see.
    level_points = [cloud]
    for size in LEVELS[1:]:
        idx = farthest_point_sample(
            level_points[-1], size, start_index=0
        )
        level_points.append(level_points[-1][idx])

    rows = []
    for module, points in enumerate(level_points):
        n = len(points)
        queries = np.arange(min(n, 256))
        order = structurize_batch(points[None])
        window = min(n, config.window_for(K))
        searcher = MortonNeighborSearch(K, window)
        approx = searcher.search_batch(points[None], queries, order)[0]
        exact = knn(points[queries], points, K)
        fnr = false_neighbor_ratio(approx, exact)
        speedup = pairwise_operation_count(
            len(queries), n
        ) / searcher.operation_count(len(queries))
        rows.append((module, n, speedup, fnr))

    big = level_points[0][None]
    big_order = structurize_batch(big)
    benchmark(
        lambda: MortonNeighborSearch(
            K, config.window_for(K)
        ).search_batch(big, np.arange(256), big_order)
    )

    print_header(
        "Fig. 11: per-module NS speedup vs false neighbor ratio "
        "(PointNet++ levels)"
    )
    print(f"{'Module':<8}{'points':>8}{'speedup':>10}{'FNR':>8}")
    for module, n, speedup, fnr in rows:
        print(
            f"layer{module + 1:<3}{n:>8}{speedup:>9.1f}x"
            f"{fnr * 100:>7.1f}%"
        )

    speedups = [r[2] for r in rows]
    fnrs = [r[3] for r in rows]
    # Shape: layer 1 has by far the largest speedup — the property
    # that makes it the (only) module worth approximating.  Its FNR is
    # in the usable band.  (The paper additionally reports layer 1
    # having the *lowest* FNR; on our synthetic clouds the FNR is
    # roughly flat across modules — see EXPERIMENTS.md.)
    assert speedups[0] == max(speedups)
    assert speedups[-1] < speedups[0] / 4
    assert fnrs[0] < 0.6
