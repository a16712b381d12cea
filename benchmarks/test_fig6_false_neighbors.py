"""Fig. 6: false neighbor ratio of pure index selection (W = k).

Paper result: picking the k index-adjacent points of the Morton order
instead of running ball query / kNN yields a false neighbor ratio as
low as ~23% (dataset- and searcher-dependent), before any window
enlargement.
"""

import numpy as np
from conftest import print_header

from repro.core import MortonNeighborSearch, structurize_batch
from repro.datasets import (
    KITTILike,
    ModelNetLike,
    S3DISLike,
    ScanNetLike,
    ShapeNetPartLike,
)
from repro.neighbors import ball_query, false_neighbor_ratio, knn

K = 16
NUM_QUERIES = 512


def _dataset_clouds():
    return {
        "ModelNet40": ModelNetLike(
            num_clouds=1, points_per_cloud=1024, seed=0
        )[0].xyz,
        "ShapeNet": ShapeNetPartLike(
            num_clouds=1, points_per_cloud=2048, seed=0
        )[0].xyz,
        "S3DIS": S3DISLike(num_clouds=1, points_per_cloud=4096, seed=0)[
            0
        ].xyz,
        "ScanNet": ScanNetLike(
            num_clouds=1, points_per_cloud=4096, seed=0
        )[0].xyz,
        # Not in the paper's Fig. 6 — outdoor generalization check.
        "KITTI-like": KITTILike(
            num_clouds=1, points_per_cloud=4096, seed=0
        )[0].xyz,
    }


def test_fig6_false_neighbor_ratio(benchmark, rng):
    clouds = _dataset_clouds()
    searcher = MortonNeighborSearch(K)  # W = k: pure index pick

    results = {}
    for name, cloud in clouds.items():
        order = structurize_batch(cloud[None])
        queries = rng.choice(len(cloud), NUM_QUERIES, replace=False)
        approx = searcher.search_batch(cloud[None], queries, order)[0]
        exact_knn = knn(cloud[queries], cloud, K)
        # Radius sized so the ball holds about k points, which makes
        # the scan-order ball query comparable to kNN ground truth.
        kth = np.sort(
            np.linalg.norm(
                cloud[queries, None, :] - cloud[exact_knn], axis=2
            )[:, -1]
        )
        radius = float(np.median(kth)) * 1.2
        exact_bq = ball_query(cloud[queries], cloud, radius, K)
        results[name] = {
            "kNN": false_neighbor_ratio(approx, exact_knn),
            "ball query": false_neighbor_ratio(approx, exact_bq),
        }

    # Benchmark the approximate searcher on the largest cloud.
    big = clouds["ScanNet"]
    order = structurize_batch(big[None])
    benchmark(
        lambda: searcher.search_batch(big[None], np.arange(1024), order)
    )

    print_header(
        "Fig. 6: false neighbor ratio at W = k "
        "(paper: as low as ~23%)"
    )
    print(f"{'Dataset':<14}{'vs kNN':>10}{'vs ball query':>16}")
    for name, row in results.items():
        print(
            f"{name:<14}{row['kNN'] * 100:>9.1f}%"
            f"{row['ball query'] * 100:>15.1f}%"
        )

    all_fnr = [v for row in results.values() for v in row.values()]
    # Shape: the index pick recovers roughly half the true neighbors
    # everywhere (far from the ~94% FNR a random pick of k out of N
    # would give).  The paper's best case reaches 23%; our synthetic
    # clouds bottom out near 45% (see EXPERIMENTS.md).
    assert all(f < 0.70 for f in all_fnr), results
    assert min(all_fnr) < 0.55
    # Enlarging the window must cut FNR further (leads into Fig. 15a).
    wide = MortonNeighborSearch(K, 8 * K)
    cloud = clouds["ModelNet40"]
    order = structurize_batch(cloud[None])
    queries = np.arange(NUM_QUERIES)
    fnr_narrow = false_neighbor_ratio(
        searcher.search_batch(cloud[None], queries, order)[0],
        knn(cloud[queries], cloud, K),
    )
    fnr_wide = false_neighbor_ratio(
        wide.search_batch(cloud[None], queries, order)[0],
        knn(cloud[queries], cloud, K),
    )
    assert fnr_wide < fnr_narrow
