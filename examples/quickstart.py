"""Quickstart: structurize a point cloud and use the two EdgePC
approximations directly.

Runs in a few seconds.  Demonstrates the core public API:

1. :func:`repro.structurize_batch` — Morton-order a batch of clouds
   (here one cloud, the ``B=1`` batch ``cloud[None]``);
2. :class:`repro.MortonSampler` — approximate farthest point sampling
   with a uniform stride over the Morton order;
3. :class:`repro.MortonNeighborSearch` — approximate kNN with an index
   window, at a user-chosen accuracy/latency trade-off.
"""

import numpy as np

from repro import MortonNeighborSearch, MortonSampler, structurize_batch
from repro.core.morton import code_memory_bytes
from repro.datasets import bunny_like
from repro.neighbors import false_neighbor_ratio, knn
from repro.sampling import coverage_radius, farthest_point_sample


def main() -> None:
    cloud = bunny_like(8000, seed=0).xyz
    print(f"Loaded a bunny-like cloud with {len(cloud)} points")

    # 1. Structurize: sort the points along the Z-order curve.
    batch = cloud[None]
    order = structurize_batch(batch, code_bits=32)
    codes_kib = code_memory_bytes(len(order), order.code_bits) / 1024
    print(
        f"Morton order built: {codes_kib:.0f} "
        "KiB of codes, consecutive ranks are spatial neighbors"
    )

    # 2. Sample 512 points two ways and compare coverage.
    morton_idx = MortonSampler().sample_batch(batch, 512, order).indices[0]
    fps_idx = farthest_point_sample(cloud, 512, start_index=0)
    print(
        "coverage radius: "
        f"Morton {coverage_radius(cloud, morton_idx):.4f} vs "
        f"FPS {coverage_radius(cloud, fps_idx):.4f} "
        "(lower is better; FPS is the expensive exact baseline)"
    )

    # 3. Neighbor search: exact kNN vs index windows of growing size.
    queries = np.arange(0, len(cloud), 16)
    exact = knn(cloud[queries], cloud, 16)
    print("\nwindow size vs false neighbor ratio (k = 16):")
    for multiplier in (1, 2, 4, 8):
        searcher = MortonNeighborSearch(16, 16 * multiplier)
        approx = searcher.search_batch(batch, queries, order)[0]
        fnr = false_neighbor_ratio(approx, exact)
        print(
            f"  W = {multiplier:>2}k: FNR {fnr * 100:5.1f}%  "
            f"({searcher.operation_count(len(queries)):,} distance ops "
            f"vs {len(queries) * len(cloud):,} for brute force)"
        )


if __name__ == "__main__":
    main()
