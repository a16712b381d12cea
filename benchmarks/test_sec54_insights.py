"""Sec. 5.4: the shifted-bottleneck architectural insights.

(5.4.1) Tensor-core channel merging: a conv with 12 input channels
runs entirely on CUDA cores (paper: 40.4 ms, 0% utilization);
reshaping t = 10 neighboring positions into the channel dimension
keeps FLOPs constant, reaches ~40% utilization, and roughly halves the
latency (paper: 18.3 ms).  The merge/split approximation error stays
small on Morton-ordered (spatially smooth) features.

(5.4.2) Grouping traffic: sorting each row of the gather-index matrix
cuts reads from L2 (paper: -53.9%) and from DRAM (paper: -25.7%).
"""

import numpy as np
from conftest import print_header

from repro.analysis import (
    compare_sorted_gather,
    duplicate_read_fraction,
    merge_analysis,
    merge_split_error,
)
from repro.core import structurize_batch
from repro.datasets import ScanNetLike
from repro.runtime import xavier


def test_sec541_tensor_core_merge(benchmark):
    device = xavier()
    rows = 32 * 1000 * 32  # the paper's 32 x 1000 x 12 x 32 conv
    points = benchmark(
        lambda: merge_analysis(
            device, rows=rows, in_channels=12, out_channels=64,
            merge_factors=(1, 2, 4, 10, 20),
        )
    )

    print_header(
        "Sec. 5.4.1: tensor-core utilization vs channel merge factor"
    )
    print(f"{'t':>4}{'channels':>10}{'util':>8}{'latency':>12}")
    for p in points:
        print(
            f"{p.merge_factor:>4}{p.effective_channels:>10}"
            f"{p.utilization * 100:>7.1f}%"
            f"{p.latency_s * 1e3:>10.2f}ms"
        )

    by_factor = {p.merge_factor: p for p in points}
    # t=1: channel dim below the dispatch threshold -> 0% utilization.
    assert by_factor[1].utilization == 0.0
    # t=10: the paper's ~40% utilization and ~2.2x latency cut.
    assert by_factor[10].utilization == np.round(
        by_factor[10].utilization, 10
    )
    assert 0.3 < by_factor[10].utilization < 0.5
    ratio = by_factor[1].latency_s / by_factor[10].latency_s
    print(f"\nmerge t=10 speedup {ratio:.2f}x (paper 40.4/18.3 = 2.2x)")
    assert 1.8 < ratio < 2.8
    # Utilization (and speed) grows monotonically with the merge.
    utils = [p.utilization for p in points]
    assert utils == sorted(utils)

    # Approximation quality: merging Morton-adjacent points hurts
    # little because they are spatial neighbors with similar features.
    cloud = ScanNetLike(num_clouds=1, points_per_cloud=1024, seed=0)[
        0
    ].xyz
    order = structurize_batch(cloud[None])
    smooth_features = order.sorted_points(cloud[None])[0]  # xyz features
    weight = np.random.default_rng(0).normal(size=(3, 8))
    sorted_err = merge_split_error(smooth_features, weight, 4)
    shuffled = smooth_features[
        np.random.default_rng(1).permutation(1024)
    ]
    shuffled_err = merge_split_error(shuffled, weight, 4)
    print(
        f"merge/split rel. error: Morton-ordered {sorted_err:.3f} vs "
        f"shuffled {shuffled_err:.3f}"
    )
    assert sorted_err < 0.2
    assert sorted_err < shuffled_err / 2


def test_sec542_grouping_traffic(benchmark, rng):
    # A grouping index matrix as the baseline pipeline produces it:
    # ball-query neighbors of a *raw* (unordered) cloud scatter
    # uniformly over the point index range.
    index_matrix = rng.integers(0, 2048, size=(2048, 64))

    result = benchmark.pedantic(
        lambda: compare_sorted_gather(index_matrix),
        rounds=1, iterations=1,
    )

    print_header(
        "Sec. 5.4.2: grouping-stage traffic with row-sorted indexes"
    )
    print(
        f"L2 reads:   {result.unsorted.l2_reads:,} -> "
        f"{result.sorted.l2_reads:,}  "
        f"(-{result.l2_reduction * 100:.1f}%, paper -53.9%)"
    )
    print(
        f"DRAM reads: {result.unsorted.dram_reads:,} -> "
        f"{result.sorted.dram_reads:,}  "
        f"(-{result.dram_reduction * 100:.1f}%, paper -25.7%)"
    )
    dup = duplicate_read_fraction(index_matrix)
    print(f"duplicate gather fraction (nk > N): {dup * 100:.1f}%")

    # Shapes: both traffic classes drop materially; the sharing
    # opportunity exists because nk >> N.
    assert result.l2_reduction > 0.2
    assert result.dram_reduction > 0.2
    assert dup > 0.5
