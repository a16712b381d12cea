"""Paired gate for the exact FP interpolation kernel.

``exact_interpolation_weights_batch`` keeps each fine point's 3 nearest
samples by first-occurrence ``argmin`` rounds over row blocks of
squared distances.  It replaced a stable ``argsort`` over the whole
``(B, N, n)`` distance matrix (the reference PointNet++ pattern), which
is kept below as the oracle.  At FP level 0 of the exact PointNet++
pipeline (B=1, N=8192, n=2048) this test asserts both return the same
bytes and that the kernel is at least 5× faster, timed in one process
on one input, so the gate holds on any runner.

At and above ``exact_fast_threshold`` the pipeline runs the grid engine
``exact_interpolation_weights_grid_batch`` instead.  On the same shape,
over a ScanNet-like scan with FPS samples (what FP level 0 of the exact
pipeline interpolates from), the second test asserts its tolerance
contract with the dense kernel and that it is at least 2.5x faster.
"""

import time

import numpy as np
from conftest import print_header

from repro.core.sampler import (
    exact_interpolation_weights_batch,
    exact_interpolation_weights_grid_batch,
)
from repro.datasets import ScanNetLike
from repro.sampling.fps import farthest_point_sample_fast_batch

NUM_POINTS = 8192
NUM_SAMPLES = 2048
MIN_RATIO = 5.0
MIN_GRID_RATIO = 2.5


def _stable_sort_weights(points, sampled_indices):
    points = np.asarray(points, dtype=np.float64)
    sampled_xyz = np.take_along_axis(
        points, sampled_indices[:, :, None], axis=1
    )
    d2 = (
        np.sum(points**2, axis=2)[:, :, None]
        - 2.0 * points @ sampled_xyz.transpose(0, 2, 1)
        + np.sum(sampled_xyz**2, axis=2)[:, None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    k = min(3, sampled_xyz.shape[1])
    pick = np.argsort(d2, axis=2, kind="stable")[:, :, :k]
    inv = 1.0 / np.maximum(np.take_along_axis(d2, pick, axis=2), 1e-10)
    weights = inv / inv.sum(axis=2, keepdims=True)
    return pick, weights


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_exact_interp_vs_stable_sort(benchmark):
    rng = np.random.default_rng(2023)
    points = rng.normal(size=(1, NUM_POINTS, 3))
    sampled = rng.permutation(NUM_POINTS)[:NUM_SAMPLES][None]

    anchors, weights = benchmark(
        exact_interpolation_weights_batch, points, sampled
    )
    want_anchors, want_weights = _stable_sort_weights(points, sampled)
    assert np.array_equal(anchors, want_anchors)
    assert np.array_equal(weights, want_weights)

    # Interleaved pairs; the best of each side is compared.
    fast, slow = [], []
    for _ in range(3):
        fast.append(
            _seconds(
                lambda: exact_interpolation_weights_batch(points, sampled)
            )
        )
        slow.append(_seconds(lambda: _stable_sort_weights(points, sampled)))
    ratio = min(slow) / min(fast)

    print_header(
        f"Exact FP interpolation, B=1 N={NUM_POINTS} n={NUM_SAMPLES}"
    )
    print(f"{'argmin rounds':<16}{min(fast) * 1e3:>10.1f} ms")
    print(f"{'stable argsort':<16}{min(slow) * 1e3:>10.1f} ms")
    print(f"{'ratio':<16}{ratio:>10.1f}x")
    assert ratio >= MIN_RATIO, f"only {ratio:.1f}x over the stable sort"


def test_grid_interp_vs_dense():
    points = ScanNetLike(1, points_per_cloud=NUM_POINTS, seed=2023)[0].xyz
    points = points[None]
    sampled = farthest_point_sample_fast_batch(
        points, NUM_SAMPLES, start_index=0
    )

    anchors, weights = exact_interpolation_weights_grid_batch(
        points, sampled
    )
    dense_anchors, dense_weights = exact_interpolation_weights_batch(
        points, sampled
    )
    assert np.array_equal(anchors, dense_anchors)
    assert np.abs(weights - dense_weights).max() <= 1e-10

    grid, dense = [], []
    for _ in range(5):
        grid.append(
            _seconds(
                lambda: exact_interpolation_weights_grid_batch(
                    points, sampled
                )
            )
        )
        dense.append(
            _seconds(
                lambda: exact_interpolation_weights_batch(points, sampled)
            )
        )
    ratio = min(dense) / min(grid)

    print_header(
        f"Exact FP interpolation engines, ScanNet-like B=1 "
        f"N={NUM_POINTS} n={NUM_SAMPLES} (FPS)"
    )
    print(f"{'grid (27-cell)':<16}{min(grid) * 1e3:>10.1f} ms")
    print(f"{'dense':<16}{min(dense) * 1e3:>10.1f} ms")
    print(f"{'ratio':<16}{ratio:>10.1f}x")
    assert ratio >= MIN_GRID_RATIO, f"only {ratio:.1f}x over the dense kernel"
