"""Paired gate for the exact FP interpolation kernel.

``exact_interpolation_weights_batch`` keeps each fine point's 3 nearest
samples by first-occurrence ``argmin`` rounds over row blocks of
squared distances.  It replaced a stable ``argsort`` over the whole
``(B, N, n)`` distance matrix (the reference PointNet++ pattern), which
is kept below as the oracle.  At FP level 0 of the exact PointNet++
pipeline (B=1, N=8192, n=2048) this test asserts both return the same
bytes and that the kernel is at least 5× faster, timed in one process
on one input, so the gate holds on any runner.
"""

import time

import numpy as np
from conftest import print_header

from repro.core.sampler import exact_interpolation_weights_batch

NUM_POINTS = 8192
NUM_SAMPLES = 2048
MIN_RATIO = 5.0


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
