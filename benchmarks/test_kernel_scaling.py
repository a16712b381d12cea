"""Wall-clock scaling of the real NumPy kernels.

The simulated device regenerates the paper's numbers; this module
confirms the underlying *complexity shapes* on real hardware (the host
CPU): FPS grows ~quadratically when n scales with N, the Morton
pipeline grows ~N log N, brute kNN grows ~quadratically, and the
window search grows ~linearly.  pytest-benchmark measures the anchor
sizes; the scaling assertions use one-shot timings.
"""

import time

import numpy as np
from conftest import print_header

from repro.core import (
    MortonNeighborSearch,
    MortonSampler,
    structurize_batch,
)
from repro.neighbors import knn
from repro.sampling import farthest_point_sample

SIZES = (1000, 2000, 4000, 8000)


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _batches():
    """One random cloud per size, as a ``B=1`` batch."""
    rng = np.random.default_rng(7)
    return {n: rng.random((n, 3))[None] for n in SIZES}


def test_scaling_fps_vs_morton(benchmark):
    batches = _batches()
    sampler = MortonSampler()
    benchmark(lambda: sampler.sample_batch(batches[4000], 500))

    fps_times = {
        n: _time(
            lambda c=batches[n][0], m=n // 8: farthest_point_sample(
                c, m, start_index=0
            )
        )
        for n in SIZES
    }
    morton_times = {
        n: _time(
            lambda c=batches[n], m=n // 8: sampler.sample_batch(c, m)
        )
        for n in SIZES
    }

    print_header("Wall-clock scaling: FPS vs Morton sampler (n = N/8)")
    print(f"{'N':>7}{'FPS':>12}{'Morton':>12}{'ratio':>8}")
    for n in SIZES:
        print(
            f"{n:>7}{fps_times[n] * 1e3:>10.2f}ms"
            f"{morton_times[n] * 1e3:>10.2f}ms"
            f"{fps_times[n] / morton_times[n]:>7.1f}x"
        )

    # FPS cost grows ~quadratically (8x points -> ~64x work), Morton
    # ~linearithmically; allow broad bands for timer noise.
    fps_growth = fps_times[8000] / fps_times[1000]
    morton_growth = morton_times[8000] / morton_times[1000]
    assert fps_growth > 15
    assert morton_growth < fps_growth
    # At the largest size the Morton sampler wins by a wide margin.
    assert morton_times[8000] * 3 < fps_times[8000]


def test_scaling_knn_vs_window(benchmark):
    batches = _batches()
    searcher = MortonNeighborSearch(16, 32)
    orders = {n: structurize_batch(b) for n, b in batches.items()}
    benchmark(
        lambda: searcher.search_batch(batches[4000], order=orders[4000])
    )

    knn_times = {
        n: _time(lambda c=batches[n][0]: knn(c, c, 16)) for n in SIZES
    }
    window_times = {
        n: _time(
            lambda b=batches[n], o=orders[n]: searcher.search_batch(
                b, order=o
            )
        )
        for n in SIZES
    }

    print_header(
        "Wall-clock scaling: brute kNN vs Morton window (k=16, W=32)"
    )
    print(f"{'N':>7}{'kNN':>12}{'window':>12}{'ratio':>8}")
    for n in SIZES:
        print(
            f"{n:>7}{knn_times[n] * 1e3:>10.2f}ms"
            f"{window_times[n] * 1e3:>10.2f}ms"
            f"{knn_times[n] / window_times[n]:>7.1f}x"
        )

    knn_growth = knn_times[8000] / knn_times[1000]
    window_growth = window_times[8000] / window_times[1000]
    # Quadratic vs linear growth between 1k and 8k points.
    assert knn_growth > 20
    assert window_growth < knn_growth / 2
    assert window_times[8000] * 3 < knn_times[8000]
