"""Paired gate for the large-N exact fast engines.

Above ``EdgePCConfig.exact_fast_threshold`` the exact pipeline (and the
guard's degrade-to-exact path) swaps the brute kernels for the pruning
FPS (``farthest_point_sample_fast_batch``, FlashFPS-style block bounds)
and the uniform-grid kNN / ball query.  On one unit-Gaussian cloud of
40960 points with ``N // 16`` FPS picks and stride queries (k=16,
radius 0.1) this test asserts that each engine returns the brute
kernel's indices bit for bit and is at least as much faster as its
floor, timed in one process on one input (best of 2 interleaved
pairs), so the gate holds on any runner.  Each floor is half the
speedup measured when the engines landed, rounded up: 5.11x FPS,
5.57x kNN, 36.4x ball query.
"""

import time

import numpy as np
import pytest
from conftest import print_header

from repro.core.workspace import Workspace
from repro.neighbors.batched import (
    ball_query_batch,
    ball_query_grid_batch,
    knn_batch,
    knn_grid_batch,
)
from repro.sampling.fps import (
    farthest_point_sample_batch,
    farthest_point_sample_fast_batch,
)
from repro.sampling.uniform import uniform_stride_indices

NUM_POINTS = 40960
K = 16
RADIUS = 0.1

#: op -> minimum brute/fast ratio.
MIN_RATIO = {
    "fps_fast": 2.555,
    "knn_grid": 2.787,
    "ball_query_grid": 18.23,
}


@pytest.fixture(scope="module")
def engines():
    """op -> (fast, brute) zero-argument calls on one shared cloud."""
    pts = np.random.default_rng(0).normal(size=(1, NUM_POINTS, 3))
    num_fps = NUM_POINTS // 16
    queries = pts[:, uniform_stride_indices(NUM_POINTS, num_fps)]
    workspace = Workspace()
    print_header(f"Large-N exact engines vs brute (N={NUM_POINTS})")
    return {
        "fps_fast": (
            lambda: farthest_point_sample_fast_batch(
                pts, num_fps, start_index=0
            ),
            lambda: farthest_point_sample_batch(pts, num_fps, start_index=0),
        ),
        "knn_grid": (
            lambda: knn_grid_batch(queries, pts, K, workspace=workspace),
            lambda: knn_batch(queries, pts, K, workspace),
        ),
        "ball_query_grid": (
            lambda: ball_query_grid_batch(
                queries, pts, RADIUS, K, workspace=workspace
            ),
            lambda: ball_query_batch(queries, pts, RADIUS, K, workspace),
        ),
    }


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.mark.parametrize("op", sorted(MIN_RATIO))
def test_engine_matches_brute_and_beats_floor(engines, op):
    fast_fn, brute_fn = engines[op]
    # The first calls also warm the workspace pools.
    assert np.array_equal(fast_fn(), brute_fn()), op

    fast, brute = [], []
    for _ in range(2):
        fast.append(_seconds(fast_fn))
        brute.append(_seconds(brute_fn))
    ratio = min(brute) / min(fast)
    print(
        f"{op:<16}{min(fast) * 1e3:>9.1f} ms fast"
        f"{min(brute) * 1e3:>9.1f} ms brute{ratio:>7.1f}x"
    )
    assert ratio >= MIN_RATIO[op], (
        f"{op}: only {ratio:.2f}x over brute (floor {MIN_RATIO[op]}x)"
    )
