"""Paired gate for graph-free inference through the shared MLPs.

Under ``no_grad`` with every layer in eval mode, ``Sequential`` runs
its layers in place on the array its ``Linear`` allocated, and the SA /
EdgeConv forwards run group -> MLP -> max-pool over blocks of the query
axis (``repro.nn.functional.query_blocks``).  The oracle is the
layer-by-layer autograd chain over the whole grouped tensor, still
under ``no_grad``: ``for layer in mlp.layers: x = layer(x)``, then the
max over the neighbor axis.  For the SA level-0 shape of PointNet++(s)
and the third EdgeConv of DGCNN(c), this test asserts both return the
same bytes and that the blocked in-place path is at least 1.5x faster,
timed in one process on one input, so the gate holds on any runner.
"""

import time

import numpy as np
from conftest import print_header

from repro.nn.autograd import Tensor, no_grad
from repro.nn.functional import (
    edge_features,
    group_points,
    join_blocks,
    max_pool_neighbors,
    query_blocks,
)
from repro.nn.layers import BatchNorm, shared_mlp

MIN_RATIO = 1.5

#: (name, batch, points, queries, k, channels, activation, edges)
SHAPES = (
    ("SA level 0", 4, 4096, 1024, 16, (4, 16, 16, 32), "relu", False),
    ("EdgeConv ec2", 8, 1024, 1024, 16, (64, 64), "leaky_relu", True),
)


def _eval_mlp(channels, activation, rng):
    """A shared MLP in eval mode with non-trivial BN statistics."""
    mlp = shared_mlp(channels, rng=rng, activation=activation).eval()
    for layer in mlp.layers:
        if isinstance(layer, BatchNorm):
            width = layer.num_features
            layer.running_mean = rng.normal(size=width)
            layer.running_var = rng.uniform(0.5, 2.0, size=width)
            layer.gamma.data = rng.normal(size=width)
            layer.beta.data = rng.normal(size=width)
    return mlp


def _group(features, idx, edges, start=0):
    if edges:
        return edge_features(features, idx, start=start)
    return group_points(features, idx)


def _blocked(mlp, features, idx, edges):
    pooled = [
        max_pool_neighbors(
            mlp(_group(features, idx[:, rows], edges, rows.start))
        )
        for rows in query_blocks(mlp, *idx.shape)
    ]
    return join_blocks(pooled).data


def _layer_chain(mlp, features, idx, edges):
    x = _group(features, idx, edges)
    for layer in mlp.layers:
        x = layer(x)
    return x.data.max(axis=2)


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_inference_mlp_vs_layer_chain(benchmark):
    rng = np.random.default_rng(2023)
    cases = []
    for name, batch, n, queries, k, channels, act, edges in SHAPES:
        c_in = channels[0] // 2 if edges else channels[0]
        features = Tensor(rng.normal(size=(batch, n, c_in)))
        idx = rng.integers(0, n, size=(batch, queries, k))
        mlp = _eval_mlp(channels, act, rng)
        cases.append((name, mlp, features, idx, edges))

    print_header("Shared MLP + max-pool: in-place blocks vs layer chain")
    with no_grad():
        benchmark(_blocked, *cases[0][1:])
        for name, mlp, features, idx, edges in cases:
            assert mlp.runs_in_place()
            got = _blocked(mlp, features, idx, edges)
            want = _layer_chain(mlp, features, idx, edges)
            assert got.tobytes() == want.tobytes(), name

            # Interleaved pairs; the best of each side is compared.
            fast, slow = [], []
            for _ in range(3):
                fast.append(
                    _seconds(lambda: _blocked(mlp, features, idx, edges))
                )
                slow.append(
                    _seconds(
                        lambda: _layer_chain(mlp, features, idx, edges)
                    )
                )
            ratio = min(slow) / min(fast)
            print(
                f"{name:<14}{min(fast) * 1e3:>9.1f} ms in place"
                f"{min(slow) * 1e3:>9.1f} ms chain{ratio:>7.2f}x"
            )
            assert ratio >= MIN_RATIO, (
                f"{name}: only {ratio:.2f}x over the layer chain"
            )
