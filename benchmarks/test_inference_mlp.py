"""Paired gate for graph-free inference through the shared MLPs.

Under ``no_grad`` with every layer in eval mode, ``Sequential`` runs
its layers in place on the array its ``Linear`` allocated and, asked
to pool, runs BN + activation on the pooled rows; the SA / EdgeConv
forwards run group -> MLP -> max-pool over blocks of the query axis
(``repro.nn.functional.query_blocks``), EdgeConv's edges written into
one buffer per block.  The oracle is the layer-by-layer autograd chain
over the whole grouped tensor, still under ``no_grad``: ``for layer in
mlp.layers: x = layer(x)``, then the max over the neighbor axis.  For
the SA level-0 shape of PointNet++(s) and the third EdgeConv of
DGCNN(c), this test asserts both return the same bytes and that the
blocked in-place path beats the chain by at least the shape's floor
(``MIN_SA`` / ``MIN_EC``), timed in one process on one input, so the
gate holds on any runner.  BN statistics, ``gamma`` and ``beta`` are
random normals, so about half the channels pool with the min.
"""

import time

import numpy as np
from conftest import print_header

from repro.core.workspace import Workspace
from repro.nn.autograd import Tensor, no_grad
from repro.nn.functional import (
    edge_features,
    edge_features_into,
    group_points,
    query_blocks,
)
from repro.nn.layers import BatchNorm, shared_mlp

#: Per-shape floors on chain time / in-place time.  Measured on a
#: 2-core x86 host, one BLAS thread: SA 2.43-2.81x, EdgeConv
#: 4.59-5.40x (pooling before BN + activation; 2.17-2.38x and
#: 3.41-4.08x when the tail ran on every neighbor row).
MIN_SA = 2.0
MIN_EC = 3.5

#: (name, batch, points, queries, k, channels, activation, edges,
#: min_ratio)
SHAPES = (
    ("SA level 0", 4, 4096, 1024, 16, (4, 16, 16, 32), "relu", False,
     MIN_SA),
    ("EdgeConv ec2", 8, 1024, 1024, 16, (64, 64), "leaky_relu", True,
     MIN_EC),
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


def _group(features, idx, edges):
    if edges:
        return edge_features(features, idx)
    return group_points(features, idx)


def _blocked(mlp, features, idx, edges, workspace):
    """The models' in-place path: per query block, the group (EdgeConv:
    edges written into one workspace buffer), then the MLP pooled over
    the neighbor axis into the ``(B, n, C_out)`` output."""
    batch, queries, k = idx.shape
    width = mlp.layers[-3].out_features  # last Linear, BN, activation
    out = np.empty((batch, queries, width))
    for rows in query_blocks(batch, queries, k):
        block = idx[:, rows]
        if edges:
            grouped = edge_features_into(
                workspace.buffer(
                    "edges", block.shape + (2 * features.shape[2],)
                ),
                features.data, block, start=rows.start,
            )
        else:
            grouped = group_points(features, block).data
        out[:, rows] = mlp(Tensor(grouped), pool_axis=2).data
    return out


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
    for name, batch, n, queries, k, channels, act, edges, floor in SHAPES:
        c_in = channels[0] // 2 if edges else channels[0]
        features = Tensor(rng.normal(size=(batch, n, c_in)))
        idx = rng.integers(0, n, size=(batch, queries, k))
        mlp = _eval_mlp(channels, act, rng)
        cases.append((name, mlp, features, idx, edges, floor))

    workspace = Workspace()
    print_header("Shared MLP + max-pool: in-place blocks vs layer chain")
    with no_grad():
        benchmark(_blocked, *cases[0][1:5], workspace)
        for name, mlp, features, idx, edges, floor in cases:
            assert mlp.runs_in_place()
            got = _blocked(mlp, features, idx, edges, workspace)
            want = _layer_chain(mlp, features, idx, edges)
            assert got.tobytes() == want.tobytes(), name

            # Interleaved pairs; the best of each side is compared.
            fast, slow = [], []
            for _ in range(3):
                fast.append(_seconds(
                    lambda: _blocked(mlp, features, idx, edges, workspace)
                ))
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
            assert ratio >= floor, (
                f"{name}: only {ratio:.2f}x over the layer chain"
            )
