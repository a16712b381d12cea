"""Point-cloud-specific tensor ops: batched gathers and grouping.

The *grouping* stage (paper Sec. 5.4.2) turns a ``(B, N, C)`` feature
map and a ``(B, n, k)`` neighbor-index matrix into the ``(B, n, k, C)``
matrix the shared MLPs convolve.  Index *computation* (sampling,
neighbor search) happens outside autograd in plain NumPy; these ops
carry gradients through the gathers themselves.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.autograd import Tensor, concatenate

#: Neighborhood rows (``B * n_blk * k``) per block of an inference
#: group -> shared MLP -> max-pool chain; 2048-8192 measured equal.
INFERENCE_BLOCK_ROWS = 4096


def _check_batched(features: Tensor, indices: np.ndarray) -> np.ndarray:
    indices = np.asarray(indices)
    if features.ndim != 3:
        raise ValueError(f"features must be (B, N, C), got {features.shape}")
    if indices.shape[0] != features.shape[0]:
        raise ValueError("batch sizes differ between features and indices")
    if indices.min() < 0 or indices.max() >= features.shape[1]:
        raise ValueError("index out of range")
    return indices


def gather_points(features: Tensor, indices: np.ndarray) -> Tensor:
    """Gather ``(B, n, C)`` rows out of ``(B, N, C)`` by ``(B, n)``."""
    indices = _check_batched(features, indices)
    if indices.ndim != 2:
        raise ValueError(f"indices must be (B, n), got {indices.shape}")
    batch = np.arange(indices.shape[0])[:, None]
    return features[(batch, indices)]


def group_points(features: Tensor, indices: np.ndarray) -> Tensor:
    """Gather ``(B, n, k, C)`` neighborhoods out of ``(B, N, C)`` by
    ``(B, n, k)`` — the grouping stage."""
    indices = _check_batched(features, indices)
    if indices.ndim != 3:
        raise ValueError(f"indices must be (B, n, k), got {indices.shape}")
    batch = np.arange(indices.shape[0])[:, None, None]
    return features[(batch, indices)]


def relative_neighborhoods(
    xyz: np.ndarray, center_indices: np.ndarray, neighbor_indices: np.ndarray
) -> np.ndarray:
    """Neighbor coordinates relative to their center: ``(B, n, k, 3)``.

    This is the geometric input channel every SA module prepends to the
    grouped features (PointNet++ convention).  Pure data — no gradient
    flows into coordinates.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    center_indices = np.asarray(center_indices)
    neighbor_indices = np.asarray(neighbor_indices)
    if xyz.ndim != 3 or xyz.shape[2] != 3:
        raise ValueError(f"xyz must be (B, N, 3), got {xyz.shape}")
    batch = np.arange(xyz.shape[0])[:, None, None]
    neighbors = xyz[batch, neighbor_indices]  # (B, n, k, 3)
    centers = xyz[np.arange(xyz.shape[0])[:, None], center_indices]
    return neighbors - centers[:, :, None, :]


def max_pool_neighbors(grouped: Tensor) -> Tensor:
    """Max over the neighbor axis: ``(B, n, k, C) -> (B, n, C)``.

    The symmetric aggregation at the heart of PointNet-family models.
    """
    if grouped.ndim != 4:
        raise ValueError(f"expected (B, n, k, C), got {grouped.shape}")
    return grouped.max(axis=2)


def query_blocks(batch: int, n: int, k: int) -> List[slice]:
    """Slices of the query axis to run group -> MLP -> max-pool over on
    the in-place path: each block holds at most
    :data:`INFERENCE_BLOCK_ROWS` neighborhood rows, so its activations
    stay cache-sized.  Blocking cannot change a bit: NumPy runs one
    gemm per ``(k, C)`` neighborhood matrix of a 4-D input, and the max
    pools per row.  The tape path runs all ``n`` rows at once, so a
    training graph is unchanged.
    """
    step = max(1, INFERENCE_BLOCK_ROWS // (batch * k))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def cloud_blocks(batch: int, n: int) -> List[slice]:
    """Slices of the batch axis to run an inference pass over
    ``(B, n, C)`` point features in: whole clouds, at most
    :data:`INFERENCE_BLOCK_ROWS` rows (``B_blk * n``) but never fewer
    than one cloud per block.  A 3-D matmul is one gemm per cloud, so
    blocks of whole clouds never change a gemm."""
    step = max(1, INFERENCE_BLOCK_ROWS // n)
    return [slice(lo, min(lo + step, batch)) for lo in range(0, batch, step)]


def interpolate_into(
    out: np.ndarray,
    coarse: np.ndarray,
    anchors: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Write ``sum_j weights[b, i, j] * coarse[b, anchors[b, i, j]]``
    into the ``(B, n, C)`` array ``out``, one anchor at a time.

    Bit for bit the tape's ``(group_points(coarse, anchors) *
    weights[..., None]).sum(axis=2)`` without its ``(B, n, k, C)``
    temporaries: NumPy's sum over the anchor axis starts from ``+0.0``
    and adds the anchors in order, so ``out`` starts at ``+0.0`` too
    (three ``-0.0`` terms sum to ``+0.0``, not to the first term).
    """
    out.fill(0.0)
    clouds = np.arange(anchors.shape[0])[:, None]
    for j in range(anchors.shape[2]):
        term = coarse[clouds, anchors[:, :, j]]
        term *= weights[:, :, j, None]
        out += term
    return out


def edge_features_into(
    out: np.ndarray,
    features: np.ndarray,
    neighbor_indices: np.ndarray,
    start: int = 0,
) -> np.ndarray:
    """:func:`edge_features` without the tape: writes ``[x_i, x_j -
    x_i]`` for the ``(B, n, k)`` indices into the C-contiguous ``(B, n,
    k, 2C)`` array ``out`` and returns it, bit for bit the tape's
    concatenation (the same subtraction, written in place)."""
    channels = features.shape[2]
    rows = neighbor_indices.shape[1]
    center = features[:, start:start + rows, None, :]
    out[..., :channels] = center
    clouds = np.arange(features.shape[0])[:, None, None]
    np.subtract(
        features[clouds, neighbor_indices], center,
        out=out[..., channels:],
    )
    return out


def relative_group_into(
    out: np.ndarray,
    xyz: np.ndarray,
    features: np.ndarray,
    center_indices: np.ndarray,
    neighbor_indices: np.ndarray,
) -> np.ndarray:
    """The SA grouping without the tape: writes
    :func:`relative_neighborhoods` ``‖`` :func:`group_points` for the
    ``(B, n, k)`` indices into the C-contiguous ``(B, n, k, 3 + C)``
    array ``out`` and returns it, bit for bit the tape's
    concatenation."""
    clouds = np.arange(xyz.shape[0])[:, None, None]
    centers = xyz[clouds[:, :, 0], center_indices]
    np.subtract(
        xyz[clouds, neighbor_indices], centers[:, :, None, :],
        out=out[..., :3],
    )
    out[..., 3:] = features[clouds, neighbor_indices]
    return out


def edge_features(features: Tensor, neighbor_indices: np.ndarray) -> Tensor:
    """DGCNN edge features: ``[x_i, x_j - x_i]`` per edge.

    Input ``(B, N, C)`` and indices ``(B, N, k)``; output
    ``(B, N, k, 2C)``.
    """
    if features.ndim != 3:
        raise ValueError(f"features must be (B, N, C), got {features.shape}")
    grouped = group_points(features, neighbor_indices)  # (B, N, k, C)
    center = features.expand_dims(2).broadcast_to(grouped.shape)
    return concatenate([center, grouped - center], axis=3)
