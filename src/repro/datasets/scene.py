"""Scene-scale semantic segmentation: tiled indoor floors.

The paper's per-cloud workloads top out at 8192 points (Table 1); the
scene-scale scenario instead assembles an entire *floor* of
procedurally generated rooms — the same labelled room generator behind
:class:`~repro.datasets.indoor.S3DISLike` / ``ScanNetLike`` — tiled on
a grid, producing one contiguous 100k–1M-point scene.  This is the
workload the :mod:`repro.partition` scatter/gather pipeline exists
for: far too large for one ``(B, N, 3)`` batch, but spatially
decomposable into Morton-compact chunks.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.indoor import (
    _assemble,
    _room_surfaces,
    room_grid_offsets,
)
from repro.geometry.points import PointCloud

#: Grid pitch between normalized room blocks (each spans ~[-1, 1]^3).
DEFAULT_ROOM_SPACING = 2.2


def make_scene(
    num_points: int,
    seed: int = 0,
    room_points: int = 8192,
    spacing: float = DEFAULT_ROOM_SPACING,
    noise_sigma: float = 0.0,
) -> PointCloud:
    """Assemble one labelled floor-scale scene of tiled rooms.

    Rooms are generated independently (one child seed each, so the
    same scene is reproducible at any size), normalized per block like
    the segmentation pipelines expect, offset onto a near-square grid,
    concatenated, and trimmed to exactly ``num_points`` by dropping
    the tail of the last room.

    Args:
        num_points: total scene size; any positive value (the
            scene-scale scenario uses 100k–1M).
        seed: deterministic scene seed.
        room_points: points per room tile before trimming.
        spacing: grid pitch between room centers; values above 2 keep
            normalized rooms from overlapping.
        noise_sigma: optional Gaussian sensor noise (ScanNet-style).

    Returns:
        A :class:`PointCloud` whose ``xyz`` is ``(num_points, 3)``
        float64 and whose per-point ``labels`` are ``(num_points,)``
        int64 semantic classes.
    """
    if num_points < 1:
        raise ValueError("num_points must be positive")
    if room_points < 64:
        raise ValueError("room_points must be at least 64")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    num_rooms = -(-num_points // room_points)  # ceil
    offsets = room_grid_offsets(num_rooms, spacing)
    xyz_parts = []
    label_parts = []
    for room in range(num_rooms):
        rng = np.random.default_rng((seed, room))
        cloud = _assemble(_room_surfaces(room_points, rng), rng)
        xyz = cloud.xyz + offsets[room]
        if noise_sigma:
            xyz = xyz + rng.normal(0, noise_sigma, xyz.shape)
        xyz_parts.append(xyz)
        label_parts.append(cloud.labels)
    xyz = np.concatenate(xyz_parts)[:num_points]
    labels = np.concatenate(label_parts)[:num_points]
    return PointCloud(xyz, labels=labels)

