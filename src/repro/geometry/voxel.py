"""Voxelization of point clouds onto a regular grid.

The voxel grid is the first half of EdgePC's Morton pipeline (paper
Sec. 4.1): continuous coordinates are quantized into integer cell indices
``(i, j, k)`` with ``i = (x - x_min) / r`` for grid size ``r``, and those
integers are then bit-interleaved into a Morton code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.bbox import BoundingBox


@dataclass(frozen=True)
class VoxelGrid:
    """A regular grid of cubic cells covering a bounding box.

    Attributes:
        origin: ``(3,)`` minimum corner of the grid.
        cell_size: side length ``r`` of each cubic cell.
        cells_per_axis: maximum representable cell index + 1 on each axis
            (``2**bits`` when driven by a Morton code width).
    """

    origin: np.ndarray
    cell_size: float
    cells_per_axis: int

    def __post_init__(self) -> None:
        origin = np.asarray(self.origin, dtype=np.float64)
        if origin.shape != (3,):
            raise ValueError("origin must be a 3-vector")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if self.cells_per_axis < 1:
            raise ValueError("cells_per_axis must be >= 1")
        object.__setattr__(self, "origin", origin)

    @classmethod
    def for_box(cls, box: BoundingBox, bits_per_axis: int) -> "VoxelGrid":
        """Build the grid the paper uses: ``2**bits`` cells along the
        longest side of the bounding box, cubic cells everywhere."""
        cells = 1 << bits_per_axis
        # Expand the box infinitesimally so points exactly on the max face
        # quantize to the last cell rather than one past it.
        size = box.longest_side / cells
        if size <= 0:
            # Degenerate cloud (all points identical): any positive cell
            # size maps every point to cell (0, 0, 0), which is correct.
            size = 1.0
        return cls(box.minimum, size, cells)

    def voxelize(self, points: np.ndarray) -> np.ndarray:
        """Quantize ``(N, 3)`` points into ``(N, 3)`` integer cell indices.

        Indices are clipped into ``[0, cells_per_axis)`` so that boundary
        points (exactly on the max face of the box) remain representable.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got {points.shape}")
        cells = np.floor((points - self.origin) / self.cell_size)
        return np.clip(cells, 0, self.cells_per_axis - 1).astype(np.uint32)
