"""Structurizing point clouds: Morton ordering (paper Sec. 4.1).

The :class:`BatchedMortonOrder` object captures everything downstream
consumers need from the structurization step, per cloud of a batch:

- the Morton ``codes`` of the points (in original order),
- the ``permutation`` ``I' = [i_0, ..., i_{N-1}]`` mapping sorted rank to
  original index (``i_0`` has the minimum code),
- the inverse ``ranks`` mapping original index to sorted rank,
- the voxel grid (``origins``, ``cell_sizes``, ``cells_per_axis``) used
  for quantization.

EdgePC's sampler and neighbor searcher then operate purely on ranks:
index arithmetic on the sorted order replaces geometric search.

:func:`structurize_batch` is the one implementation: it orders a whole
``(B, N, 3)`` batch in single NumPy dispatches (one encode, one sort).
A single ``(N, 3)`` cloud is the ``B=1`` batch ``points[None]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import morton
from repro.geometry.bbox import BoundingBox
from repro.geometry.voxel import VoxelGrid


@dataclass(frozen=True)
class BatchedMortonOrder:
    """Morton orders of a whole batch, stored as stacked arrays.

    Row ``b`` of every array is exactly what
    ``structurize_batch(points[b:b + 1])`` produces for the same grid.

    Attributes:
        codes: ``(B, N)`` int64 Morton codes in original point order.
        permutation: ``(B, N)`` int64 map from sorted rank to original
            index per cloud.
        ranks: ``(B, N)`` int64 inverse map (original index to rank).
        origins: ``(B, 3)`` float64 per-cloud grid origins.
        cell_sizes: ``(B,)`` float64 per-cloud cubic cell sizes.
        cells_per_axis: cells along each grid axis (shared).
        code_bits: Morton code width ``a`` (shared).
    """

    codes: np.ndarray
    permutation: np.ndarray
    ranks: np.ndarray
    origins: np.ndarray
    cell_sizes: np.ndarray
    cells_per_axis: int
    code_bits: int

    def __post_init__(self) -> None:
        if (
            self.codes.ndim != 2
            or self.codes.shape != self.permutation.shape
            or self.codes.shape != self.ranks.shape
        ):
            raise ValueError("codes/permutation/ranks must align")
        if self.origins.shape != (self.codes.shape[0], 3):
            raise ValueError("origins must be (B, 3)")
        if self.cell_sizes.shape != (self.codes.shape[0],):
            raise ValueError("cell_sizes must be (B,)")

    @property
    def num_clouds(self) -> int:
        return self.codes.shape[0]

    def __len__(self) -> int:
        """Points per cloud."""
        return self.codes.shape[1]

    def sorted_points(self, points: np.ndarray) -> np.ndarray:
        """View ``(B, N, C)`` per-cloud data in Morton order; shape and
        dtype preserved."""
        points = np.asarray(points)
        return np.take_along_axis(
            points, self.permutation[:, :, None], axis=1
        )

    def rank_of(self, original_indices: np.ndarray) -> np.ndarray:
        """``(B, Q)`` int64 sorted rank of each original point index
        (``(Q,)`` input broadcasts across the batch)."""
        return np.take_along_axis(
            self.ranks, _per_cloud(original_indices, self.num_clouds), 1
        )

    def original_index_of(self, sorted_ranks: np.ndarray) -> np.ndarray:
        """``(B, Q)`` int64 original index of each sorted rank
        (``(Q,)`` input broadcasts across the batch)."""
        return np.take_along_axis(
            self.permutation, _per_cloud(sorted_ranks, self.num_clouds), 1
        )


def _per_cloud(indices: np.ndarray, num_clouds: int) -> np.ndarray:
    """Lift ``(Q,)`` shared indices to ``(B, Q)``; pass ``(B, Q)``
    through unchanged."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim == 1:
        return np.broadcast_to(indices, (num_clouds, indices.shape[0]))
    if indices.ndim != 2 or indices.shape[0] != num_clouds:
        raise ValueError(
            f"expected (Q,) or (B, Q) indices, got {indices.shape}"
        )
    return indices


def _validate_batch_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3 or points.shape[2] != 3:
        raise ValueError(f"expected (B, N, 3) points, got {points.shape}")
    if points.shape[0] == 0 or points.shape[1] == 0:
        raise ValueError("cannot structurize an empty point set")
    finite = np.isfinite(points).all(axis=2)
    if not finite.all():
        bad = int((~finite).sum())
        raise ValueError(
            f"cannot structurize: {bad} of "
            f"{points.shape[0] * points.shape[1]} points "
            "have non-finite coordinates"
        )
    return points


def structurize_batch(
    points: np.ndarray,
    code_bits: int = morton.DEFAULT_CODE_BITS,
    bounding_box: Optional[BoundingBox] = None,
) -> BatchedMortonOrder:
    """Morton-order a ``(B, N, 3)`` batch in single NumPy dispatches.

    Each cloud gets its own tight bounding box and grid (or the shared
    ``bounding_box`` when given).  The sort is stable, so ties (points
    in the same voxel) keep their input order and the pipeline stays
    deterministic.

    Returns:
        A :class:`BatchedMortonOrder` with ``(B, N)`` codes,
        permutations, and ranks.
    """
    points = _validate_batch_points(points)
    num_clouds, num_points, _ = points.shape
    per_axis = morton.bits_per_axis(code_bits)
    cells = 1 << per_axis
    if bounding_box is not None:
        grid = VoxelGrid.for_box(bounding_box, per_axis)
        origins = np.broadcast_to(grid.origin, (num_clouds, 3)).copy()
        sizes = np.full(num_clouds, grid.cell_size, dtype=np.float64)
    else:
        origins = points.min(axis=1)
        longest = (points.max(axis=1) - origins).max(axis=1)
        sizes = longest / cells
        # Degenerate clouds (all points identical) quantize to cell
        # (0, 0, 0) under any positive size, as in VoxelGrid.for_box.
        sizes = np.where(sizes <= 0, 1.0, sizes)
    quantized = np.floor(
        (points - origins[:, None, :]) / sizes[:, None, None]
    )
    voxels = np.clip(quantized, 0, cells - 1).astype(np.uint32)
    codes = morton.encode(voxels)
    permutation = np.argsort(codes, axis=1, kind="stable")
    ranks = np.empty_like(permutation)
    np.put_along_axis(
        ranks,
        permutation,
        np.broadcast_to(
            np.arange(num_points, dtype=permutation.dtype),
            permutation.shape,
        ),
        axis=1,
    )
    return BatchedMortonOrder(
        codes=codes,
        permutation=permutation,
        ranks=ranks,
        origins=origins,
        cell_sizes=sizes,
        cells_per_axis=cells,
        code_bits=code_bits,
    )


def structuredness(
    order: BatchedMortonOrder, points: np.ndarray
) -> float:
    """A scalar measure of how 'structured' a ``B=1`` order left the
    ``(N, 3)`` cloud.

    Defined as the mean distance between consecutive points in the given
    order, normalized by the same statistic for a random order.  A value
    of 1.0 means no better than random; Morton-sorted clouds typically
    score far below 1 because consecutive points are spatial neighbors.
    (Used by the quantitative analysis mirroring paper Sec. 4.3.)
    """
    points = np.asarray(points, dtype=np.float64)
    if order.num_clouds != 1:
        raise ValueError("structuredness takes a B=1 order")
    if len(points) < 3:
        return 1.0
    ordered = points[order.permutation[0]]
    sorted_gap = np.linalg.norm(np.diff(ordered, axis=0), axis=1).mean()
    rng = np.random.default_rng(0)
    shuffled = points[rng.permutation(len(points))]
    random_gap = np.linalg.norm(np.diff(shuffled, axis=0), axis=1).mean()
    if random_gap == 0:
        return 1.0
    return float(sorted_gap / random_gap)
