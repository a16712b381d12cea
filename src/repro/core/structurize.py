"""Structurizing point clouds: Morton ordering (paper Sec. 4.1).

The :class:`MortonOrder` object captures everything downstream consumers
need from the structurization step:

- the Morton ``codes`` of the points (in original order),
- the ``permutation`` ``I' = [i_0, ..., i_{N-1}]`` mapping sorted rank to
  original index (``i_0`` has the minimum code),
- the inverse ``ranks`` mapping original index to sorted rank,
- the :class:`~repro.geometry.voxel.VoxelGrid` used for quantization.

EdgePC's sampler and neighbor searcher then operate purely on ranks:
index arithmetic on the sorted order replaces geometric search.

:func:`structurize_batch` is the one implementation: it orders a whole
``(B, N, 3)`` batch in single NumPy dispatches (one encode, one sort),
and its :class:`BatchedMortonOrder` stacks the per-cloud arrays.
:func:`structurize` is its ``B=1`` view, and
:meth:`BatchedMortonOrder.cloud` / :meth:`BatchedMortonOrder.from_single`
bridge between the two order types for per-cloud callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import morton
from repro.geometry.bbox import BoundingBox
from repro.geometry.voxel import VoxelGrid


@dataclass(frozen=True)
class MortonOrder:
    """The result of structurizing a point cloud with Morton codes."""

    codes: np.ndarray
    permutation: np.ndarray
    ranks: np.ndarray
    grid: VoxelGrid
    code_bits: int

    def __post_init__(self) -> None:
        if (
            self.codes.shape != self.permutation.shape
            or self.codes.shape != self.ranks.shape
        ):
            raise ValueError("codes/permutation/ranks must align")

    def __len__(self) -> int:
        return self.codes.shape[0]

    @property
    def sorted_codes(self) -> np.ndarray:
        """``(N,)`` int64 codes in ascending order (the 'structured'
        view)."""
        return self.codes[self.permutation]

    def sorted_points(self, points: np.ndarray) -> np.ndarray:
        """View the original ``(N, ...)`` point array in Morton order,
        dtype preserved."""
        return np.asarray(points)[self.permutation]

    def rank_of(self, original_indices: np.ndarray) -> np.ndarray:
        """``(Q,)`` int64 sorted rank of each original point index."""
        return self.ranks[np.asarray(original_indices)]

    def original_index_of(self, sorted_ranks: np.ndarray) -> np.ndarray:
        """``(Q,)`` int64 original index of each sorted rank
        (``I'`` lookup)."""
        return self.permutation[np.asarray(sorted_ranks)]

    @property
    def memory_overhead_bytes(self) -> float:
        """Extra storage for the codes: ``N * a / 8`` B (Sec. 5.1.3)."""
        return morton.code_memory_bytes(len(self), self.code_bits)


@dataclass(frozen=True)
class BatchedMortonOrder:
    """Morton orders of a whole batch, stored as stacked arrays.

    The batched twin of :class:`~repro.core.structurize.MortonOrder`:
    row ``b`` of every array is exactly what ``structurize(points[b])``
    would produce for the same grid.

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
        """Points per cloud (matches ``len(MortonOrder)``)."""
        return self.codes.shape[1]

    def cloud(self, b: int) -> MortonOrder:
        """The per-cloud :class:`MortonOrder` view of batch row ``b``
        (compatibility bridge for per-cloud call sites)."""
        grid = VoxelGrid(
            origin=self.origins[b],
            cell_size=float(self.cell_sizes[b]),
            cells_per_axis=self.cells_per_axis,
        )
        return MortonOrder(
            codes=self.codes[b],
            permutation=self.permutation[b],
            ranks=self.ranks[b],
            grid=grid,
            code_bits=self.code_bits,
        )

    @classmethod
    def from_single(cls, order: MortonOrder) -> "BatchedMortonOrder":
        """Lift one per-cloud :class:`MortonOrder` to a ``B=1`` batch —
        the bridge per-cloud wrappers use to reach the batched kernels."""
        return cls(
            codes=order.codes[None],
            permutation=order.permutation[None],
            ranks=order.ranks[None],
            origins=np.asarray(
                order.grid.origin, dtype=np.float64
            )[None],
            cell_sizes=np.array(
                [order.grid.cell_size], dtype=np.float64
            ),
            cells_per_axis=order.grid.cells_per_axis,
            code_bits=order.code_bits,
        )

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


def structurize(
    points: np.ndarray,
    code_bits: int = morton.DEFAULT_CODE_BITS,
    bounding_box: Optional[BoundingBox] = None,
) -> MortonOrder:
    """Compute the Morton order of ``(N, 3)`` points.

    The ``B=1`` view of :func:`structurize_batch`, so the per-cloud and
    batched paths are identical by construction.

    Args:
        points: ``(N, 3)`` coordinates.
        code_bits: total Morton code width ``a``; each axis gets
            ``floor(a / 3)`` bits.  The paper's default is 32.
        bounding_box: the quantization domain.  Defaults to the tight box
            of the points; pass an explicit box to share a grid across
            frames (e.g. streaming LiDAR).

    Returns:
        A :class:`MortonOrder` carrying codes, the rank permutation, its
        inverse, and the voxel grid used.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got {points.shape}")
    return structurize_batch(points[None], code_bits, bounding_box).cloud(0)


def structuredness(order: MortonOrder, points: np.ndarray) -> float:
    """A scalar measure of how 'structured' the ordering left the cloud.

    Defined as the mean distance between consecutive points in the given
    order, normalized by the same statistic for a random order.  A value
    of 1.0 means no better than random; Morton-sorted clouds typically
    score far below 1 because consecutive points are spatial neighbors.
    (Used by the quantitative analysis mirroring paper Sec. 4.3.)
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) < 3:
        return 1.0
    ordered = order.sorted_points(points)
    sorted_gap = np.linalg.norm(np.diff(ordered, axis=0), axis=1).mean()
    rng = np.random.default_rng(0)
    shuffled = points[rng.permutation(len(points))]
    random_gap = np.linalg.norm(np.diff(shuffled, axis=0), axis=1).mean()
    if random_gap == 0:
        return 1.0
    return float(sorted_gap / random_gap)
