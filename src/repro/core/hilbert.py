"""3-D Hilbert curve encoding — the alternative space-filling curve.

EdgePC picks the Morton/Z-order curve for structurization because its
encoding is a pure bit-interleave (Sec. 4.1's low-complexity
requirement).  The Hilbert curve has strictly better locality (no
"jumps" — consecutive curve positions are always face-adjacent cells)
at the cost of a more complex transform.  This module implements the
Hilbert transform so the curve choice can be *measured* rather than
assumed (see ``benchmarks/test_ablations.py``): how much false-neighbor
ratio does Morton leave on the table, and what does Hilbert's encoding
cost?

Implementation: Skilling's transform (John Skilling, "Programming the
Hilbert curve", AIP 2004) specialized to 3-D and vectorized over
point arrays — the transpose-format Gray-code untangling run over
NumPy arrays.
"""

from __future__ import annotations

import numpy as np

from repro.core import morton
from repro.core.structurize import BatchedMortonOrder
from repro.geometry.bbox import BoundingBox
from repro.geometry.voxel import VoxelGrid

_DIMS = 3


def _cells_to_hilbert_distance(
    cells: np.ndarray, bits: int
) -> np.ndarray:
    """Skilling's inverse transform: cell coords -> curve distance."""
    x = cells.astype(np.int64).copy()  # (N, 3)

    # Inverse undo of the Hilbert transform (coords -> transpose form).
    m = np.int64(1) << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for axis in range(_DIMS):
            has_bit = (x[:, axis] & q) != 0
            # Invert low bits of x[0] where the bit is set; otherwise
            # exchange low bits of x[0] and x[axis].
            t = (x[:, 0] ^ x[:, axis]) & p
            x[:, 0] = np.where(has_bit, x[:, 0] ^ p, x[:, 0] ^ t)
            x[:, axis] = np.where(
                has_bit, x[:, axis], x[:, axis] ^ t
            )
        q >>= 1

    # Gray encode.
    for axis in range(1, _DIMS):
        x[:, axis] ^= x[:, axis - 1]
    t = np.zeros(x.shape[0], dtype=np.int64)
    q = m
    while q > 1:
        t = np.where((x[:, _DIMS - 1] & q) != 0, t ^ (q - 1), t)
        q >>= 1
    for axis in range(_DIMS):
        x[:, axis] ^= t

    # Interleave the transpose-format words into one distance value:
    # bit b of axis a lands at position 3*b + (2 - a).
    distance = np.zeros(x.shape[0], dtype=np.int64)
    for b in range(bits):
        for axis in range(_DIMS):
            bit = (x[:, axis] >> b) & 1
            distance |= bit << (_DIMS * b + (_DIMS - 1 - axis))
    return distance


def hilbert_encode(cells: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert curve distance of ``(N, 3)`` integer cells.

    Args:
        cells: non-negative integer coordinates ``< 2**bits``.
        bits: bits per axis (1..21, matching the Morton limit).
    """
    cells = np.asarray(cells)
    if cells.ndim != 2 or cells.shape[1] != 3:
        raise ValueError(f"expected (N, 3) cells, got {cells.shape}")
    if not 1 <= bits <= morton.MAX_BITS_PER_AXIS:
        raise ValueError(
            f"bits must be in [1, {morton.MAX_BITS_PER_AXIS}]"
        )
    if cells.min() < 0 or cells.max() >= (1 << bits):
        raise ValueError("cell coordinates out of range for bits")
    return _cells_to_hilbert_distance(cells, bits)


def hilbert_structurize(
    points: np.ndarray,
    code_bits: int = morton.DEFAULT_CODE_BITS,
    bounding_box=None,
) -> BatchedMortonOrder:
    """Structurize a cloud along the Hilbert curve.

    Returns a ``B=1`` :class:`BatchedMortonOrder` (the container is
    curve-agnostic: codes + permutation + grid), so every downstream
    consumer — samplers, window searchers — works unchanged.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got {points.shape}")
    if points.shape[0] == 0:
        raise ValueError("cannot structurize an empty point set")
    if not np.isfinite(points).all():
        raise ValueError("points contain non-finite coordinates")
    per_axis = morton.bits_per_axis(code_bits)
    box = bounding_box or BoundingBox.of_points(points)
    grid = VoxelGrid.for_box(box, per_axis)
    codes = hilbert_encode(grid.voxelize(points), per_axis)
    permutation = np.argsort(codes, kind="stable")
    ranks = np.empty_like(permutation)
    ranks[permutation] = np.arange(len(permutation))
    return BatchedMortonOrder(
        codes=codes[None],
        permutation=permutation[None],
        ranks=ranks[None],
        origins=grid.origin[None],
        cell_sizes=np.array([grid.cell_size]),
        cells_per_axis=grid.cells_per_axis,
        code_bits=code_bits,
    )
