"""(1+eps) approximate nearest neighbor on the Morton order.

The paper's Sec. 3.2 contrasts EdgePC with Connor's thread-safe
approximate NN (the paper's [12]): that technique also sorts points by
Morton code, but *guarantees* an error bound by scanning a rank window
around the query and proving, via the Z-curve's nesting structure,
when no closer point can exist outside the scanned range — at the cost
of extra computation per query.  EdgePC drops the guarantee to save
that refinement; this module implements the guaranteed variant as a
baseline, both to cross-check the window searcher and to quantify what
the guarantee costs.

Soundness invariant: ranks ``[s_lo, s_hi]`` of the sorted order have
been scanned.  By sortedness, *every* point whose code lies strictly
between ``codes[s_lo - 1]`` and ``codes[s_hi + 1]`` has been scanned.
Z-aligned cubes (cells sharing a code prefix) occupy contiguous code
intervals, so the largest Z-aligned cube around the query whose whole
code interval fits inside that open interval is *fully* scanned.  Any
unscanned point therefore lies outside that cube, at distance at least
the query's margin to the cube boundary.  The search stops when
``margin * (1 + eps) >= d_k``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core import morton
from repro.core.structurize import BatchedMortonOrder, structurize_batch
from repro.geometry.voxel import VoxelGrid


class ZOrderApproxNN:
    """Bounded-error k-NN over a Morton-sorted cloud.

    Args:
        points: ``(N, 3)`` cloud to index.
        eps: allowed relative error on the k-th neighbor distance
            (``0`` scans until exactness is proven).
        code_bits: Morton width used for the order.
        order: optional precomputed ``B=1`` order to reuse.
    """

    def __init__(
        self,
        points: np.ndarray,
        eps: float = 0.0,
        code_bits: int = morton.DEFAULT_CODE_BITS,
        order: Optional[BatchedMortonOrder] = None,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got {points.shape}")
        if eps < 0:
            raise ValueError("eps must be non-negative")
        self.points = points
        self.eps = eps
        if order is None:
            order = structurize_batch(points[None], code_bits)
        if order.num_clouds != 1:
            raise ValueError("ZOrderApproxNN takes a B=1 order")
        if len(order) != points.shape[0]:
            raise ValueError("order does not match the point count")
        self.order = order
        self._permutation = order.permutation[0]
        self._grid = VoxelGrid(
            origin=order.origins[0],
            cell_size=float(order.cell_sizes[0]),
            cells_per_axis=order.cells_per_axis,
        )
        self._bits_per_axis = morton.bits_per_axis(order.code_bits)
        self._sorted_codes = order.codes[0][self._permutation]
        self._sorted_points = points[self._permutation]
        #: Ranks scanned per query in the last `query` call (for the
        #: cost comparison against the unguaranteed window searcher).
        self.last_scanned = 0

    def __len__(self) -> int:
        return self.points.shape[0]

    # Bound machinery -----------------------------------------------------

    def _covered_cube_margin(
        self, point: np.ndarray, query_code: int, s_lo: int, s_hi: int
    ) -> float:
        """Distance from ``point`` to the boundary of the largest
        fully-scanned Z-aligned cube around it (0 if none)."""
        n = len(self)
        low_excl = (
            int(self._sorted_codes[s_lo - 1]) if s_lo > 0 else -1
        )
        high_excl = (
            int(self._sorted_codes[s_hi + 1])
            if s_hi < n - 1
            else None  # everything above is scanned
        )
        grid = self._grid
        best_margin = 0.0
        for level in range(1, self._bits_per_axis + 1):
            shift = 3 * level
            prefix = query_code >> shift
            cube_first = prefix << shift
            cube_last = cube_first + (1 << shift) - 1
            covered_low = cube_first > low_excl
            covered_high = (
                high_excl is None or cube_last < high_excl
            )
            if not (covered_low and covered_high):
                break
            side = 1 << level
            origin_cells = np.array(
                morton.decode(np.array([cube_first]))[0],
                dtype=np.float64,
            )
            origin = grid.origin + origin_cells * grid.cell_size
            extent = side * grid.cell_size
            rel = point - origin
            if np.all(rel >= 0) and np.all(rel <= extent):
                margin = float(np.minimum(rel, extent - rel).min())
                best_margin = max(best_margin, margin)
        return best_margin

    # Queries --------------------------------------------------------------

    def query(self, point: np.ndarray, k: int) -> np.ndarray:
        """k (1+eps)-approximate nearest original-point indices: a
        ``(k,)`` int64 array sorted by ascending distance."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (3,):
            raise ValueError("query point must be a 3-vector")
        n = len(self)
        if not 1 <= k <= n:
            raise ValueError("k out of range")
        query_code = int(
            morton.encode(self._grid.voxelize(point[None]))[0]
        )
        center = int(
            np.searchsorted(self._sorted_codes, query_code)
        )
        center = min(center, n - 1)

        best: List[Tuple[float, int]] = []

        def consider_block(rank_lo: int, rank_hi: int) -> None:
            """Add ranks [rank_lo, rank_hi] (inclusive) to the pool."""
            block = self._sorted_points[rank_lo : rank_hi + 1]
            distances = np.linalg.norm(block - point, axis=1)
            ranks = np.arange(rank_lo, rank_hi + 1)
            if distances.shape[0] > k:
                keep = np.argpartition(distances, k - 1)[:k]
                distances, ranks = distances[keep], ranks[keep]
            best.extend(
                (float(d), int(self._permutation[r]))
                for d, r in zip(distances, ranks)
            )
            best.sort()
            del best[k:]

        block = max(32, k)
        consider_block(center, center)
        s_lo = s_hi = center
        while True:
            if len(best) == k:
                margin = self._covered_cube_margin(
                    point, query_code, s_lo, s_hi
                )
                if margin * (1.0 + self.eps) >= best[-1][0]:
                    break
            if s_lo == 0 and s_hi == n - 1:
                break
            # Expand one block on each open side; correctness comes
            # from the bound, not the expansion order.
            if s_lo > 0:
                new_lo = max(0, s_lo - block)
                consider_block(new_lo, s_lo - 1)
                s_lo = new_lo
            if s_hi < n - 1:
                new_hi = min(n - 1, s_hi + block)
                consider_block(s_hi + 1, new_hi)
                s_hi = new_hi
        self.last_scanned = s_hi - s_lo + 1
        return np.array([idx for _, idx in best], dtype=np.int64)

    def query_batch(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Vector of :meth:`query` calls over ``(Q, 3)`` queries;
        returns ``(Q, k)`` int64 indices."""
        queries = np.asarray(queries, dtype=np.float64)
        return np.stack([self.query(q, k) for q in queries])
