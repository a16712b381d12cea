"""EdgePC's Morton-code-based (index-window) neighbor search
(paper Sec. 5.2).

For a query at sorted rank ``j``, the candidate set is the window of
ranks ``{j - W/2, ..., j + W/2}`` in the Morton order.  With ``W == k``
the window is taken verbatim ("skip" the search entirely); with
``W > k`` the ``k`` geometrically closest candidates inside the window
are selected, trading a little compute (``O(W)`` per query instead of
``O(1)``) for a much lower false neighbor ratio (Fig. 15a).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core import morton
from repro.core.structurize import (
    BatchedMortonOrder,
    _per_cloud,
    structurize_batch,
)
from repro.core.workspace import Workspace
from repro.robustness.validate import ensure_finite


def window_ranks(
    query_ranks: np.ndarray, window: int, num_points: int
) -> np.ndarray:
    """``(..., W)`` int64 candidate ranks around each query rank:
    ``(Q, W)`` for a ``(Q,)`` input, ``(B, Q, W)`` for a batched
    ``(B, Q)`` input.

    Windows are shifted (not truncated) at the array boundaries so every
    query sees exactly ``W`` distinct candidates, mirroring how a CUDA
    kernel would clamp its index arithmetic.
    """
    if window < 1:
        raise ValueError("window must be positive")
    if window > num_points:
        raise ValueError("window cannot exceed the point count")
    query_ranks = np.asarray(query_ranks, dtype=np.int64)
    start = query_ranks - window // 2
    start = np.clip(start, 0, num_points - window)
    return start[..., None] + np.arange(window, dtype=np.int64)


class MortonNeighborSearch:
    """Approximate k-NN via index windows on the Morton order.

    Args:
        k: number of neighbors per query.
        window: search window size ``W`` (``k <= W <= N``).  ``None``
            defaults to ``k`` (the pure index-selection mode).
        code_bits: Morton code width used if a cloud must be
            structurized from scratch.
        workspace: optional :class:`~repro.core.workspace.Workspace`
            supplying the gather/distance scratch buffers; a private
            pool is created when omitted.  Pass the model's shared pool
            so steady-state serving reuses the same pages every frame.
    """

    def __init__(
        self,
        k: int,
        window: Optional[int] = None,
        code_bits: int = morton.DEFAULT_CODE_BITS,
        workspace: Optional[Workspace] = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        window = k if window is None else window
        if window < k:
            raise ValueError("window must be >= k")
        morton.bits_per_axis(code_bits)
        self.k = k
        self.window = window
        self.code_bits = code_bits
        self.workspace = workspace or Workspace()

    def search_ranks_batch(
        self,
        points: np.ndarray,
        order: BatchedMortonOrder,
        query_ranks: np.ndarray,
    ) -> np.ndarray:
        """Neighbors for queries given by *sorted rank* over a
        ``(B, N, 3)`` batch.

        ``query_ranks`` may be ``(Q,)`` (shared across the batch, e.g.
        the uniform stride picks) or ``(B, Q)``.

        Returns ``(B, Q, k)`` int64 original-point indices.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 3 or points.shape[2] != 3:
            raise ValueError(
                f"expected (B, N, 3) points, got {points.shape}"
            )
        if (
            order.num_clouds != points.shape[0]
            or len(order) != points.shape[1]
        ):
            raise ValueError("Morton order does not match the point count")
        n = len(order)
        if self.window > n:
            raise ValueError(
                f"window {self.window} exceeds point count {n}"
            )
        num_clouds = points.shape[0]
        query_ranks = _per_cloud(query_ranks, num_clouds)
        candidates = window_ranks(query_ranks, self.window, n)
        if self.window == self.k:
            picked = candidates
        else:
            workspace = self.workspace
            sorted_xyz = order.sorted_points(points)
            # Flat gather into pooled scratch: one advanced index on
            # axis 0 is markedly faster than a (rows, candidates)
            # multi-axis fancy index, and reusing the pool's pages
            # avoids re-faulting multi-MB allocations every call.
            flat_idx = workspace.buffer(
                "window.idx", candidates.shape, np.int64
            )
            np.add(
                candidates,
                (np.arange(num_clouds, dtype=np.int64) * n)[
                    :, None, None
                ],
                out=flat_idx,
            )
            cand_xyz = workspace.buffer(
                "window.cand", candidates.shape + (3,), np.float64
            )
            np.take(
                sorted_xyz.reshape(-1, 3),
                flat_idx.reshape(-1),
                axis=0,
                out=cand_xyz.reshape(-1, 3),
                # Indices are window ranks, clipped in-bounds by
                # construction; "clip" selects NumPy's no-recheck fast
                # path for the out= gather.
                mode="clip",
            )
            query_xyz = np.take_along_axis(
                sorted_xyz, query_ranks[:, :, None], axis=1
            )
            cand_xyz -= query_xyz[:, :, None, :]
            # einsum fuses square-and-reduce into one pass over the
            # differences; exact ties (duplicate points) still compare
            # equal, so the stable argsort keeps window order for them.
            d2 = workspace.buffer(
                "window.d2", candidates.shape, np.float64
            )
            np.einsum("bqwc,bqwc->bqw", cand_xyz, cand_xyz, out=d2)
            pick = np.argsort(d2, axis=2, kind="stable")[:, :, : self.k]
            picked = np.take_along_axis(candidates, pick, axis=2)
        flat = picked.reshape(num_clouds, -1)
        original = np.take_along_axis(order.permutation, flat, axis=1)
        return original.reshape(picked.shape)

    def search_batch(
        self,
        points: np.ndarray,
        query_indices: Optional[np.ndarray] = None,
        order: Optional[BatchedMortonOrder] = None,
    ) -> np.ndarray:
        """Neighbors for queries given by *original index* over a
        ``(B, N, 3)`` batch in single NumPy dispatches.

        Args:
            points: ``(B, N, 3)`` batch of clouds.
            query_indices: ``(B, Q)`` (or shared ``(Q,)``) original
                indices to query, each in ``[0, N)``; all points when
                omitted.
            order: precomputed :class:`BatchedMortonOrder` to reuse
                (Sec. 5.2.3 — "simply reuse the Morton code ... without
                any extra overhead"); structurized from scratch when
                omitted.

        Returns:
            ``(B, Q, k)`` int64 original-point indices.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 3 or points.shape[2] != 3:
            raise ValueError(
                f"expected (B, N, 3) points, got {points.shape}"
            )
        if order is None:
            order = structurize_batch(points, self.code_bits)
        else:
            # structurize_batch() validates its own input; a
            # precomputed order bypasses it, so check here.
            ensure_finite(points.reshape(-1, 3), "search")
        if query_indices is None:
            query_ranks = np.arange(len(order), dtype=np.int64)
            # All points queried in rank order: remap output rows back
            # to original order below.
            result = self.search_ranks_batch(points, order, query_ranks)
            out = np.empty_like(result)
            np.put_along_axis(
                out, order.permutation[:, :, None], result, axis=1
            )
            return out
        query_indices = np.asarray(query_indices, dtype=np.int64)
        n = len(order)
        if query_indices.size and (
            query_indices.min() < 0 or query_indices.max() >= n
        ):
            raise ValueError(f"query indices must lie in [0, {n})")
        query_ranks = order.rank_of(query_indices)
        return self.search_ranks_batch(points, order, query_ranks)

    def operation_count(self, num_queries: int) -> int:
        """Operations the cost model prices: ``Q * k`` in pure-indexing
        mode (``W == k``: no distance math, one gather per returned
        neighbor), else ``Q * W`` windowed distance evaluations."""
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        if self.window == self.k:
            return num_queries * self.k
        return num_queries * self.window
