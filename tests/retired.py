"""Kernels deleted from ``repro`` because only their own tests reached
them: no model, CLI command, served path, example or figure benchmark
uses them.  The bodies are kept here, unchanged, for the tests that
still exercise them.

- :class:`KDTree`: an exact k-d tree (the paper's footnote 1 ``O(N log
  N)`` alternative).  Its tests cross-check :func:`repro.neighbors.knn`
  and :func:`repro.neighbors.ball_query` against an independent exact
  search.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np


class KDTree:
    """A balanced median-split k-d tree over ``(N, 3)`` points."""

    __slots__ = (
        "points",
        "_axis",
        "_split",
        "_left",
        "_right",
        "_point_index",
        "depth",
        "_next_node",
    )

    def __init__(self, points: np.ndarray, leaf_size: int = 1) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got {points.shape}")
        if points.shape[0] == 0:
            raise ValueError("cannot build a tree over no points")
        if leaf_size != 1:
            raise ValueError("only leaf_size=1 trees are supported")
        self.points = points
        n = points.shape[0]
        # One node per point (median point stored at the node).
        self._axis = np.zeros(n, dtype=np.int8)
        self._split = np.zeros(n, dtype=np.float64)
        self._left = np.full(n, -1, dtype=np.int64)
        self._right = np.full(n, -1, dtype=np.int64)
        self._point_index = np.zeros(n, dtype=np.int64)
        self.depth = 0
        self._next_node = 0
        self._build(np.arange(n), 0)
        del self._next_node

    # Building ---------------------------------------------------------

    def _allocate(self) -> int:
        node = self._next_node
        self._next_node += 1
        return node

    def _build(self, indices: np.ndarray, depth: int) -> int:
        """Recursively build; returns the node id of the subtree root."""
        self.depth = max(self.depth, depth)
        axis = depth % 3
        order = np.argsort(self.points[indices, axis], kind="stable")
        indices = indices[order]
        median = indices.shape[0] // 2
        node = self._allocate()
        self._axis[node] = axis
        self._point_index[node] = indices[median]
        self._split[node] = self.points[indices[median], axis]
        if median > 0:
            self._left[node] = self._build(indices[:median], depth + 1)
        if median + 1 < indices.shape[0]:
            self._right[node] = self._build(indices[median + 1 :], depth + 1)
        return node

    # Queries ----------------------------------------------------------

    def query(self, point: np.ndarray, k: int = 1) -> np.ndarray:
        """Indices of the ``k`` nearest stored points: a ``(k,)``
        int64 array, ascending distance."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (3,):
            raise ValueError("query point must be a 3-vector")
        if not 1 <= k <= self.points.shape[0]:
            raise ValueError("k out of range")
        # Max-heap of (-distance2, point index), kept at size k.
        heap: List[Tuple[float, int]] = []
        self._search(0, point, k, heap)
        ordered = sorted(heap, key=lambda item: -item[0])
        return np.array([idx for _, idx in ordered], dtype=np.int64)

    def query_batch(self, queries: np.ndarray, k: int = 1) -> np.ndarray:
        """Vector of :meth:`query` calls; returns ``(Q, k)`` int64
        indices."""
        queries = np.asarray(queries, dtype=np.float64)
        return np.stack([self.query(q, k) for q in queries])

    def query_radius(self, point: np.ndarray, radius: float) -> np.ndarray:
        """All stored indices within ``radius`` of ``point``: a 1-D
        int64 array in ascending index order."""
        point = np.asarray(point, dtype=np.float64)
        if radius <= 0:
            raise ValueError("radius must be positive")
        found: List[int] = []
        self._search_radius(0, point, radius * radius, found)
        return np.array(sorted(found), dtype=np.int64)

    def _search(
        self,
        node: int,
        point: np.ndarray,
        k: int,
        heap: List[Tuple[float, int]],
    ) -> None:
        if node < 0:
            return
        idx = self._point_index[node]
        d2 = float(np.sum((self.points[idx] - point) ** 2))
        if len(heap) < k:
            heapq.heappush(heap, (-d2, int(idx)))
        elif d2 < -heap[0][0]:
            heapq.heapreplace(heap, (-d2, int(idx)))
        axis = self._axis[node]
        delta = float(point[axis] - self._split[node])
        near, far = (
            (self._left[node], self._right[node])
            if delta <= 0
            else (self._right[node], self._left[node])
        )
        self._search(near, point, k, heap)
        if len(heap) < k or delta * delta < -heap[0][0]:
            self._search(far, point, k, heap)

    def _search_radius(
        self, node: int, point: np.ndarray, r2: float, found: List[int]
    ) -> None:
        if node < 0:
            return
        idx = self._point_index[node]
        if float(np.sum((self.points[idx] - point) ** 2)) <= r2:
            found.append(int(idx))
        axis = self._axis[node]
        delta = float(point[axis] - self._split[node])
        near, far = (
            (self._left[node], self._right[node])
            if delta <= 0
            else (self._right[node], self._left[node])
        )
        self._search_radius(near, point, r2, found)
        if delta * delta <= r2:
            self._search_radius(far, point, r2, found)

