"""Design-space exploration for EdgePC's knobs (paper Secs. 5.1.3, 6.3).

The paper tunes three axes against three objectives:

=================  ==================================================
axis               objective it moves
=================  ==================================================
Morton code width  memory overhead vs. quantization (false neighbors)
search window W    neighbor-search speedup vs. false neighbor ratio
# optimized layers speedup vs. accuracy
=================  ==================================================

:func:`explore_window_sizes` and :func:`explore_code_bits` measure the
empirical side (false neighbor ratio on a concrete cloud) together with
the analytic operation-count speedup; the result records feed Fig. 15's
sensitivity benchmarks and the ``EXPERIMENTS.md`` tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core import morton
from repro.core.neighbor import MortonNeighborSearch
from repro.core.structurize import structurize_batch
from repro.neighbors.brute import knn, pairwise_operation_count
from repro.neighbors.metrics import false_neighbor_ratio


@dataclass(frozen=True)
class WindowDesignPoint:
    """One row of the window-size sensitivity sweep (Fig. 15a)."""

    window: int
    window_multiplier: float
    false_neighbor_ratio: float
    search_speedup: float


@dataclass(frozen=True)
class CodeBitsDesignPoint:
    """One row of the code-width sweep (Sec. 5.1.3 / 6.1.3)."""

    code_bits: int
    bits_per_axis: int
    memory_bytes: float
    false_neighbor_ratio: float


def explore_window_sizes(
    points: np.ndarray,
    k: int,
    multipliers: Sequence[float] = (1, 2, 4, 8, 16),
    code_bits: int = morton.DEFAULT_CODE_BITS,
    query_indices: Optional[np.ndarray] = None,
) -> List[WindowDesignPoint]:
    """Sweep the search window and report FNR + analytic speedup.

    Speedup is the ratio of brute-force distance evaluations
    (``Q x N``) to windowed evaluations (``Q x W``), the same quantity
    the paper's Fig. 15a tracks.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    batch = points[None]
    order = structurize_batch(batch, code_bits)
    if query_indices is None:
        query_indices = np.arange(n)
    query_indices = np.asarray(query_indices)
    exact = knn(points[query_indices], points, k)
    results = []
    for multiplier in multipliers:
        window = min(n, max(k, int(round(multiplier * k))))
        searcher = MortonNeighborSearch(k, window, code_bits)
        approx = searcher.search_batch(batch, query_indices, order)[0]
        fnr = false_neighbor_ratio(approx, exact)
        brute_ops = pairwise_operation_count(query_indices.shape[0], n)
        approx_ops = searcher.operation_count(query_indices.shape[0])
        results.append(
            WindowDesignPoint(
                window=window,
                window_multiplier=window / k,
                false_neighbor_ratio=fnr,
                search_speedup=brute_ops / approx_ops,
            )
        )
    return results


def explore_code_bits(
    points: np.ndarray,
    k: int,
    code_bits_options: Sequence[int] = (12, 18, 24, 32, 48, 63),
    window_multiplier: int = 2,
    query_indices: Optional[np.ndarray] = None,
) -> List[CodeBitsDesignPoint]:
    """Sweep the Morton code width.

    Reproduces the Sec. 6.1.3 finding: FNR falls as the code widens and
    saturates around 32 bits, while memory grows linearly (``N a / 8``).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if query_indices is None:
        query_indices = np.arange(n)
    query_indices = np.asarray(query_indices)
    exact = knn(points[query_indices], points, k)
    window = min(n, window_multiplier * k)
    batch = points[None]
    results = []
    for code_bits in code_bits_options:
        order = structurize_batch(batch, code_bits)
        searcher = MortonNeighborSearch(k, window, code_bits)
        approx = searcher.search_batch(batch, query_indices, order)[0]
        results.append(
            CodeBitsDesignPoint(
                code_bits=code_bits,
                bits_per_axis=morton.bits_per_axis(code_bits),
                memory_bytes=morton.code_memory_bytes(n, code_bits),
                false_neighbor_ratio=false_neighbor_ratio(approx, exact),
            )
        )
    return results


def pareto_front(
    points: Sequence[WindowDesignPoint],
) -> List[WindowDesignPoint]:
    """Design points not dominated on (FNR, speedup).

    A point dominates another if it is no worse on both objectives and
    strictly better on at least one (lower FNR, higher speedup).
    """
    front = []
    for p in points:
        dominated = any(
            (
                q.false_neighbor_ratio <= p.false_neighbor_ratio
                and q.search_speedup >= p.search_speedup
                and (
                    q.false_neighbor_ratio < p.false_neighbor_ratio
                    or q.search_speedup > p.search_speedup
                )
            )
            for q in points
        )
        if not dominated:
            front.append(p)
    return front
