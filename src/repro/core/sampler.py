"""EdgePC's Morton-code-based sampler (paper Sec. 5.1, Algorithm 1).

Down-sampling replaces FPS with three steps: Morton code generation
(``O(N)``, fully parallel), a sort (``O(N log N)``), and a uniform
stride pick over the sorted order (``O(n)``, fully parallel).  The
up-sampler replaces the interpolation stage's nearest-sampled-point
search (``O(n)`` per point) with a constant-size candidate set derived
from stride arithmetic: the 4 sampled points at strides ``-2, -1, +1,
+2`` around a point's own stride block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import morton
from repro.core.structurize import BatchedMortonOrder, structurize_batch
from repro.geometry.bbox import BoundingBox
from repro.neighbors.grid import (
    GridQueryStats,
    UniformGridIndex,
    suggest_cell_size,
)
from repro.robustness.validate import ensure_finite
from repro.sampling.uniform import uniform_stride_indices

#: Stride offsets of the up-sampler's candidate samples around a
#: point's own stride block (Sec. 5.1.2).
CANDIDATE_STRIDES = (-2, -1, 1, 2)
#: Candidate samples per up-sampled point (priced by the cost model).
NUM_CANDIDATES = len(CANDIDATE_STRIDES)
#: Inverse-distance anchors per interpolated point, in both the Morton
#: and the exact (3-NN) interpolation.
NUM_ANCHORS = 3
#: Size of one block of squared distances in the exact interpolation.
#: The fine points are scanned ``EXACT_BLOCK_BYTES // (8·B·n)`` rows at
#: a time so each block stays cache-resident (32 rows at B=1, n=2048).
EXACT_BLOCK_BYTES = 1 << 19
#: Fine points scored together against one 27-cell ring by
#: :func:`exact_interpolation_weights_grid_batch`.
GRID_TILE_ROWS = 8


@dataclass(frozen=True)
class BatchedSampleResult:
    """Output of the batched Morton sampler.

    Attributes:
        indices: ``(B, n)`` original-point indices of the samples.
        order: the :class:`BatchedMortonOrder` built (reusable by the
            batched neighbor search on the same layer, Sec. 5.2.3).
        sampled_ranks: ``(n,)`` sorted-order ranks that were picked —
            shared across the batch because the uniform stride depends
            only on ``N`` and ``n``.
    """

    indices: np.ndarray
    order: BatchedMortonOrder
    sampled_ranks: np.ndarray

    def __len__(self) -> int:
        """Samples per cloud."""
        return self.indices.shape[1]

    @property
    def num_clouds(self) -> int:
        return self.indices.shape[0]


class MortonSampler:
    """Approximate down-sampler: uniform stride over the Morton order.

    Args:
        code_bits: Morton code width ``a`` (default 32, Sec. 5.1.3).
        bounding_box: optional fixed quantization domain shared across
            frames; defaults to each cloud's tight box.
    """

    def __init__(
        self,
        code_bits: int = morton.DEFAULT_CODE_BITS,
        bounding_box: Optional[BoundingBox] = None,
    ) -> None:
        morton.bits_per_axis(code_bits)  # validate early
        self.code_bits = code_bits
        self.bounding_box = bounding_box

    def sample_batch(
        self,
        points: np.ndarray,
        num_samples: int,
        order: Optional[BatchedMortonOrder] = None,
    ) -> BatchedSampleResult:
        """Algorithm 1 over a whole ``(B, N, 3)`` batch at once: one
        encode, one sort, one stride pick.

        Pass a precomputed ``order`` to skip code generation + sort
        when the clouds were already structurized (e.g. by an earlier
        layer).  A single ``(N, 3)`` cloud is the batch
        ``points[None]``.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 3 or points.shape[2] != 3:
            raise ValueError(
                f"expected (B, N, 3) points, got {points.shape}"
            )
        if order is None:
            order = structurize_batch(
                points, self.code_bits, self.bounding_box
            )
        elif (
            order.num_clouds != points.shape[0]
            or len(order) != points.shape[1]
        ):
            raise ValueError("Morton order does not match the point count")
        else:
            # structurize_batch() validates its own input; a
            # precomputed order bypasses it, so check here.
            ensure_finite(points.reshape(-1, 3), "sample")
        ranks = uniform_stride_indices(len(order), num_samples)
        return BatchedSampleResult(
            indices=order.permutation[:, ranks],
            order=order,
            sampled_ranks=ranks,
        )


class MortonUpsampler:
    """Approximate interpolation for FP modules (paper 'Optimizing
    Up-sampling').

    Given a cloud of ``N`` points down-sampled by the Morton sampler to
    ``n`` points at stride ``step = N / n``, the :data:`NUM_ANCHORS`
    interpolation anchors of point ``j`` (sorted rank) are chosen among
    the :data:`NUM_CANDIDATES` samples at ranks ``j' - 2*step,
    j' - step, j' + step, j' + 2*step`` with ``j' = j - j % step``,
    instead of searched over all ``n`` samples.
    """

    def candidate_sample_slots(
        self,
        num_points: int,
        sample_result: BatchedSampleResult,
    ) -> np.ndarray:
        """``(N, NUM_CANDIDATES)`` int64 sample slots per sorted rank.

        Slot ``s`` means "the s-th sampled point" (row into the sampled
        feature matrix).  Out-of-range candidates are clamped to the
        valid slot range, mirroring the edge handling of the reference
        implementation (the first/last stride blocks see their nearest
        in-range samples instead).
        """
        num_samples = len(sample_result)
        if num_samples < 1:
            raise ValueError("sample result is empty")
        step = num_points / num_samples
        ranks = np.arange(num_points, dtype=np.float64)
        block = np.floor(ranks / step)  # j' / step, the owning slot
        offsets = np.array(CANDIDATE_STRIDES, dtype=np.float64)
        slots = block[:, None] + offsets[None, :]
        return np.clip(slots, 0, num_samples - 1).astype(np.int64)

    def interpolation_weights_batch(
        self,
        points: np.ndarray,
        sample_result: BatchedSampleResult,
    ) -> tuple:
        """Anchors and inverse-distance weights for feature propagation
        over a ``(B, N, 3)`` batch.

        Returns:
            ``(anchor_slots, weights)`` of shape
            ``(B, N, NUM_ANCHORS)``: rows into each cloud's sampled set
            and the matching convex weights (inverse-distance, as in
            PointNet++ FP).  Rows follow each cloud's *sorted* order;
            use ``sample_result.order.ranks`` to map back.
        """
        points = np.asarray(points, dtype=np.float64)
        order = sample_result.order
        if points.ndim != 3 or points.shape[2] != 3:
            raise ValueError(
                f"expected (B, N, 3) points, got {points.shape}"
            )
        if (
            order.num_clouds != points.shape[0]
            or len(order) != points.shape[1]
        ):
            raise ValueError("order does not match point count")
        n_points = points.shape[1]
        slots = self.candidate_sample_slots(n_points, sample_result)
        sorted_points = order.sorted_points(points)
        sampled_xyz = np.take_along_axis(
            points, sample_result.indices[:, :, None], axis=1
        )
        candidates = sampled_xyz[:, slots]  # (B, N, C, 3)
        d2 = np.sum(
            (candidates - sorted_points[:, :, None, :]) ** 2, axis=3
        )
        pick = np.argsort(d2, axis=2, kind="stable")
        pick = pick[:, :, :NUM_ANCHORS]
        anchor_slots = np.take_along_axis(
            np.broadcast_to(slots, d2.shape), pick, axis=2
        )
        anchor_d2 = np.take_along_axis(d2, pick, axis=2)
        inv = 1.0 / np.maximum(anchor_d2, 1e-10)
        weights = inv / inv.sum(axis=2, keepdims=True)
        return anchor_slots, weights


def exact_interpolation_weights_batch(
    points: np.ndarray, sampled_indices: np.ndarray
) -> tuple:
    """The SOTA interpolation's anchors: 3-NN over the full sampled set.

    Exact counterpart of
    :meth:`MortonUpsampler.interpolation_weights_batch`, used by the
    unoptimized FP modules.  The fine points are scanned in row blocks
    of at most :data:`EXACT_BLOCK_BYTES` of distances, and each block
    keeps its nearest samples by ``k`` first-occurrence ``argmin``
    rounds instead of a full sort.  The result is bit-identical to a
    stable ``argsort`` of ``(|p|² − 2·P·Sᵀ) + |s|²`` (clamped at 0)
    sliced to ``k`` columns: ``argmin`` returns the smallest column
    among equal distances, so the picks come out in ``(d2, column)``
    order.  Rows whose distances overflow to inf/NaN fall back to that
    stable sort.

    Args:
        points: ``(B, N, 3)`` fine-level coordinates.
        sampled_indices: ``(B, n)`` original indices of the samples.

    Returns:
        ``(anchors, weights)`` of shape ``(B, N, min(NUM_ANCHORS, n))``:
        rows into each cloud's sampled set (nearest first) and the
        matching convex inverse-distance weights, in *original* point
        order.
    """
    points = np.asarray(points, dtype=np.float64)
    sampled_xyz = np.take_along_axis(
        points, sampled_indices[:, :, None], axis=1
    )
    batch, n_points = points.shape[:2]
    n_sampled = sampled_xyz.shape[1]
    k = min(NUM_ANCHORS, n_sampled)
    step = max(1, EXACT_BLOCK_BYTES // max(1, 8 * batch * n_sampled))
    p_sq = np.sum(points**2, axis=2)[:, :, None]
    s_sq = np.sum(sampled_xyz**2, axis=2)[:, None, :]
    s_t = sampled_xyz.transpose(0, 2, 1)
    pick = np.empty((batch, n_points, k), dtype=np.intp)
    anchor_d2 = np.empty((batch, n_points, k))
    for lo in range(0, n_points, step):
        hi = min(lo + step, n_points)
        # -(2P)·Sᵀ + |p|² + |s|²: the same bits as (|p|² − 2P·Sᵀ) + |s|²
        # (negating the scale is exact and addition commutes).
        d2 = (-2.0 * points[:, lo:hi]) @ s_t
        d2 += p_sq[:, lo:hi]
        d2 += s_sq
        np.maximum(d2, 0.0, out=d2)
        cols, vals = _nearest_columns(d2.reshape(-1, n_sampled), k)
        pick[:, lo:hi] = cols.reshape(batch, hi - lo, k)
        anchor_d2[:, lo:hi] = vals.reshape(batch, hi - lo, k)
    inv = 1.0 / np.maximum(anchor_d2, 1e-10)
    weights = inv / inv.sum(axis=2, keepdims=True)
    return pick, weights


def _nearest_columns(d2: np.ndarray, k: int) -> tuple:
    """``(cols, values)``: each row's ``k`` smallest entries of ``d2``.

    Same result as ``np.argsort(d2, axis=1, kind="stable")[:, :k]``.
    Each round takes the first-occurrence ``argmin`` and masks it with
    ``+inf`` (``d2`` is scratch).  A non-finite pick makes the mask
    ambiguous, so such rows get their values back and are sorted.
    """
    rows = np.arange(d2.shape[0])
    cols = np.empty((d2.shape[0], k), dtype=np.intp)
    vals = np.empty((d2.shape[0], k))
    d2 = np.ascontiguousarray(d2)  # the masking writes through ``flat``
    flat = d2.reshape(-1)
    row_starts = rows * d2.shape[1]
    for r in range(k):
        col = np.argmin(d2, axis=1)
        cols[:, r] = col
        picked = row_starts + col
        vals[:, r] = flat[picked]
        flat[picked] = np.inf
    bad = ~np.isfinite(vals).all(axis=1)
    if bad.any():
        # Reverse rounds, so a column picked twice gets its first value.
        for r in reversed(range(k)):
            d2[rows[bad], cols[bad, r]] = vals[bad, r]
        redo = d2[bad]
        order = np.argsort(redo, axis=1, kind="stable")[:, :k]
        cols[bad] = order
        vals[bad] = np.take_along_axis(redo, order, axis=1)
    return cols, vals


def exact_interpolation_weights_grid_batch(
    points: np.ndarray,
    sampled_indices: np.ndarray,
    cell_size: Optional[float] = None,
    stats: Optional[GridQueryStats] = None,
) -> tuple:
    """Grid engine of the exact interpolation, for large clouds.

    Returns, byte for byte, what a dense scan returns that scores every
    (point, sample) pair with the direct form ``((px−sx)² + (py−sy)²) +
    (pz−sz)²`` and keeps each row's ``k = min(3, n)`` smallest by stable
    ``argsort``.  Each cloud's samples go into a
    :class:`~repro.neighbors.grid.UniformGridIndex`; the fine points are
    grouped by cell into tiles of up to :data:`GRID_TILE_ROWS`, and each
    tile is scored against the samples of its 27-cell ring only, in
    ascending sample index, by the same ``argmin`` rounds as the dense
    kernel.  A row whose k-th distance is not provably below its
    distance to the ring's boundary (less a rounding margin) is scored
    against every sample, and so is every row of a cloud whose
    distances could overflow.

    It is *not* byte-identical to
    :func:`exact_interpolation_weights_batch`, whose BLAS distance
    ``−2P·Sᵀ + |p|² + |s|²`` rounds differently, with bits that depend
    on the block shape, so no pruned engine can reproduce them.  The
    tested contract between the two: the same anchors wherever no two
    distances of a row lie within rounding of each other, and weights
    within ``1e-10``.

    Args:
        points: ``(B, N, 3)`` fine-level coordinates.
        sampled_indices: ``(B, n)`` original indices of the samples.
        cell_size: grid cell side; per cloud
            :func:`~repro.neighbors.grid.suggest_cell_size` of its
            samples when omitted.
        stats: optional scan accounting; ``pairs_scanned`` counts the
            distinct (point, sample) pairs scored — a row's ring, or
            all ``n`` samples for a row that fell back — so it never
            exceeds ``N·n``.

    Returns:
        ``(anchors, weights)`` as
        :func:`exact_interpolation_weights_batch` returns them.
    """
    points = np.asarray(points, dtype=np.float64)
    sampled_xyz = np.take_along_axis(
        points, sampled_indices[:, :, None], axis=1
    )
    batch, n_points = points.shape[:2]
    k = min(NUM_ANCHORS, sampled_xyz.shape[1])
    pick = np.empty((batch, n_points, k), dtype=np.intp)
    anchor_d2 = np.empty((batch, n_points, k))
    stats = stats if stats is not None else GridQueryStats()
    stats.num_queries += batch * n_points
    # Each cloud bins its own samples into its own cell list.
    # repro: allow[PERF-104]
    for b in range(batch):
        _grid_nearest_samples(
            points[b], sampled_xyz[b], k, cell_size, stats,
            pick[b], anchor_d2[b],
        )
    inv = 1.0 / np.maximum(anchor_d2, 1e-10)
    weights = inv / inv.sum(axis=2, keepdims=True)
    return pick, weights


def _direct_d2(q, s, out=None, scratch=None) -> np.ndarray:
    """``((qx−sx)² + (qy−sy)²) + (qz−sz)²`` of broadcastable
    ``(x, y, z)`` component arrays: elementwise in a fixed order, so a
    pair's bits do not depend on what else is scored beside it.
    ``out`` / ``scratch`` are optional result-shaped buffers."""
    d2 = np.subtract(q[0], s[0], out=out)
    d2 *= d2
    t = np.subtract(q[1], s[1], out=scratch)
    t *= t
    d2 += t
    np.subtract(q[2], s[2], out=t)
    t *= t
    d2 += t
    return d2


def _grid_nearest_samples(
    points: np.ndarray,
    samples: np.ndarray,
    k: int,
    cell_size: Optional[float],
    stats: GridQueryStats,
    cols_out: np.ndarray,
    vals_out: np.ndarray,
) -> None:
    """One cloud of :func:`exact_interpolation_weights_grid_batch`:
    writes each row's ``k`` nearest sample slots and distances."""
    n_points, n_samples = points.shape[0], samples.shape[0]
    # The direct form is monotone in each |difference|, so the bounding
    # diagonal bounds every pair: if it overflows, some distance may,
    # and the ring bound proves nothing.
    extent = points.max(axis=0) - points.min(axis=0)
    if not np.isfinite(_direct_d2(extent[:, None], np.zeros((3, 1)))).all():
        _scan_rows(points, samples, np.arange(n_points), k, stats,
                   cols_out, vals_out)
        return
    if cell_size is None:
        cell_size = suggest_cell_size(samples, k)
    index = UniformGridIndex(samples, cell_size)
    cell = index.cell_size
    stats.rounds += 1
    # Queries over one cell outside the grid see an empty ring; the
    # clip keeps far outliers from overflowing the cast.
    base = np.clip(
        np.floor((points - index.origin) / cell), -2, index._dims + 1
    ).astype(np.int64)
    # A sample outside a query's ring lies at least ``gap`` from it,
    # less the rounding of the ring's faces and of the sample's cell;
    # ``slack`` bounds both, and the last factor the rounding of d2.
    magnitude = 3.0 * float(np.abs(points).max()) + 4.0 * cell
    slack = 16.0 * np.finfo(np.float64).eps * magnitude
    gap = np.minimum(
        points - (index.origin + (base - 1) * cell),
        (index.origin + (base + 2) * cell) - points,
    ).min(axis=1) - slack
    safe = np.where(gap > 0.0, gap * gap, 0.0) * (1.0 - 1e-14)
    # Tiles: runs of up to GRID_TILE_ROWS fine points sharing a cell.
    dims = index._dims + 4
    shifted = base + 2
    key = (shifted[:, 0] * dims[1] + shifted[:, 1]) * dims[2] + shifted[:, 2]
    order = np.argsort(key, kind="stable")
    key = key[order]
    new_cell = np.ones(n_points, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new_cell[1:])
    cell_start = np.flatnonzero(new_cell)
    cell_of = np.cumsum(new_cell) - 1  # per sorted row
    lane = (np.arange(n_points) - cell_start[cell_of]) % GRID_TILE_ROWS
    tile_first = lane == 0
    # Pad lanes repeat their tile's first row: the same query against
    # the same ring, so they reproduce that row's result.
    rows = np.repeat(order[tile_first][:, None], GRID_TILE_ROWS, axis=1)
    rows[np.cumsum(tile_first) - 1, lane] = order
    cell_of_tile = cell_of[tile_first]
    # One ring per occupied cell, shared by the cell's tiles.
    starts, ends = index._ring_runs(base[order[cell_start]], 1)
    stats.cells_probed += int(starts.size)
    run_len = ends - starts
    width = run_len.sum(axis=1)
    # A row is proven when its k-th distance lies below its bound, or
    # its ring holds every sample.
    bound = np.where(
        (width[cell_of_tile] == n_samples)[:, None], np.inf, safe[rows]
    )
    # Rows whose ring holds fewer than k samples, or whose ring result
    # is not proven, are scored against every sample at the end.
    unproven = np.zeros(n_points, dtype=bool)
    unproven[order[width[cell_of] < k]] = True
    tile_width = width[cell_of_tile]
    scoreable = np.flatnonzero(tile_width >= k)
    # Tiles of similar width share a padded block; a cell's tiles stay
    # adjacent.
    scoreable = scoreable[np.argsort(tile_width[scoreable], kind="stable")]
    # The pad id ``n_samples`` reads coordinates at +inf: its distance
    # is +inf, and ascending ids put it last.
    padded = np.hstack([samples.T, np.full((3, 1), np.inf)])
    coords = points.T
    budget = max(1, EXACT_BLOCK_BYTES // (8 * GRID_TILE_ROWS))
    # Two block buffers reused by every chunk (a fresh block per chunk
    # costs more in page faults than its arithmetic).
    size = GRID_TILE_ROWS * max(budget, int(width.max()))
    block, scratch = np.empty(size), np.empty(size)
    lo = 0
    while lo < scoreable.shape[0]:
        # Every tile of a chunk pads to its last (widest) tile's width.
        m = min(
            scoreable.shape[0] - lo,
            max(1, budget // int(tile_width[scoreable[lo]])),
        )
        m = max(1, min(m, budget // int(tile_width[scoreable[lo + m - 1]])))
        tiles = scoreable[lo:lo + m]
        lo += m
        cols_w = int(tile_width[tiles[-1]])
        # Each of the chunk's cells gathers its ring once.
        tile_cells = cell_of_tile[tiles]
        first = np.ones(m, dtype=bool)
        np.not_equal(tile_cells[1:], tile_cells[:-1], out=first[1:])
        cells = tile_cells[first]
        ids = np.empty((cells.shape[0], cols_w), dtype=np.int64)
        index._gather_runs(starts[cells], run_len[cells], width[cells], ids)
        ids.sort(axis=1)
        ids = ids[np.cumsum(first) - 1]
        tile_rows = rows[tiles]
        used = m * GRID_TILE_ROWS * cols_w
        d2 = _direct_d2(
            [c[tile_rows][:, :, None] for c in coords],
            [c[ids][:, None, :] for c in padded],
            block[:used].reshape(m, GRID_TILE_ROWS, cols_w),
            scratch[:used].reshape(m, GRID_TILE_ROWS, cols_w),
        ).reshape(m * GRID_TILE_ROWS, cols_w)
        cols, vals = _nearest_columns(d2, k)
        flat_rows = tile_rows.ravel()
        proven = vals[:, -1] < bound[tiles].ravel()
        done = np.flatnonzero(proven)
        cols_out[flat_rows[done]] = ids[
            done[:, None] // GRID_TILE_ROWS, cols[done]
        ]
        vals_out[flat_rows[done]] = vals[done]
        unproven[flat_rows[~proven]] = True
    ring = np.empty(n_points, dtype=np.int64)
    ring[order] = width[cell_of]
    stats.pairs_scanned += int(ring[~unproven].sum())
    _scan_rows(points, samples, np.flatnonzero(unproven), k, stats,
               cols_out, vals_out)


def _scan_rows(
    points: np.ndarray,
    samples: np.ndarray,
    rows: np.ndarray,
    k: int,
    stats: GridQueryStats,
    cols_out: np.ndarray,
    vals_out: np.ndarray,
) -> None:
    """Score ``rows`` of ``points`` against every sample (the grid
    engine's fallback), with the same expression and selection."""
    n_samples = samples.shape[0]
    step = max(1, EXACT_BLOCK_BYTES // (8 * n_samples))
    stats.pairs_scanned += int(rows.shape[0]) * n_samples
    for lo in range(0, rows.shape[0], step):
        block = rows[lo:lo + step]
        d2 = _direct_d2([c[block][:, None] for c in points.T], samples.T)
        cols_out[block], vals_out[block] = _nearest_columns(d2, k)
