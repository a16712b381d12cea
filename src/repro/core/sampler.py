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
    for r in range(k):
        col = np.argmin(d2, axis=1)
        cols[:, r] = col
        vals[:, r] = d2[rows, col]
        d2[rows, col] = np.inf
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
