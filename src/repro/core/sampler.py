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
from repro.core.structurize import (
    BatchedMortonOrder,
    MortonOrder,
    structurize_batch,
)
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


@dataclass(frozen=True)
class MortonSampleResult:
    """Output of the Morton sampler.

    Attributes:
        indices: ``(n,)`` original-point indices of the samples.
        order: the :class:`MortonOrder` built (reusable by the neighbor
            searcher on the same layer at zero extra cost, Sec. 5.2.3).
        sampled_ranks: ``(n,)`` sorted-order ranks that were picked.
    """

    indices: np.ndarray
    order: MortonOrder
    sampled_ranks: np.ndarray

    def __len__(self) -> int:
        return self.indices.shape[0]


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
        """Samples per cloud (matches ``len(MortonSampleResult)``)."""
        return self.indices.shape[1]

    @property
    def num_clouds(self) -> int:
        return self.indices.shape[0]

    def cloud(self, b: int) -> MortonSampleResult:
        """Per-cloud :class:`MortonSampleResult` view of batch row
        ``b``."""
        return MortonSampleResult(
            indices=self.indices[b],
            order=self.order.cloud(b),
            sampled_ranks=self.sampled_ranks,
        )


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

    def sample(
        self,
        points: np.ndarray,
        num_samples: int,
        order: Optional[MortonOrder] = None,
    ) -> MortonSampleResult:
        """Sample ``num_samples`` of ``(N, 3)`` points (Algorithm 1).

        The ``B=1`` view of :meth:`sample_batch`.  Pass a precomputed
        ``order`` to skip code generation + sort when the cloud was
        already structurized (e.g. by an earlier layer).
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got {points.shape}")
        batched = None
        if order is not None:
            batched = BatchedMortonOrder.from_single(order)
        return self.sample_batch(points[None], num_samples, batched).cloud(0)

    def sample_batch(
        self,
        points: np.ndarray,
        num_samples: int,
        order: Optional[BatchedMortonOrder] = None,
    ) -> BatchedSampleResult:
        """Algorithm 1 over a whole ``(B, N, 3)`` batch at once: one
        encode, one sort, one stride pick.

        Pass a precomputed ``order`` to skip code generation + sort.
        """
        points = np.asarray(points, dtype=np.float64)
        if order is None:
            order = structurize_batch(
                points, self.code_bits, self.bounding_box
            )
        elif (
            points.ndim != 3
            or order.num_clouds != points.shape[0]
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
    unoptimized FP modules.

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
    d2 = (
        np.sum(points**2, axis=2)[:, :, None]
        - 2.0 * points @ sampled_xyz.transpose(0, 2, 1)
        + np.sum(sampled_xyz**2, axis=2)[:, None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    k = min(NUM_ANCHORS, sampled_xyz.shape[1])
    pick = np.argsort(d2, axis=2, kind="stable")[:, :, :k]
    inv = 1.0 / np.maximum(np.take_along_axis(d2, pick, axis=2), 1e-10)
    weights = inv / inv.sum(axis=2, keepdims=True)
    return pick, weights
