"""Index-space sampler: raw uniform stride.

This is the cheap sampler the paper contrasts with FPS.  Applied to a
*raw* (unordered) cloud, uniform stride sampling gives poor coverage
(paper Fig. 5b); applied to a Morton-sorted cloud, the same stride rule
approaches FPS quality (Fig. 5c) — that second use lives in
:mod:`repro.core.sampler`, built on the primitive here.
"""

from __future__ import annotations

import numpy as np


def uniform_stride_indices(num_points: int, num_samples: int) -> np.ndarray:
    """Every ``N/n``-th index: ``index_k = floor(k * N / n)``.

    This is line 11-12 of the paper's Algorithm 1, expressed over
    positions rather than points — callers map the positions through
    whatever ordering they want (identity for raw clouds, the Morton
    permutation for structurized ones).

    Returns an ``(n,)`` int64 array of strictly increasing positions
    in ``[0, N)``.
    """
    if num_points < 1:
        raise ValueError("num_points must be positive")
    if not 1 <= num_samples <= num_points:
        raise ValueError(
            f"num_samples must be in [1, {num_points}], got {num_samples}"
        )
    return (
        np.arange(num_samples, dtype=np.int64) * num_points // num_samples
    )


def uniform_sample(points: np.ndarray, num_samples: int) -> np.ndarray:
    """Stride-sample a raw ``(N, 3)`` cloud; returns an
    ``(num_samples,)`` int64 index array."""
    points = np.asarray(points)
    return uniform_stride_indices(points.shape[0], num_samples)
