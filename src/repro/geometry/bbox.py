"""Axis-aligned bounding boxes for point clouds.

EdgePC voxelizes the point-cloud bounding box before generating Morton
codes (paper Sec. 4.1): the box of dimension ``L x W x H`` is divided into
cubes of side ``r`` (the *grid size*), and each point maps to the integer
index of the cube containing it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned bounding box in 3-D space.

    Attributes:
        minimum: ``(3,)`` array with the smallest coordinate on each axis.
        maximum: ``(3,)`` array with the largest coordinate on each axis.
    """

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self) -> None:
        minimum = np.asarray(self.minimum, dtype=np.float64)
        maximum = np.asarray(self.maximum, dtype=np.float64)
        if minimum.shape != (3,) or maximum.shape != (3,):
            raise ValueError("bounding box corners must be 3-vectors")
        if not (
            np.isfinite(minimum).all() and np.isfinite(maximum).all()
        ):
            raise ValueError(
                "bounding box corners must be finite; NaN/Inf corners "
                "would poison every Morton code derived from the box"
            )
        if np.any(maximum < minimum):
            raise ValueError("maximum must be >= minimum on every axis")
        object.__setattr__(self, "minimum", minimum)
        object.__setattr__(self, "maximum", maximum)

    @classmethod
    def of_points(cls, points: np.ndarray) -> "BoundingBox":
        """Compute the tight bounding box of an ``(N, 3)`` point array."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got {points.shape}")
        if points.shape[0] == 0:
            raise ValueError("cannot bound an empty point set")
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            bad = int((~finite).sum())
            raise ValueError(
                f"cannot bound: {bad} of {points.shape[0]} points "
                "have non-finite coordinates"
            )
        return cls(points.min(axis=0), points.max(axis=0))

    @property
    def extent(self) -> np.ndarray:
        """Side lengths ``(L, W, H)`` of the box, float64 ``(3,)``."""
        return self.maximum - self.minimum

    @property
    def longest_side(self) -> float:
        """The paper's ``D``: the dimension of the bounding cube."""
        return float(self.extent.max())

    @property
    def center(self) -> np.ndarray:
        """Box midpoint as a float64 ``(3,)`` coordinate."""
        return (self.minimum + self.maximum) / 2.0

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.extent))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """``(N,)`` boolean mask of which points fall inside
        (inclusive) the box."""
        points = np.asarray(points, dtype=np.float64)
        return np.all(
            (points >= self.minimum) & (points <= self.maximum), axis=-1
        )

    def expanded(self, margin: float) -> "BoundingBox":
        """Return a copy grown by ``margin`` on every side."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        pad = np.full(3, margin, dtype=np.float64)
        return BoundingBox(self.minimum - pad, self.maximum + pad)
