"""Deterministic fault injection, the harness of the guarded-pipeline
and guarded-serving tests.

Models the sensor pathologies the guarded pipeline must survive
(Sec. 2.1.1's AR/VR and LiDAR deployments): NaN returns, dropped
points, saturated axes, truncated sweeps, and duplicate storms from a
stuck emitter.  Every fault is seeded per ``(injector seed, spec
name)`` so a failing matrix entry reproduces bit-for-bit.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: The supported fault kinds.
FAULT_KINDS = (
    "nan_salt",         # random coordinates replaced by NaN
    "inf_salt",         # random coordinates replaced by +/-Inf
    "dropout",          # random points removed
    "axis_saturation",  # one axis railed to +/-magnitude
    "frame_truncation", # the tail of the frame never arrives
    "duplicate_storm",  # points replaced by copies of one return
)


@dataclass(frozen=True)
class FaultSpec:
    """One reproducible fault to inject.

    Attributes:
        name: unique label; also salts the fault's random stream.
        kind: one of :data:`FAULT_KINDS`.
        fraction: fraction of points (or coordinates) affected.
        axis: target axis for ``axis_saturation``.
        magnitude: rail value for ``axis_saturation``.
    """

    name: str
    kind: str
    fraction: float = 0.1
    axis: int = 0
    magnitude: float = 1e9

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {FAULT_KINDS}"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.axis not in (0, 1, 2):
            raise ValueError("axis must be 0, 1, or 2")
        if self.magnitude <= 0:
            raise ValueError("magnitude must be positive")


def standard_faults() -> Tuple[FaultSpec, ...]:
    """The fault matrix the robustness suite drives end-to-end."""
    return (
        FaultSpec("nan_salting", "nan_salt", fraction=0.05),
        FaultSpec("heavy_nan_salting", "nan_salt", fraction=0.5),
        FaultSpec("inf_salting", "inf_salt", fraction=0.05),
        FaultSpec("point_dropout", "dropout", fraction=0.3),
        FaultSpec(
            "axis_saturation", "axis_saturation",
            fraction=0.2, axis=2, magnitude=1e9,
        ),
        FaultSpec("frame_truncation", "frame_truncation", fraction=0.75),
        FaultSpec("empty_sweep", "frame_truncation", fraction=1.0),
        FaultSpec("duplicate_storm", "duplicate_storm", fraction=0.9),
    )


class FaultInjector:
    """Applies :class:`FaultSpec`\\ s to clouds, deterministically.

    The random stream for a fault depends only on the injector seed
    and the spec's name — not on call order — so individual matrix
    entries can be reproduced in isolation.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def _rng(self, spec: FaultSpec) -> np.random.Generator:
        return np.random.default_rng(
            (self.seed, zlib.crc32(spec.name.encode("utf-8")))
        )

    def apply(self, points: np.ndarray, spec: FaultSpec) -> np.ndarray:
        """Return a faulted copy of an ``(N, 3)`` cloud.

        ``dropout`` and ``frame_truncation`` change the point count;
        the other kinds preserve it.
        """
        points = np.array(points, dtype=np.float64, copy=True)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(
                f"expected (N, 3) points, got {points.shape}"
            )
        n = points.shape[0]
        if n == 0:
            return points
        rng = self._rng(spec)
        if spec.kind in ("nan_salt", "inf_salt"):
            hit = rng.random(n) < spec.fraction
            coords = rng.integers(0, 3, size=n)
            if spec.kind == "nan_salt":
                values = np.full(n, np.nan)
            else:
                values = np.where(rng.random(n) < 0.5, -np.inf, np.inf)
            rows = np.flatnonzero(hit)
            points[rows, coords[rows]] = values[rows]
        elif spec.kind == "dropout":
            keep = max(1, int(round(n * (1.0 - spec.fraction))))
            kept = np.sort(rng.choice(n, size=keep, replace=False))
            points = points[kept]
        elif spec.kind == "axis_saturation":
            hit = np.flatnonzero(rng.random(n) < spec.fraction)
            sign = np.where(rng.random(hit.shape[0]) < 0.5, -1.0, 1.0)
            points[hit, spec.axis] = sign * spec.magnitude
        elif spec.kind == "frame_truncation":
            keep = int(np.floor(n * (1.0 - spec.fraction)))
            points = points[:keep]
        elif spec.kind == "duplicate_storm":
            source = int(rng.integers(n)) if n else 0
            hit = np.flatnonzero(rng.random(n) < spec.fraction)
            points[hit] = points[source]
        return points

    def apply_batch(
        self, xyz: np.ndarray, spec: FaultSpec
    ) -> np.ndarray:
        """Fault every cloud of a ``(B, N, 3)`` batch.

        Count-changing faults remove the same rows from every cloud so
        the result stays rectangular.
        """
        xyz = np.asarray(xyz, dtype=np.float64)
        if xyz.ndim != 3 or xyz.shape[2] != 3:
            raise ValueError(f"expected (B, N, 3), got {xyz.shape}")
        return np.stack(
            [self.apply(xyz[b], spec) for b in range(xyz.shape[0])]
        )
