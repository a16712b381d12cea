"""Input sanitization for point clouds entering the pipeline.

The paper's target deployments (AR/VR headsets, LiDAR streams,
Sec. 2.1.1) feed the pipeline sensor frames that are routinely
degenerate: NaN returns from absorbing surfaces, empty sweeps, points
far outside the calibrated scene box, frames collapsed onto a single
voxel by a stuck sensor.  :func:`sanitize_cloud` is the single boundary
where those pathologies are detected and either rejected, repaired, or
clamped — everything past this boundary may assume a finite, correctly
shaped ``(N, 3)`` float cloud.

This module deliberately depends only on NumPy and
:mod:`repro.geometry.bbox` so that low-level consumers
(:class:`~repro.core.streaming.StreamingMortonOrder`, the dataset
loaders) can call it without inverting the dependency layering.  The
online quality guards built on top live in
:mod:`repro.robustness.guard`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.bbox import BoundingBox

#: The three sanitization policies.
POLICY_ACTIONS = ("reject", "repair", "clamp")

#: Issue kinds a report may carry.
ISSUE_KINDS = (
    "bad_dtype",
    "bad_shape",
    "extra_channels",
    "non_finite",
    "out_of_box",
    "undersized",
    "duplicate_collapse",
)


@dataclass(frozen=True)
class ValidationPolicy:
    """How the sanitization boundary treats invalid input.

    Attributes:
        on_invalid: ``"reject"`` raises :class:`CloudValidationError`
            on any fixable issue; ``"repair"`` drops offending points;
            ``"clamp"`` pulls offending coordinates back into the
            bounding box instead of dropping the point.
        min_points: clouds smaller than this (after any repair) are
            always rejected — no policy can invent points.
        bounding_box: optional calibrated scene box.  When given,
            points outside it are treated per ``on_invalid``; when
            ``None`` the out-of-box check is skipped.
        min_unique_fraction: if the fraction of distinct points drops
            below this, the cloud is flagged as duplicate-collapsed
            (a stuck sensor emitting one return).  0 disables the
            check except for the always-on "all points identical"
            case.
    """

    on_invalid: str = "reject"
    min_points: int = 1
    bounding_box: Optional[BoundingBox] = None
    min_unique_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.on_invalid not in POLICY_ACTIONS:
            raise ValueError(
                f"on_invalid must be one of {POLICY_ACTIONS}, "
                f"got {self.on_invalid!r}"
            )
        if self.min_points < 1:
            raise ValueError("min_points must be positive")
        if not 0.0 <= self.min_unique_fraction <= 1.0:
            raise ValueError("min_unique_fraction must be in [0, 1]")

    @classmethod
    def reject(cls, **kwargs) -> "ValidationPolicy":
        return cls(on_invalid="reject", **kwargs)

    @classmethod
    def repair(cls, **kwargs) -> "ValidationPolicy":
        return cls(on_invalid="repair", **kwargs)

    @classmethod
    def clamp(cls, **kwargs) -> "ValidationPolicy":
        return cls(on_invalid="clamp", **kwargs)


@dataclass(frozen=True)
class ValidationIssue:
    """One detected pathology and what was done about it."""

    kind: str
    count: int
    action: str  # "rejected" | "dropped" | "clamped" | "flagged"
    detail: str = ""

    def __str__(self) -> str:
        base = f"{self.kind}: {self.count} point(s) {self.action}"
        return f"{base} ({self.detail})" if self.detail else base


@dataclass
class ValidationReport:
    """Structured outcome of one :func:`sanitize_cloud` call."""

    n_input: int
    n_output: int
    issues: List[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the cloud passed through untouched."""
        return not self.issues

    @property
    def dropped(self) -> int:
        return self.n_input - self.n_output

    def add(self, kind: str, count: int, action: str, detail: str = ""):
        self.issues.append(ValidationIssue(kind, count, action, detail))

    def summary(self) -> str:
        if self.ok:
            return f"clean cloud of {self.n_input} points"
        return (
            f"{self.n_input} -> {self.n_output} points; "
            + "; ".join(str(issue) for issue in self.issues)
        )


class CloudValidationError(ValueError):
    """Raised when a cloud cannot (or must not) be sanitized.

    Carries the partial :class:`ValidationReport` so callers can turn
    the failure into a structured rejection instead of a crash.
    """

    def __init__(self, message: str, report: ValidationReport) -> None:
        super().__init__(message)
        self.report = report


def count_non_finite(points: np.ndarray) -> int:
    """Number of points with at least one NaN/Inf coordinate."""
    points = np.asarray(points)
    if points.size == 0:
        return 0
    return int((~np.isfinite(points).all(axis=-1)).sum())


def count_distinct_rows(points: np.ndarray) -> int:
    """Number of distinct rows of a non-empty ``(N, D)`` array, counted
    as ``np.unique(points, axis=0)`` counts them (``-0.0 == 0.0``, a
    row holding NaN differs from every row): lexsort the columns, then
    count the adjacent rows that differ."""
    ranked = points[np.lexsort(points.T)]
    return 1 + int((ranked[1:] != ranked[:-1]).any(axis=1).sum())


def ensure_finite(points: np.ndarray, name: str = "points") -> None:
    """Raise a count-bearing ``ValueError`` on non-finite coordinates."""
    bad = count_non_finite(points)
    if bad:
        raise ValueError(
            f"{name}: {bad} of {np.asarray(points).shape[0]} points "
            "have non-finite coordinates"
        )


def _reject(report: ValidationReport, message: str) -> None:
    raise CloudValidationError(message, report)


def sanitize_cloud(
    points: np.ndarray,
    policy: Optional[ValidationPolicy] = None,
) -> Tuple[np.ndarray, ValidationReport]:
    """Sanitize one ``(N, 3)`` cloud according to ``policy``.

    Returns ``(cleaned_points, report)``.  Raises
    :class:`CloudValidationError` when the policy is ``reject`` and an
    issue is found, or — under any policy — when the cloud is
    unusable (wrong dtype, wrong shape, fewer than ``min_points``
    points after repair).
    """
    policy = policy or ValidationPolicy()
    try:
        arr = np.asarray(points)
        if arr.dtype == object or not np.issubdtype(
            arr.dtype, np.number
        ):
            raise TypeError
        arr = arr.astype(np.float64)
    except (TypeError, ValueError):
        report = ValidationReport(0, 0)
        report.add("bad_dtype", 0, "rejected", "non-numeric data")
        _reject(report, "cloud is not a numeric array")
    report = ValidationReport(
        n_input=arr.shape[0] if arr.ndim >= 1 else 0, n_output=0
    )
    # Shape: (N, 3) required; extra channels (LiDAR intensity etc.)
    # are sliced off under repair/clamp, rejected under reject.
    if arr.ndim != 2 or arr.shape[-1] < 3:
        report.add("bad_shape", 0, "rejected", f"shape {arr.shape}")
        _reject(
            report, f"expected an (N, 3) cloud, got shape {arr.shape}"
        )
    if arr.shape[1] > 3:
        if policy.on_invalid == "reject":
            report.add(
                "extra_channels", arr.shape[0], "rejected",
                f"{arr.shape[1]} columns",
            )
            _reject(
                report,
                f"expected 3 coordinate columns, got {arr.shape[1]}",
            )
        report.add(
            "extra_channels", arr.shape[0], "clamped",
            f"kept first 3 of {arr.shape[1]} columns",
        )
        arr = arr[:, :3]

    # Non-finite coordinates ------------------------------------------
    finite_rows = np.isfinite(arr).all(axis=1)
    bad = int((~finite_rows).sum())
    if bad:
        if policy.on_invalid == "reject":
            report.add("non_finite", bad, "rejected")
            _reject(
                report,
                f"{bad} of {arr.shape[0]} points have non-finite "
                "coordinates",
            )
        elif policy.on_invalid == "repair":
            arr = arr[finite_rows]
            report.add("non_finite", bad, "dropped")
        else:  # clamp: NaN -> box center, +/-Inf -> box faces.
            box = policy.bounding_box
            if box is None:
                if not finite_rows.any():
                    report.add("non_finite", bad, "rejected")
                    _reject(
                        report,
                        "no finite points to derive a clamp box from",
                    )
                box = BoundingBox.of_points(arr[finite_rows])
            arr = arr.copy()
            nan_mask = np.isnan(arr)
            center = np.broadcast_to(box.center, arr.shape)
            arr[nan_mask] = center[nan_mask]
            arr = np.clip(arr, box.minimum, box.maximum)
            report.add("non_finite", bad, "clamped")

    # Out-of-box points (only with a calibrated box) ------------------
    if policy.bounding_box is not None and arr.shape[0]:
        inside = policy.bounding_box.contains(arr)
        outside = int((~inside).sum())
        if outside:
            if policy.on_invalid == "reject":
                report.add("out_of_box", outside, "rejected")
                _reject(
                    report,
                    f"{outside} of {arr.shape[0]} points fall outside "
                    "the calibrated bounding box",
                )
            elif policy.on_invalid == "repair":
                arr = arr[inside]
                report.add("out_of_box", outside, "dropped")
            else:
                arr = np.clip(
                    arr,
                    policy.bounding_box.minimum,
                    policy.bounding_box.maximum,
                )
                report.add("out_of_box", outside, "clamped")

    # Size floor: no policy can invent points -------------------------
    if arr.shape[0] < policy.min_points:
        report.n_output = arr.shape[0]
        report.add(
            "undersized", arr.shape[0], "rejected",
            f"minimum is {policy.min_points}",
        )
        _reject(
            report,
            f"cloud holds {arr.shape[0]} usable point(s), "
            f"need at least {policy.min_points}",
        )

    # Duplicate collapse ----------------------------------------------
    if arr.shape[0] >= 2:
        unique = count_distinct_rows(arr)
        collapsed_to_one = unique == 1
        below_floor = (
            policy.min_unique_fraction > 0
            and unique / arr.shape[0] < policy.min_unique_fraction
        )
        if collapsed_to_one or below_floor:
            detail = f"{unique} distinct of {arr.shape[0]}"
            if policy.on_invalid == "reject":
                report.add(
                    "duplicate_collapse", arr.shape[0] - unique,
                    "rejected", detail,
                )
                _reject(
                    report,
                    f"cloud is duplicate-collapsed ({detail})",
                )
            # Repair/clamp cannot add information; flag and continue
            # (downstream kernels tolerate duplicates).
            report.add(
                "duplicate_collapse", arr.shape[0] - unique,
                "flagged", detail,
            )

    report.n_output = arr.shape[0]
    return arr, report


def sanitize_batch(
    xyz: np.ndarray,
    policy: Optional[ValidationPolicy] = None,
) -> Tuple[np.ndarray, List[ValidationReport]]:
    """Sanitize a ``(B, N, 3)`` batch, preserving its rectangular shape.

    Each cloud is sanitized independently.  When repair drops points,
    the cloud is padded back to ``N`` by cycling its surviving points
    (a duplicate is harmless to the max-pooled aggregations, whereas a
    ragged batch would break every downstream kernel).  Raises
    :class:`CloudValidationError` if any cloud is unusable.
    """
    policy = policy or ValidationPolicy()
    arr = np.asarray(xyz)
    if arr.ndim != 3 or arr.shape[-1] < 3:
        report = ValidationReport(0, 0)
        report.add("bad_shape", 0, "rejected", f"shape {arr.shape}")
        _reject(
            report, f"expected a (B, N, 3) batch, got shape {arr.shape}"
        )
    n = arr.shape[1]
    cleaned = []
    reports = []
    for b in range(arr.shape[0]):
        cloud, report = sanitize_cloud(arr[b], policy)
        if cloud.shape[0] < n:
            pad = np.take(
                cloud,
                np.arange(n - cloud.shape[0]) % cloud.shape[0],
                axis=0,
            )
            cloud = np.concatenate([cloud, pad])
            report.add(
                "undersized", n - report.n_output, "clamped",
                "padded by cycling surviving points",
            )
            report.n_output = n
        cleaned.append(cloud)
        reports.append(report)
    return np.stack(cleaned), reports
