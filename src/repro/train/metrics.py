"""Evaluation metrics: overall accuracy and mean IoU.

These are the metrics the PC CNN literature reports: overall (point or
instance) accuracy for classification, and mean intersection-over-union
for segmentation tasks.
"""

from __future__ import annotations

import numpy as np


def overall_accuracy(
    predictions: np.ndarray, targets: np.ndarray
) -> float:
    """Fraction of correct predictions over any matching shapes."""
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.shape != targets.shape:
        raise ValueError("prediction/target shape mismatch")
    if predictions.size == 0:
        raise ValueError("empty prediction array")
    return float((predictions == targets).mean())


def confusion_matrix(
    predictions: np.ndarray, targets: np.ndarray, num_classes: int
) -> np.ndarray:
    """``(C, C)`` counts with rows = true class, columns = predicted."""
    predictions = np.asarray(predictions).reshape(-1)
    targets = np.asarray(targets).reshape(-1)
    if predictions.shape != targets.shape:
        raise ValueError("prediction/target shape mismatch")
    if num_classes < 1:
        raise ValueError("num_classes must be positive")
    if targets.min() < 0 or targets.max() >= num_classes:
        raise ValueError("target label out of range")
    if predictions.min() < 0 or predictions.max() >= num_classes:
        raise ValueError("predicted label out of range")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (targets, predictions), 1)
    return matrix


def mean_iou(
    predictions: np.ndarray,
    targets: np.ndarray,
    num_classes: int,
    ignore_empty: bool = True,
) -> float:
    """Mean per-class intersection-over-union.

    Classes absent from both prediction and target are skipped when
    ``ignore_empty`` (the standard convention), so a batch that simply
    lacks a class does not drag the mean to zero.
    """
    matrix = confusion_matrix(predictions, targets, num_classes)
    intersection = np.diag(matrix).astype(np.float64)
    union = (
        matrix.sum(axis=0) + matrix.sum(axis=1) - np.diag(matrix)
    ).astype(np.float64)
    if ignore_empty:
        valid = union > 0
        if not valid.any():
            return 0.0
        return float((intersection[valid] / union[valid]).mean())
    union = np.maximum(union, 1.0)
    return float((intersection / union).mean())


def per_class_accuracy(
    predictions: np.ndarray,
    targets: np.ndarray,
    num_classes: int,
) -> np.ndarray:
    """Recall per class; NaN for classes absent from the targets."""
    matrix = confusion_matrix(predictions, targets, num_classes)
    totals = matrix.sum(axis=1).astype(np.float64)
    out = np.full(num_classes, np.nan)
    present = totals > 0
    out[present] = np.diag(matrix)[present] / totals[present]
    return out
