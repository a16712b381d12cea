"""Training, retraining-with-approximation, and evaluation metrics."""

from repro.train.metrics import (
    confusion_matrix,
    mean_iou,
    overall_accuracy,
    per_class_accuracy,
)
from repro.train.trainer import (
    EvalResult,
    RetrainComparison,
    Trainer,
    TrainResult,
    retrain_comparison,
)

__all__ = [
    "Trainer",
    "TrainResult",
    "EvalResult",
    "RetrainComparison",
    "retrain_comparison",
    "overall_accuracy",
    "confusion_matrix",
    "mean_iou",
    "per_class_accuracy",
]
