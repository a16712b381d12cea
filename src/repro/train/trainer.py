"""Training and retraining loops (paper Secs. 5.3, 6.2).

EdgePC's approximations produce sub-optimal samples and false
neighbors, so pre-trained weights lose accuracy when the approximate
kernels are dropped in.  The fix is *retraining with the approximations
in the loop*: the same training procedure, but every forward pass runs
the Morton sampler / window searcher exactly as it will at inference.
:class:`Trainer` implements both the baseline training and that
retraining (the only difference is the model's
:class:`~repro.core.pipeline.EdgePCConfig`), plus evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.datasets.base import Batch
from repro.nn.autograd import Tensor, no_grad
from repro.nn.layers import Module
from repro.nn.losses import cross_entropy
from repro.nn.optim import Adam, Optimizer
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.tracing import NULL_TRACER, Tracer
from repro.train.metrics import mean_iou, overall_accuracy


@dataclass
class TrainResult:
    """Loss/accuracy history of one training run."""

    losses: List[float] = field(default_factory=list)
    train_accuracies: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class EvalResult:
    """Evaluation metrics over a batch list."""

    accuracy: float
    miou: Optional[float] = None


ForwardFn = Callable[[Module, Batch], Tensor]


def _default_forward(model: Module, batch: Batch) -> Tensor:
    return model(batch.xyz)


class Trainer:
    """Epoch-based trainer for the point-cloud models.

    Args:
        model: any model whose ``forward(xyz)`` returns logits with the
            class axis last.
        optimizer: defaults to Adam(1e-3) over the model parameters.
        forward: optional override for models needing extra inputs.
        label_smoothing: passed through to the loss.
        tracer: optional tracer; epochs and evaluations become
            ``train.*`` spans.  Defaults to the no-op tracer.
        metrics: optional registry for batch/epoch counters and the
            last loss/accuracy gauges.  Defaults to the no-op
            :data:`~repro.observability.metrics.NULL_METRICS`.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optional[Optimizer] = None,
        forward: ForwardFn = _default_forward,
        label_smoothing: float = 0.0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer or Adam(model.parameters(), lr=1e-3)
        self.forward = forward
        self.label_smoothing = label_smoothing
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS

    def train_epoch(self, batches: Sequence[Batch]) -> float:
        """One pass over the batches; returns the mean loss."""
        if not batches:
            raise ValueError("no batches to train on")
        self.model.train()
        total = 0.0
        with self.tracer.span("train.epoch", "train") as span:
            for batch in batches:
                self.optimizer.zero_grad()
                logits = self.forward(self.model, batch)
                loss = cross_entropy(
                    logits, batch.labels, self.label_smoothing
                )
                loss.backward()
                self.optimizer.step()
                total += loss.item()
            mean_loss = total / len(batches)
            span.set("batches", len(batches))
            span.set("mean_loss", mean_loss)
        self.metrics.counter("train_epochs_total").inc()
        self.metrics.counter("train_batches_total").inc(len(batches))
        self.metrics.gauge("train_last_loss").set(mean_loss)
        return mean_loss

    def fit(
        self,
        batches: Sequence[Batch],
        epochs: int,
        shuffle_seed: Optional[int] = 0,
    ) -> TrainResult:
        """Train for ``epochs`` passes, shuffling batch order."""
        if epochs < 1:
            raise ValueError("epochs must be positive")
        with self.tracer.span("train.fit", "train") as span:
            span.set("epochs", epochs)
            return self._fit(batches, epochs, shuffle_seed)

    def _fit(
        self,
        batches: Sequence[Batch],
        epochs: int,
        shuffle_seed: Optional[int],
    ) -> TrainResult:
        result = TrainResult()
        order = list(range(len(batches)))
        rng = (
            np.random.default_rng(shuffle_seed)
            if shuffle_seed is not None
            else None
        )
        for _ in range(epochs):
            if rng is not None:
                rng.shuffle(order)
            epoch_batches = [batches[i] for i in order]
            result.losses.append(self.train_epoch(epoch_batches))
            result.train_accuracies.append(
                self.evaluate(batches).accuracy
            )
        return result

    def evaluate(
        self,
        batches: Sequence[Batch],
        num_classes: Optional[int] = None,
    ) -> EvalResult:
        """Accuracy (and mIoU when ``num_classes`` given) in eval mode."""
        if not batches:
            raise ValueError("no batches to evaluate")
        self.model.eval()
        predictions = []
        targets = []
        with self.tracer.span("train.evaluate", "train"), no_grad():
            for batch in batches:
                logits = self.forward(self.model, batch)
                predictions.append(logits.data.argmax(axis=-1))
                targets.append(batch.labels)
        self.model.train()
        predictions = np.concatenate([p.reshape(-1) for p in predictions])
        targets = np.concatenate([t.reshape(-1) for t in targets])
        accuracy = overall_accuracy(predictions, targets)
        miou = None
        if num_classes is not None:
            miou = mean_iou(predictions, targets, num_classes)
        self.metrics.gauge("train_last_accuracy").set(accuracy)
        return EvalResult(accuracy=accuracy, miou=miou)


@dataclass(frozen=True)
class RetrainComparison:
    """Baseline-vs-retrained-approximate accuracy (Fig. 14a row)."""

    baseline_accuracy: float
    approx_pretrained_accuracy: float
    approx_retrained_accuracy: float

    @property
    def drop_without_retraining(self) -> float:
        return self.baseline_accuracy - self.approx_pretrained_accuracy

    @property
    def drop_after_retraining(self) -> float:
        return self.baseline_accuracy - self.approx_retrained_accuracy


def retrain_comparison(
    build_model: Callable[[object], Module],
    baseline_config: object,
    approx_config: object,
    train_batches: Sequence[Batch],
    test_batches: Sequence[Batch],
    epochs: int,
    lr: float = 1e-3,
) -> RetrainComparison:
    """Run the paper's three-way accuracy experiment.

    1. Train the baseline model (exact kernels) and evaluate it.
    2. Evaluate the *same weights* with approximate kernels swapped in
       (the "directly using pretrained models" case, Sec. 5.3).
    3. Retrain with the approximations in the loop and evaluate.

    ``build_model(config)`` must build identically-initialized models
    so weights transfer between configs.
    """
    baseline_model = build_model(baseline_config)
    baseline_trainer = Trainer(
        baseline_model, Adam(baseline_model.parameters(), lr=lr)
    )
    baseline_trainer.fit(train_batches, epochs)
    baseline_acc = baseline_trainer.evaluate(test_batches).accuracy

    # Same weights, approximate kernels.
    approx_model = build_model(approx_config)
    approx_model.load_state_dict(baseline_model.state_dict())
    pretrained_acc = Trainer(approx_model).evaluate(test_batches).accuracy

    retrained_model = build_model(approx_config)
    retrained_trainer = Trainer(
        retrained_model, Adam(retrained_model.parameters(), lr=lr)
    )
    retrained_trainer.fit(train_batches, epochs)
    retrained_acc = retrained_trainer.evaluate(test_batches).accuracy

    return RetrainComparison(
        baseline_accuracy=baseline_acc,
        approx_pretrained_accuracy=pretrained_acc,
        approx_retrained_accuracy=retrained_acc,
    )
