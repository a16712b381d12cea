"""Tests for training metrics and the trainer (repro.train)."""

import numpy as np
import pytest

from repro.train import (
    Trainer,
    confusion_matrix,
    mean_iou,
    overall_accuracy,
    per_class_accuracy,
)
from repro.datasets import Batch


class TestMetrics:
    def test_overall_accuracy(self):
        assert overall_accuracy(
            np.array([1, 2, 3]), np.array([1, 0, 3])
        ) == pytest.approx(2 / 3)

    def test_overall_accuracy_2d(self):
        p = np.array([[0, 1], [1, 1]])
        t = np.array([[0, 1], [0, 1]])
        assert overall_accuracy(p, t) == 0.75

    def test_accuracy_rejects_mismatch(self):
        with pytest.raises(ValueError):
            overall_accuracy(np.zeros(3), np.zeros(4))

    def test_accuracy_rejects_empty(self):
        with pytest.raises(ValueError):
            overall_accuracy(np.array([]), np.array([]))

    def test_confusion_matrix(self):
        m = confusion_matrix(
            np.array([0, 1, 1, 2]), np.array([0, 1, 2, 2]), 3
        )
        assert m[0, 0] == 1
        assert m[1, 1] == 1
        assert m[2, 1] == 1  # true 2 predicted 1
        assert m[2, 2] == 1
        assert m.sum() == 4

    def test_confusion_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([3]), np.array([0]), 3)

    def test_miou_perfect(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert mean_iou(labels, labels, 3) == 1.0

    def test_miou_half(self):
        predictions = np.array([0, 0])
        targets = np.array([0, 1])
        # Class 0: inter 1 / union 2; class 1: 0 / 1.
        assert mean_iou(predictions, targets, 2) == pytest.approx(0.25)

    def test_miou_ignores_absent_classes(self):
        predictions = np.array([0, 0])
        targets = np.array([0, 0])
        assert mean_iou(predictions, targets, 5) == 1.0

    def test_miou_no_ignore(self):
        predictions = np.array([0])
        targets = np.array([0])
        assert mean_iou(predictions, targets, 2, ignore_empty=False) == (
            pytest.approx(0.5)
        )

    def test_per_class_accuracy(self):
        predictions = np.array([0, 0, 1, 1])
        targets = np.array([0, 1, 1, 1])
        out = per_class_accuracy(predictions, targets, 3)
        assert out[0] == 1.0
        assert out[1] == pytest.approx(2 / 3)
        assert np.isnan(out[2])


class _ToyModel:
    """A minimal 'model' over the Module API for trainer tests:
    per-cloud logits = learned linear map of the mean coordinate."""

    def __init__(self, num_classes=2, seed=0):
        from repro.nn.layers import Linear, Module

        class Inner(Module):
            def __init__(self):
                super().__init__()
                self.linear = Linear(
                    3, num_classes, rng=np.random.default_rng(seed)
                )

            def forward(self, xyz):
                from repro.nn.autograd import Tensor

                mean = np.asarray(xyz).mean(axis=1)
                return self.linear(Tensor(mean))

        self.inner = Inner()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __call__(self, xyz):
        return self.inner(xyz)


def _separable_batches(n_batches=4, batch=8, seed=0):
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(n_batches):
        labels = rng.integers(0, 2, batch)
        offsets = np.where(labels == 0, -1.0, 1.0)
        xyz = rng.normal(size=(batch, 16, 3)) * 0.1
        xyz[:, :, 0] += offsets[:, None]
        batches.append(Batch(xyz=xyz, labels=labels))
    return batches


def _fast_trainer(model):
    from repro.nn.optim import Adam

    return Trainer(model.inner, Adam(model.inner.parameters(), lr=0.05))


class TestTrainer:
    def test_loss_decreases(self):
        model = _ToyModel()
        trainer = _fast_trainer(model)
        batches = _separable_batches()
        result = trainer.fit(batches, epochs=20)
        assert result.losses[-1] < result.losses[0]

    def test_learns_separable_problem(self):
        model = _ToyModel()
        trainer = _fast_trainer(model)
        batches = _separable_batches()
        trainer.fit(batches, epochs=30)
        assert trainer.evaluate(batches).accuracy > 0.9

    def test_evaluate_reports_miou(self):
        model = _ToyModel()
        trainer = Trainer(model.inner)
        batches = _separable_batches()
        result = trainer.evaluate(batches, num_classes=2)
        assert result.miou is not None
        assert 0 <= result.miou <= 1

    def test_eval_restores_train_mode(self):
        model = _ToyModel()
        trainer = Trainer(model.inner)
        trainer.evaluate(_separable_batches())
        assert model.inner.training

    def test_rejects_empty_batches(self):
        trainer = Trainer(_ToyModel().inner)
        with pytest.raises(ValueError):
            trainer.train_epoch([])
        with pytest.raises(ValueError):
            trainer.fit([], epochs=1)
        with pytest.raises(ValueError):
            trainer.evaluate([])

    def test_rejects_zero_epochs(self):
        trainer = Trainer(_ToyModel().inner)
        with pytest.raises(ValueError):
            trainer.fit(_separable_batches(), epochs=0)

    def test_deterministic_training(self):
        batches = _separable_batches()
        results = []
        for _ in range(2):
            model = _ToyModel(seed=1)
            trainer = _fast_trainer(model)
            trainer.fit(batches, epochs=3, shuffle_seed=5)
            results.append(trainer.evaluate(batches).accuracy)
        assert results[0] == results[1]

