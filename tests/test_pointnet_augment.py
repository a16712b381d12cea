"""Tests for the original PointNet models (repro.nn.pointnet) and the
augmentation pipeline (repro.datasets.augment)."""

import numpy as np
import pytest

from repro.datasets import (
    AugmentedDataset,
    Compose,
    ModelNetLike,
    make_batches,
    standard_augmentation,
)
from repro.nn import (
    Adam,
    PointNetClassifier,
    PointNetSegmentation,
    StageRecorder,
    cross_entropy,
)


class TestPointNetClassifier:
    def test_output_shape(self, rng):
        model = PointNetClassifier(
            num_classes=5, mlp_channels=(8, 16),
            rng=np.random.default_rng(0),
        )
        assert model(rng.normal(size=(3, 32, 3))).shape == (3, 5)

    def test_permutation_invariance(self, rng):
        """The defining PointNet property: point order is irrelevant."""
        model = PointNetClassifier(
            num_classes=4, mlp_channels=(8,),
            rng=np.random.default_rng(0),
        )
        model.eval()
        xyz = rng.normal(size=(1, 64, 3))
        shuffled = xyz[:, rng.permutation(64), :]
        assert np.allclose(
            model(xyz).numpy(), model(shuffled).numpy(), atol=1e-9
        )

    def test_trace_has_no_sampling_stage(self, rng):
        """PointNet has neither bottleneck stage — EdgePC's targets
        simply do not exist here."""
        model = PointNetClassifier(
            num_classes=3, mlp_channels=(8,),
            rng=np.random.default_rng(0),
        )
        recorder = StageRecorder()
        model(rng.normal(size=(1, 16, 3)), recorder=recorder)
        assert {e.stage for e in recorder} == {"feature_compute"}

    @pytest.mark.parametrize("model_cls, rows", [
        (PointNetClassifier, 2), (PointNetSegmentation, 2 * 16),
    ])
    def test_head_priced_per_linear(self, rng, model_cls, rows):
        model = model_cls(
            num_classes=3, mlp_channels=(8,), head_hidden=6,
            rng=np.random.default_rng(0),
        )
        recorder = StageRecorder()
        model(rng.normal(size=(2, 16, 3)), recorder=recorder)
        head = [
            (e.counts["rows"], e.counts["c_in"], e.counts["c_out"])
            for e in recorder.events_for_layer(1)
        ]
        head_in = model.head_hidden.in_features
        assert head == [(rows, head_in, 6), (rows, 6, 3)]

    def test_trains(self, rng):
        model = PointNetClassifier(
            num_classes=2, mlp_channels=(8, 8), dropout=0.0,
            rng=np.random.default_rng(0),
        )
        opt = Adam(model.parameters(), lr=1e-2)
        xyz = rng.normal(size=(4, 32, 3))
        xyz[:2, :, 0] += 3.0
        labels = np.array([1, 1, 0, 0])
        losses = []
        for _ in range(20):
            opt.zero_grad()
            loss = cross_entropy(model(xyz), labels)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.7

    def test_rejects_bad_input(self, rng):
        with pytest.raises(ValueError):
            PointNetClassifier(3)(rng.normal(size=(4, 3)))


class TestPointNetSegmentation:
    def test_output_shape(self, rng):
        model = PointNetSegmentation(
            num_classes=6, mlp_channels=(8, 16),
            rng=np.random.default_rng(0),
        )
        assert model(rng.normal(size=(2, 32, 3))).shape == (2, 32, 6)

    def test_global_context_reaches_every_point(self, rng):
        """Moving one point changes the global feature and hence can
        change other points' logits (the tiled-global design)."""
        model = PointNetSegmentation(
            num_classes=3, mlp_channels=(8,),
            rng=np.random.default_rng(0),
        )
        model.eval()
        xyz = rng.normal(size=(1, 16, 3))
        moved = xyz.copy()
        moved[0, 0] += 100.0
        a = model(xyz).numpy()
        b = model(moved).numpy()
        assert not np.allclose(a[0, 1:], b[0, 1:])

    def test_gradients_flow(self, rng):
        model = PointNetSegmentation(
            num_classes=3, mlp_channels=(8,),
            rng=np.random.default_rng(0),
        )
        loss = cross_entropy(
            model(rng.normal(size=(1, 16, 3))),
            rng.integers(0, 3, (1, 16)),
        )
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())


class TestAugmentation:
    def test_compose_applies_in_order(self, rng):
        from repro.geometry.points import PointCloud

        trace = []
        pipeline = Compose(
            [
                lambda c, g: (trace.append("a"), c)[1],
                lambda c, g: (trace.append("b"), c)[1],
            ]
        )
        pipeline(PointCloud(rng.normal(size=(4, 3))), rng)
        assert trace == ["a", "b"]
        assert len(pipeline) == 2

    def test_standard_stack_preserves_shape_and_labels(self, rng):
        from repro.geometry.points import PointCloud

        cloud = PointCloud(
            rng.normal(size=(64, 3)),
            labels=rng.integers(0, 3, 64),
        )
        out = standard_augmentation()(cloud, rng)
        assert len(out) == 64
        assert out.labels is not None

    def test_augmented_dataset_changes_clouds(self):
        base = ModelNetLike(num_clouds=4, points_per_cloud=64)
        augmented = AugmentedDataset(base, standard_augmentation())
        assert not np.array_equal(augmented[0].xyz, base[0].xyz)
        assert np.array_equal(augmented[0].labels, base[0].labels)

    def test_epoch_changes_augmentation(self):
        base = ModelNetLike(num_clouds=2, points_per_cloud=64)
        augmented = AugmentedDataset(base, standard_augmentation())
        first = augmented[0].xyz.copy()
        augmented.set_epoch(1)
        assert not np.array_equal(augmented[0].xyz, first)
        augmented.set_epoch(0)
        assert np.array_equal(augmented[0].xyz, first)

    def test_batches_from_augmented_dataset(self):
        base = ModelNetLike(
            num_clouds=4, points_per_cloud=32, num_classes=2
        )
        augmented = AugmentedDataset(base, standard_augmentation())
        batches = make_batches(augmented, 2)
        assert batches[0].xyz.shape == (2, 32, 3)

    def test_set_epoch_rejects_negative(self):
        base = ModelNetLike(num_clouds=2, points_per_cloud=16)
        augmented = AugmentedDataset(base, standard_augmentation())
        with pytest.raises(ValueError):
            augmented.set_epoch(-1)
