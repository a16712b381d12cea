"""Tests for the PointNet++ and DGCNN models (repro.nn.pointnet2 /
dgcnn) and the stage recorder."""

from pathlib import Path

import numpy as np
import pytest

from repro.core import EdgePCConfig
from repro.nn import (
    DGCNNClassifier,
    DGCNNSegmentation,
    PointNet2Classifier,
    PointNet2Segmentation,
    SAConfig,
    StageRecorder,
    cross_entropy,
)
from repro.nn import functional
from repro.nn.recorder import (
    STAGE_FEATURE,
    STAGE_NEIGHBOR,
    STAGE_SAMPLE,
    NullRecorder,
    StageEvent,
)

# Radii sized for unnormalized N(0, 1) test clouds, where typical
# nearest-neighbor distances are ~1 — too-small balls would degenerate
# to self-neighbors and zero relative coordinates.
TINY_SA = (
    SAConfig(0.5, 4, 1.5, (8, 8)),
    SAConfig(0.5, 4, 3.0, (16, 16)),
)


def tiny_pn2(edgepc, num_classes=3, seed=0):
    return PointNet2Segmentation(
        num_classes=num_classes,
        sa_configs=TINY_SA,
        edgepc=edgepc,
        head_hidden=8,
        rng=np.random.default_rng(seed),
    )


def tiny_dgcnn_cls(edgepc, num_classes=4, seed=0):
    return DGCNNClassifier(
        num_classes=num_classes,
        k=4,
        ec_channels=((8,), (8,), (16,)),
        emb_channels=16,
        head_hidden=8,
        edgepc=edgepc,
        rng=np.random.default_rng(seed),
    )


GRAD_GOLDEN = Path(__file__).parent / "data" / "model_grad_golden.npz"


def loss_gradients(build, mode):
    """Loss and parameter gradients of one grad-mode forward/backward
    on a fixed pair of 32-point clouds."""
    model = getattr(build(EdgePCConfig.paper_default()), mode)()
    rng = np.random.default_rng(7)
    logits = model(rng.normal(size=(2, 32, 3)))
    loss = cross_entropy(
        logits, rng.integers(0, logits.shape[-1], logits.shape[:-1])
    )
    loss.backward()
    grads = {"loss": loss.data}
    grads.update((name, p.grad) for name, p in model.named_parameters())
    return grads


class TestGradientGoldens:
    """Backward through SA / EdgeConv (and BN batch statistics) equals
    the gradients captured before inference blocking existed
    (``tests/data/model_grad_golden.npz``).  Grad mode runs one query
    block whatever the block budget, so a tiny budget changes nothing."""

    @pytest.mark.parametrize("block_rows", [None, 16])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize(
        "tag, build", [("pn2seg", tiny_pn2), ("dgcnncls", tiny_dgcnn_cls)]
    )
    def test_gradients_match_golden(
        self, monkeypatch, tag, build, mode, block_rows
    ):
        if block_rows is not None:
            monkeypatch.setattr(
                functional, "INFERENCE_BLOCK_ROWS", block_rows
            )
        golden = np.load(GRAD_GOLDEN)
        grads = loss_gradients(build, mode)
        prefix = f"{tag}_{mode}/"
        assert len(grads) == sum(k.startswith(prefix) for k in golden)
        for name, grad in grads.items():
            assert grad.tobytes() == golden[prefix + name].tobytes(), name


class TestRecorder:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            StageEvent("bogus", "fps", 0)
        with pytest.raises(ValueError):
            StageEvent(STAGE_SAMPLE, "fps", -1)

    def test_record_and_filter(self):
        rec = StageRecorder()
        rec.record(STAGE_SAMPLE, "fps", 0, n_points=10)
        rec.record(STAGE_NEIGHBOR, "knn", 1, n_queries=5)
        assert len(rec) == 2
        assert len(rec.events_for_stage(STAGE_SAMPLE)) == 1
        assert len(rec.events_for_layer(1)) == 1
        assert rec.op_names() == ["fps", "knn"]

    def test_clear(self):
        rec = StageRecorder()
        rec.record(STAGE_SAMPLE, "fps", 0)
        rec.clear()
        assert len(rec) == 0

    def test_null_recorder_drops(self):
        rec = NullRecorder()
        rec.record(STAGE_SAMPLE, "fps", 0)
        assert len(rec) == 0


class TestPointNet2Segmentation:
    def test_output_shape(self, rng):
        model = tiny_pn2(EdgePCConfig.baseline())
        logits = model(rng.normal(size=(2, 32, 3)))
        assert logits.shape == (2, 32, 3)

    def test_edgepc_config_changes_ops(self, rng):
        xyz = rng.normal(size=(1, 32, 3))
        rec_base = StageRecorder()
        tiny_pn2(EdgePCConfig.baseline())(xyz, recorder=rec_base)
        rec_opt = StageRecorder()
        cfg = EdgePCConfig(
            sample_layers={0}, upsample_layers={1}, neighbor_layers={0}
        )
        tiny_pn2(cfg)(xyz, recorder=rec_opt)
        assert "fps" in rec_base.op_names()
        assert "morton_sort" in rec_opt.op_names()
        assert "morton_window" in rec_opt.op_names()
        assert "interp_morton" in rec_opt.op_names()

    def test_baseline_records_all_stages(self, rng):
        rec = StageRecorder()
        tiny_pn2(EdgePCConfig.baseline())(
            rng.normal(size=(1, 32, 3)), recorder=rec
        )
        stages = {e.stage for e in rec}
        assert STAGE_SAMPLE in stages
        assert STAGE_NEIGHBOR in stages
        assert STAGE_FEATURE in stages

    def test_gradients_reach_all_parameters(self, rng):
        model = tiny_pn2(EdgePCConfig.paper_default())
        logits = model(rng.normal(size=(1, 32, 3)))
        loss = cross_entropy(logits, rng.integers(0, 3, (1, 32)))
        loss.backward()
        with_grad = sum(
            1 for p in model.parameters() if p.grad is not None
        )
        assert with_grad == sum(1 for _ in model.parameters())

    def test_same_weights_different_configs(self, rng):
        """Weights transfer between baseline and EdgePC variants (the
        retraining experiment relies on this)."""
        base = tiny_pn2(EdgePCConfig.baseline(), seed=1)
        approx = tiny_pn2(EdgePCConfig.paper_default(), seed=2)
        approx.load_state_dict(base.state_dict())
        for (_, a), (_, b) in zip(
            base.named_parameters(), approx.named_parameters()
        ):
            assert np.array_equal(a.data, b.data)

    def test_deterministic_forward(self, rng):
        xyz = rng.normal(size=(1, 32, 3))
        model = tiny_pn2(EdgePCConfig.paper_default())
        model.eval()
        a = model(xyz).data
        b = model(xyz).data
        assert np.array_equal(a, b)

    def test_with_input_features(self, rng):
        from repro.nn.autograd import Tensor

        model = PointNet2Segmentation(
            num_classes=3,
            in_channels=2,
            sa_configs=TINY_SA,
            head_hidden=8,
            rng=np.random.default_rng(0),
        )
        out = model(
            rng.normal(size=(1, 32, 3)),
            Tensor(rng.normal(size=(1, 32, 2))),
        )
        assert out.shape == (1, 32, 3)

    def test_rejects_bad_xyz(self, rng):
        with pytest.raises(ValueError):
            tiny_pn2(EdgePCConfig.baseline())(rng.normal(size=(32, 3)))


class TestPointNet2Classifier:
    def test_output_shape(self, rng):
        model = PointNet2Classifier(
            num_classes=5,
            sa_configs=TINY_SA,
            head_hidden=8,
            rng=np.random.default_rng(0),
        )
        logits = model(rng.normal(size=(3, 32, 3)))
        assert logits.shape == (3, 5)

    def test_trains_one_step(self, rng):
        from repro.nn import Adam

        model = PointNet2Classifier(
            num_classes=2,
            sa_configs=TINY_SA,
            head_hidden=8,
            rng=np.random.default_rng(0),
        )
        opt = Adam(model.parameters(), lr=1e-2)
        xyz = rng.normal(size=(2, 32, 3))
        labels = np.array([0, 1])
        losses = []
        for _ in range(5):
            opt.zero_grad()
            loss = cross_entropy(model(xyz), labels)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]


class TestDGCNN:
    def test_classifier_shape(self, rng):
        model = tiny_dgcnn_cls(EdgePCConfig.baseline())
        assert model(rng.normal(size=(2, 32, 3))).shape == (2, 4)

    def test_segmentation_shape(self, rng):
        model = DGCNNSegmentation(
            num_classes=5,
            k=4,
            ec_channels=((8,), (8,)),
            emb_channels=16,
            head_hidden=8,
            rng=np.random.default_rng(0),
        )
        assert model(rng.normal(size=(2, 32, 3))).shape == (2, 32, 5)

    def test_reuse_policy_in_trace(self, rng):
        rec = StageRecorder()
        tiny_dgcnn_cls(EdgePCConfig.paper_default())(
            rng.normal(size=(1, 32, 3)), recorder=rec
        )
        neighbor_ops = [
            e.op for e in rec.events_for_stage(STAGE_NEIGHBOR)
        ]
        # EC0 morton (gen, sort, window), EC1 reuse, EC2 knn.
        assert neighbor_ops == [
            "morton_gen", "morton_sort", "morton_window", "reuse", "knn",
        ]

    def test_baseline_computes_every_module(self, rng):
        rec = StageRecorder()
        tiny_dgcnn_cls(EdgePCConfig.baseline())(
            rng.normal(size=(1, 32, 3)), recorder=rec
        )
        neighbor_ops = [
            e.op for e in rec.events_for_stage(STAGE_NEIGHBOR)
        ]
        assert neighbor_ops == ["knn", "knn", "knn"]

    def test_feature_space_knn_dim_recorded(self, rng):
        rec = StageRecorder()
        tiny_dgcnn_cls(EdgePCConfig.baseline())(
            rng.normal(size=(1, 32, 3)), recorder=rec
        )
        knn_events = [e for e in rec if e.op == "knn"]
        assert knn_events[0].counts["dim"] == 3
        assert knn_events[1].counts["dim"] == 8  # EC1 feature space

    @pytest.mark.parametrize("model_cls, rows", [
        (DGCNNClassifier, 2), (DGCNNSegmentation, 2 * 32),
    ])
    def test_head_matmuls_recorded(self, rng, model_cls, rows):
        model = model_cls(
            num_classes=4, k=4, ec_channels=((8,), (8,)),
            emb_channels=16, head_hidden=8,
            rng=np.random.default_rng(0),
        )
        rec = StageRecorder()
        model(rng.normal(size=(2, 32, 3)), recorder=rec)
        head = [
            (e.counts["rows"], e.counts["c_in"], e.counts["c_out"])
            for e in rec.events_for_layer(3)
        ]
        head_in = model.head_hidden.in_features
        assert head == [(rows, head_in, 8), (rows, 8, 4)]

    def test_gradients_flow(self, rng):
        model = tiny_dgcnn_cls(EdgePCConfig.paper_default())
        loss = cross_entropy(
            model(rng.normal(size=(1, 32, 3))), np.array([1])
        )
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_rejects_bad_input(self, rng):
        with pytest.raises(ValueError):
            tiny_dgcnn_cls(EdgePCConfig.baseline())(
                rng.normal(size=(2, 32, 2))
            )
