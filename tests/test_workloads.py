"""Tests for the Table-1 workload specs and trace synthesis
(repro.workloads), including the trace-vs-real-forward parity."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import EdgePCConfig
from repro.nn import (
    DGCNNClassifier,
    DGCNNSegmentation,
    PointNet2Segmentation,
    SAConfig,
    StageRecorder,
)
from repro.nn.plan import MEASURED_COUNTS
from repro.workloads import (
    DGCNNArch,
    PointNet2Arch,
    WorkloadSpec,
    standard_workloads,
    trace,
)


class TestSpecs:
    def test_table1_rows(self):
        specs = standard_workloads()
        assert set(specs) == {"W1", "W2", "W3", "W4", "W5", "W6"}
        assert specs["W1"].points_per_batch == 8192
        assert specs["W3"].points_per_batch == 1024
        assert specs["W4"].points_per_batch == 2048
        assert specs["W5"].points_per_batch == 4096
        assert specs["W6"].points_per_batch == 8192

    def test_table1_models_and_tasks(self):
        specs = standard_workloads()
        assert specs["W1"].model == "pointnet2"
        assert specs["W2"].dataset == "ScanNet"
        assert specs["W3"].task == "classification"
        assert specs["W4"].task == "part_segmentation"
        assert specs["W6"].task == "semantic_segmentation"

    def test_w1_batch_fixed_32(self):
        assert standard_workloads()["W1"].batch_size == 32

    def test_w2_batch_is_scan_mean(self):
        """W2's batch size varies 4-41 with mean 14 (Sec. 6.2)."""
        assert standard_workloads()["W2"].batch_size == 14

    def test_arch_validation(self):
        with pytest.raises(ValueError):
            PointNet2Arch(
                num_points=100,
                sa_points=(200,),  # cannot grow
                k=8,
                sa_mlps=((8,),),
                fp_mlps=((8,),),
                head=(8, 2),
            )
        with pytest.raises(ValueError):
            DGCNNArch(
                num_points=100, k=8, ec_mlps=(), emb_channels=8,
                head=(8, 2),
            )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(
                "bad", "transformer", "X", "t", 10, 1, 2, None
            )

    def test_spec_rejects_model_arch_mismatch(self):
        specs = standard_workloads()
        with pytest.raises(ValueError, match="DGCNNArch"):
            replace(specs["W3"], arch=specs["W1"].arch)
        with pytest.raises(ValueError, match="PointNet2Arch"):
            replace(specs["W1"], arch=specs["W3"].arch)


class TestTraceSynthesis:
    def test_baseline_pointnet2_ops(self):
        spec = standard_workloads()["W1"]
        rec = trace(spec, EdgePCConfig.baseline())
        ops = rec.op_names()
        assert "fps" in ops
        assert "ball_query" in ops
        assert "interp_exact" in ops
        assert "morton_sort" not in ops

    def test_edgepc_pointnet2_ops(self):
        spec = standard_workloads()["W1"]
        rec = trace(spec, EdgePCConfig.paper_default())
        ops = rec.op_names()
        assert "morton_gen" in ops
        assert "morton_window" in ops
        assert "interp_morton" in ops
        # Non-optimized layers keep the exact kernels.
        assert "fps" in ops
        assert "ball_query" in ops

    def test_pointnet2_layer_counts(self):
        spec = standard_workloads()["W2"]
        rec = trace(spec, EdgePCConfig.baseline())
        # Level 0 reads all 8192 points, which crosses the default
        # exact_fast_threshold: pruning FPS there, brute FPS below; and
        # the FP layer that interpolates onto those 8192 points runs
        # the grid engine.
        assert [e.op for e in rec.events_for_stage("sample")
                if e.op.startswith("fps")] == ["fps_fast"] + ["fps"] * 3
        interp = [e.op for e in rec if e.op.startswith("interp")]
        assert interp == ["interp_exact"] * 3 + ["interp_grid"]

    def test_dgcnn_reuse_schedule(self):
        spec = standard_workloads()["W3"]
        rec = trace(spec, EdgePCConfig.paper_default())
        neighbor_ops = [
            e.op for e in rec if e.stage == "neighbor_search"
        ]
        # Modules: EC1 morton, EC2 reuse, EC3 knn, EC4 reuse
        # ("skipped for the second and fourth EC modules", Sec. 6.2).
        assert neighbor_ops == [
            "morton_gen", "morton_sort", "morton_window",
            "reuse", "knn", "reuse",
        ]

    def test_dgcnn_baseline_all_knn(self):
        spec = standard_workloads()["W4"]
        rec = trace(spec, EdgePCConfig.baseline())
        neighbor_ops = [
            e.op for e in rec if e.stage == "neighbor_search"
        ]
        assert neighbor_ops == ["knn"] * 4

    def test_dgcnn_feature_space_dims(self):
        spec = standard_workloads()["W3"]
        rec = trace(spec, EdgePCConfig.baseline())
        dims = [
            e.counts["dim"]
            for e in rec
            if e.op == "knn"
        ]
        assert dims[0] == 3
        assert all(d > 3 for d in dims[1:])

    def test_batch_recorded(self):
        spec = standard_workloads()["W1"]
        rec = trace(spec, EdgePCConfig.baseline())
        for event in rec:
            if event.op != "matmul":
                assert event.counts["batch"] == 32

    def test_classification_head_single_row_per_cloud(self):
        spec = standard_workloads()["W3"]
        rec = trace(spec, EdgePCConfig.baseline())
        matmuls = [e for e in rec if e.op == "matmul"]
        head = matmuls[-1]
        assert head.counts["rows"] == spec.batch_size


#: Configs the real-vs-synthesized parity is checked under; the
#: lowered thresholds route the exact stages of the tiny clouds through
#: the fast engines.
PARITY_CONFIGS = {
    "baseline": EdgePCConfig.baseline(),
    "paper_default": EdgePCConfig.paper_default(),
    "insights": EdgePCConfig.with_architectural_insights(),
    "fast_exact": replace(EdgePCConfig.baseline(), exact_fast_threshold=16),
    "paper_fast_exact": replace(
        EdgePCConfig.paper_default(), exact_fast_threshold=16
    ),
}


def _static_counts(recorder):
    """Every event with its measured scan statistics dropped."""
    return [
        (e.stage, e.op, e.layer, {
            key: value for key, value in e.counts.items()
            if key not in MEASURED_COUNTS
        })
        for e in recorder
    ]


def _assert_parity(make_model, spec, rng):
    xyz = rng.normal(size=(spec.batch_size, spec.points_per_batch, 3))
    for name, config in PARITY_CONFIGS.items():
        real = StageRecorder()
        make_model(config)(xyz, recorder=real)
        synth = trace(spec, config)
        assert _static_counts(real) == _static_counts(synth), name
        # A plan bounds each measured scan from above.
        for got, bound in zip(real, synth):
            for key in ("points_scanned", "pairs_scanned"):
                if key in bound.counts:
                    assert 0 < got.counts[key] <= bound.counts[key], name


def _pointnet2_spec(model, num_points, batch):
    sizes, n = [], num_points
    for cfg in model.sa_configs:
        n = max(1, int(round(n * cfg.ratio)))
        sizes.append(n)
    arch = PointNet2Arch(
        num_points=num_points,
        sa_points=tuple(sizes),
        k=model.sa_configs[0].k,
        sa_mlps=tuple(cfg.mlp for cfg in model.sa_configs),
        fp_mlps=tuple(m.mlp_channels[1:] for m in model.fp_modules),
        head=(model.head_hidden.out_features, model.num_classes),
        in_channels=model.in_channels,
    )
    return WorkloadSpec(
        "toy", "pointnet2", "toy", "semantic_segmentation",
        num_points, batch, model.num_classes, arch,
    )


def _dgcnn_spec(model, task, num_points, batch):
    backbone = model.backbone.ec_modules
    arch = DGCNNArch(
        num_points=num_points,
        k=backbone[0].k,
        ec_mlps=tuple(m.mlp_channels[1:] for m in backbone),
        emb_channels=model.embedding.out_features,
        head=(model.head_hidden.out_features, model.num_classes),
    )
    return WorkloadSpec(
        "toy", "dgcnn", "toy", task, num_points, batch,
        model.num_classes, arch,
    )


class TestTraceMatchesRealForward:
    """The synthesized traces equal a real forward pass of the same
    architecture (small scale) on every count the plans fix, under
    every parity config."""

    def test_pointnet2_op_sequence(self, rng):
        sa = tuple(SAConfig(0.5, 4, 2.0, (8, 8)) for _ in range(4))

        def make(config):
            return PointNet2Segmentation(
                num_classes=3, sa_configs=sa, edgepc=config,
                head_hidden=8, rng=np.random.default_rng(0),
            )

        spec = _pointnet2_spec(make(None), 64, 2)
        _assert_parity(make, spec, rng)
        # At threshold 16 the FP layers onto 64, 32 and 16 fine points
        # run the grid engine; the one onto 8 points stays dense.
        interp = sorted(
            (e.counts.get("n_queries", e.counts.get("n_points")), e.op)
            for e in trace(spec, PARITY_CONFIGS["fast_exact"])
            if e.op.startswith("interp")
        )
        assert interp == [
            (8, "interp_exact"), (16, "interp_grid"),
            (32, "interp_grid"), (64, "interp_grid"),
        ]

    def test_dgcnn_op_sequence(self, rng):
        def make(config):
            return DGCNNClassifier(
                num_classes=4, k=4,
                ec_channels=((8,), (8,), (8,), (8,)),
                emb_channels=8, head_hidden=8,
                edgepc=config, rng=np.random.default_rng(0),
            )

        _assert_parity(
            make, _dgcnn_spec(make(None), "classification", 32, 2), rng
        )

    def test_dgcnn_segmentation_op_sequence(self, rng):
        def make(config):
            return DGCNNSegmentation(
                num_classes=5, k=4, ec_channels=((8,), (16,), (8,)),
                emb_channels=16, head_hidden=8,
                edgepc=config, rng=np.random.default_rng(0),
            )

        _assert_parity(
            make,
            _dgcnn_spec(make(None), "part_segmentation", 32, 2),
            rng,
        )


class TestScanBatchSizes:
    def test_mean_and_range(self):
        import numpy as np

        from repro.workloads import scan_batch_sizes

        sizes = scan_batch_sizes(
            5000, np.random.default_rng(0)
        )
        assert sizes.min() >= 4
        assert sizes.max() <= 41
        assert abs(sizes.mean() - 14.0) < 1.0  # paper's mean batch

    def test_deterministic_default(self):
        from repro.workloads import scan_batch_sizes

        a = scan_batch_sizes(20)
        b = scan_batch_sizes(20)
        assert (a == b).all()

    def test_rejects_bad_args(self):
        import pytest as _pytest

        from repro.workloads import scan_batch_sizes

        with _pytest.raises(ValueError):
            scan_batch_sizes(0)
        with _pytest.raises(ValueError):
            scan_batch_sizes(5, mean=100.0)


class TestTraceWithBatch:
    def test_overrides_batch(self):
        from repro.core import EdgePCConfig
        from repro.workloads import (
            standard_workloads,
            trace_with_batch,
        )

        spec = standard_workloads()["W2"]
        rec = trace_with_batch(spec, EdgePCConfig.baseline(), 7)
        fps = [e for e in rec if e.op == "fps"]
        assert fps[0].counts["batch"] == 7

    def test_per_frame_latency_scales(self):
        from repro.core import EdgePCConfig
        from repro.runtime import PipelineProfiler
        from repro.workloads import (
            standard_workloads,
            trace_with_batch,
        )

        spec = standard_workloads()["W2"]
        config = EdgePCConfig.baseline()
        profiler = PipelineProfiler()
        small = profiler.breakdown(
            trace_with_batch(spec, config, 4), config
        ).total_s
        large = profiler.breakdown(
            trace_with_batch(spec, config, 41), config
        ).total_s
        assert large > 8 * small

    def test_rejects_bad_batch(self):
        import pytest as _pytest

        from repro.core import EdgePCConfig
        from repro.workloads import (
            standard_workloads,
            trace_with_batch,
        )

        with _pytest.raises(ValueError):
            trace_with_batch(
                standard_workloads()["W2"],
                EdgePCConfig.baseline(),
                0,
            )
