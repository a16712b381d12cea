"""Tests for the high-level pipeline API (repro.pipeline) and the new
Sec. 5.4 config knobs (sorted grouping, channel merge)."""

import numpy as np
import pytest

from repro.core import EdgePCConfig
from repro.nn import DGCNNClassifier, PointNet2Segmentation, SAConfig
from repro.pipeline import EdgePCPipeline
from repro.runtime import PipelineProfiler

TINY_SA = (
    SAConfig(0.5, 4, 1.5, (8, 8)),
    SAConfig(0.5, 4, 3.0, (16, 16)),
)


def _pn2(config):
    return PointNet2Segmentation(
        num_classes=3, sa_configs=TINY_SA, edgepc=config,
        head_hidden=8, rng=np.random.default_rng(0),
    )


def _dgcnn(config):
    return DGCNNClassifier(
        num_classes=4, k=4, ec_channels=((8,), (8,)),
        emb_channels=16, head_hidden=8, edgepc=config,
        rng=np.random.default_rng(0),
    )


class TestEdgePCPipeline:
    def test_infer_returns_profiled_result(self, rng):
        pipeline = EdgePCPipeline(_pn2(EdgePCConfig.paper_default()))
        result = pipeline.infer(rng.normal(size=(2, 64, 3)))
        assert result.logits.shape == (2, 64, 3)
        assert result.predictions.shape == (2, 64)
        assert result.latency_ms > 0
        assert result.energy_j > 0

    def test_single_cloud_rides_the_batch_path_at_b1(self, rng):
        # (N, 3) input goes through the same (B, N, 3) code path the
        # serving micro-batcher uses, with outputs keeping the batch
        # axis and metrics emitted exactly once.
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        pipeline = EdgePCPipeline(
            _pn2(EdgePCConfig.paper_default()), metrics=registry
        )
        cloud = rng.normal(size=(64, 3))
        single = pipeline.infer(cloud)
        assert single.logits.shape == (1, 64, 3)
        assert single.predictions.shape == (1, 64)
        assert registry.counter("pipeline_batches_total").value == 1
        assert registry.counter("pipeline_clouds_total").value == 1
        batched = pipeline.infer(cloud[None, :, :])
        np.testing.assert_allclose(
            single.logits, batched.logits, rtol=1e-12, atol=1e-12
        )

    def test_config_defaults_from_model(self):
        config = EdgePCConfig.paper_default()
        pipeline = EdgePCPipeline(_pn2(config))
        assert pipeline.config is config

    def test_rejects_model_without_config(self):
        class Bare:
            pass

        with pytest.raises(ValueError):
            EdgePCPipeline(Bare())

    def test_infer_restores_training_mode(self, rng):
        model = _pn2(EdgePCConfig.baseline())
        pipeline = EdgePCPipeline(model)
        pipeline.infer(rng.normal(size=(1, 32, 3)))
        assert model.training


class TestPipelineRobustness:
    def test_record_restores_training_mode(self, rng):
        """record() must not clobber the mode train() left behind."""
        model = _pn2(EdgePCConfig.baseline())
        pipeline = EdgePCPipeline(model)
        assert model.training
        pipeline.record(rng.normal(size=(1, 32, 3)))
        assert model.training

    def test_record_leaves_eval_mode_alone(self, rng):
        model = _pn2(EdgePCConfig.baseline())
        model.eval()
        pipeline = EdgePCPipeline(model)
        pipeline.record(rng.normal(size=(1, 32, 3)))
        assert not model.training

    def test_infer_rejects_nan_by_default(self, rng):
        from repro.robustness import CloudValidationError

        pipeline = EdgePCPipeline(_pn2(EdgePCConfig.paper_default()))
        xyz = rng.normal(size=(1, 32, 3))
        xyz[0, 3, 1] = np.nan
        with pytest.raises(CloudValidationError, match="1 of 32"):
            pipeline.infer(xyz)

    def test_infer_repair_policy_serves_batch(self, rng):
        from repro.robustness import ValidationPolicy

        pipeline = EdgePCPipeline(
            _pn2(EdgePCConfig.paper_default()),
            validation=ValidationPolicy.repair(),
        )
        xyz = rng.normal(size=(1, 32, 3))
        xyz[0, 3, 1] = np.nan
        result = pipeline.infer(xyz)
        assert np.isfinite(result.logits).all()
        assert result.validation[0].n_output == 32

    def test_stage_ops_recorded(self, rng):
        pipeline = EdgePCPipeline(_pn2(EdgePCConfig.paper_default()))
        result = pipeline.infer(rng.normal(size=(1, 32, 3)))
        assert "morton_sort" in result.stage_ops
        baseline = EdgePCPipeline(_pn2(EdgePCConfig.baseline()))
        assert "fps" in baseline.infer(
            rng.normal(size=(1, 32, 3))
        ).stage_ops


class TestSortedGroupingKnob:
    def test_output_unchanged(self, rng):
        """Row-sorting the neighbor indices is semantically a no-op
        for the max-pooled aggregation."""
        xyz = rng.normal(size=(1, 64, 3))
        plain = _dgcnn(EdgePCConfig.baseline())
        sorted_model = _dgcnn(
            EdgePCConfig(
                sample_layers=frozenset(),
                upsample_layers=frozenset(),
                neighbor_layers=frozenset(),
                reuse_distance=0,
                sorted_grouping=True,
            )
        )
        sorted_model.load_state_dict(plain.state_dict())
        plain.eval()
        sorted_model.eval()
        assert np.allclose(
            plain(xyz).numpy(), sorted_model(xyz).numpy()
        )

    def test_gather_priced_cheaper(self, rng):
        from repro.nn import StageRecorder

        xyz = rng.normal(size=(1, 64, 3))
        profiler = PipelineProfiler()
        configs = {
            False: EdgePCConfig.paper_default(),
            True: EdgePCConfig(sorted_grouping=True),
        }
        grouping = {}
        for flag, config in configs.items():
            recorder = StageRecorder()
            _dgcnn(config)(xyz, recorder=recorder)
            grouping[flag] = profiler.breakdown(
                recorder, config
            ).grouping_s
        assert grouping[True] < grouping[False]
        ratio = grouping[False] / grouping[True]
        assert ratio == pytest.approx(
            profiler.device.sorted_gather_speedup, rel=1e-6
        )


class TestChannelMergeKnob:
    def test_merge_accelerates_feature_stage(self):
        from repro.core import EdgePCConfig
        from repro.workloads import standard_workloads, trace

        spec = standard_workloads()["W6"]
        profiler = PipelineProfiler()
        plain = EdgePCConfig.paper_with_tensor_cores()
        merged = EdgePCConfig(
            use_tensor_cores=True, fc_merge_factor=10
        )
        t_plain = profiler.breakdown(
            trace(spec, plain), plain
        ).feature_s
        t_merged = profiler.breakdown(
            trace(spec, merged), merged
        ).feature_s
        assert t_merged < t_plain

    def test_merge_without_tensor_cores_is_noop(self):
        from repro.workloads import standard_workloads, trace

        spec = standard_workloads()["W6"]
        profiler = PipelineProfiler()
        plain = EdgePCConfig.paper_default()
        merged = EdgePCConfig(fc_merge_factor=10)
        assert profiler.breakdown(
            trace(spec, merged), merged
        ).feature_s == pytest.approx(
            profiler.breakdown(trace(spec, plain), plain).feature_s
        )

    def test_insights_config(self):
        config = EdgePCConfig.with_architectural_insights()
        assert config.use_tensor_cores
        assert config.sorted_grouping
        assert config.fc_merge_factor == 10

    def test_rejects_bad_merge_factor(self):
        with pytest.raises(ValueError):
            EdgePCConfig(fc_merge_factor=0)
