"""Tests for the edge-device model (repro.runtime.device), cost model
(repro.runtime.cost), and profiler (repro.runtime.profiler)."""

import numpy as np
import pytest

from repro.core import EdgePCConfig
from repro.nn.recorder import (
    STAGE_FEATURE,
    STAGE_NEIGHBOR,
    STAGE_SAMPLE,
    StageEvent,
    StageRecorder,
)
from repro.runtime import (
    CostModel,
    DeviceSpec,
    PipelineProfiler,
    compare,
    xavier,
)


class TestDeviceSpec:
    def test_default_is_valid(self):
        spec = xavier()
        assert spec.cuda_flops > 0

    def test_tensor_core_threshold(self):
        spec = xavier()
        assert spec.tensor_core_utilization(12) == 0.0
        assert spec.tensor_core_utilization(16) > 0.0

    def test_tensor_core_utilization_ramps(self):
        spec = xavier()
        assert spec.tensor_core_utilization(
            32
        ) < spec.tensor_core_utilization(128)

    def test_tensor_core_utilization_saturates(self):
        spec = xavier()
        assert spec.tensor_core_utilization(
            1000
        ) == spec.tc_max_utilization

    def test_paper_merge_example(self):
        """Sec. 5.4.1: a conv at 12 input channels runs on CUDA cores;
        merged to 120 channels it reaches ~40% utilization and roughly
        halves its latency."""
        spec = xavier()
        flops = 2.0 * 32 * 1000 * 32 * 12 * 64
        narrow = spec.matmul_time(flops, 12, use_tensor_cores=True)
        wide = spec.matmul_time(flops, 120, use_tensor_cores=True)
        assert spec.tensor_core_utilization(120) == pytest.approx(
            0.4, abs=0.05
        )
        assert 1.8 < narrow / wide < 2.8

    def test_matmul_without_tc(self):
        spec = xavier()
        assert spec.matmul_time(1e9, 128, False) == pytest.approx(
            1e9 / spec.cuda_flops
        )

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            DeviceSpec(cuda_flops=0.0)

    def test_rejects_bad_utilization(self):
        with pytest.raises(ValueError):
            DeviceSpec(tc_max_utilization=1.5)


class TestCostModel:
    @pytest.fixture
    def cm(self):
        return CostModel(xavier())

    def test_fps_price_scales_with_batch(self, cm):
        e1 = StageEvent(
            STAGE_SAMPLE, "fps", 0,
            {"n_points": 1000, "n_samples": 100, "batch": 1},
        )
        e2 = StageEvent(
            STAGE_SAMPLE, "fps", 0,
            {"n_points": 1000, "n_samples": 100, "batch": 4},
        )
        assert cm.price(e2) == pytest.approx(4 * cm.price(e1))

    def test_fps_calibration_bunny(self, cm):
        """Sec. 4.2: FPS sampling 1024 of 40256 points ~ 81.7 ms."""
        event = StageEvent(
            STAGE_SAMPLE, "fps", 0,
            {"n_points": 40256, "n_samples": 1024, "batch": 1},
        )
        assert cm.price(event) == pytest.approx(81.7e-3, rel=0.15)

    def test_morton_gen_calibration(self, cm):
        """Sec. 5.1.2: generating codes for 8192 points ~ 0.1 ms."""
        event = StageEvent(
            STAGE_SAMPLE, "morton_gen", 0,
            {"n_points": 8192, "batch": 1},
        )
        assert cm.price(event) == pytest.approx(0.1e-3, rel=0.1)

    def test_knn_dim_factor(self, cm):
        low = StageEvent(
            STAGE_NEIGHBOR, "knn", 0,
            {"n_queries": 100, "n_candidates": 100, "dim": 3,
             "batch": 1},
        )
        high = StageEvent(
            STAGE_NEIGHBOR, "knn", 0,
            {"n_queries": 100, "n_candidates": 100, "dim": 64,
             "batch": 1},
        )
        assert cm.price(high) == pytest.approx(
            cm.price(low) * 64 / 3
        )

    def test_window_cheaper_than_brute(self, cm):
        brute = StageEvent(
            STAGE_NEIGHBOR, "ball_query", 0,
            {"n_queries": 1024, "n_candidates": 8192, "k": 32,
             "batch": 1},
        )
        window = StageEvent(
            STAGE_NEIGHBOR, "morton_window", 0,
            {"n_queries": 1024, "window": 64, "k": 32, "batch": 1},
        )
        assert cm.price(window) < cm.price(brute) / 50

    def test_interp_morton_cheaper_than_exact(self, cm):
        exact = StageEvent(
            STAGE_SAMPLE, "interp_exact", 0,
            {"n_points": 8192, "n_samples": 1024, "batch": 1},
        )
        approx = StageEvent(
            STAGE_SAMPLE, "interp_morton", 0,
            {"n_points": 8192, "batch": 1},
        )
        ratio = cm.price(exact) / cm.price(approx)
        assert 4.0 < ratio < 7.0  # Fig. 9's FP4 ~ 5.2x

    def test_matmul_respects_tc_flag(self, cm):
        event = StageEvent(
            STAGE_FEATURE, "matmul", 0,
            {"rows": 1000, "c_in": 128, "c_out": 128,
             "flops": 2.0 * 1000 * 128 * 128},
        )
        assert cm.price(event, use_tensor_cores=True) < cm.price(
            event, use_tensor_cores=False
        )

    def test_unknown_op_raises(self, cm):
        event = StageEvent(STAGE_SAMPLE, "warp_drive", 0, {})
        with pytest.raises(ValueError):
            cm.price(event)

    def test_reuse_nearly_free(self, cm):
        reuse = StageEvent(
            STAGE_NEIGHBOR, "reuse", 0,
            {"n_queries": 8192, "k": 20, "batch": 1},
        )
        knn = StageEvent(
            STAGE_NEIGHBOR, "knn", 0,
            {"n_queries": 8192, "n_candidates": 8192, "dim": 64,
             "batch": 1},
        )
        assert cm.price(reuse) < cm.price(knn) / 1000


def _toy_trace(optimized: bool) -> StageRecorder:
    rec = StageRecorder()
    if optimized:
        rec.record(STAGE_SAMPLE, "morton_gen", 0, n_points=8192, batch=1)
        rec.record(STAGE_SAMPLE, "morton_sort", 0, n_points=8192, batch=1)
        rec.record(STAGE_SAMPLE, "uniform_pick", 0, n_samples=1024,
                   batch=1)
        rec.record(STAGE_NEIGHBOR, "morton_window", 0, n_queries=1024,
                   window=64, k=32, batch=1)
    else:
        rec.record(STAGE_SAMPLE, "fps", 0, n_points=8192,
                   n_samples=1024, batch=1)
        rec.record(STAGE_NEIGHBOR, "ball_query", 0, n_queries=1024,
                   n_candidates=8192, k=32, batch=1)
    rec.record(STAGE_FEATURE, "matmul", 0, rows=1024, c_in=64,
               c_out=64, flops=2.0 * 1024 * 64 * 64)
    return rec


class TestProfiler:
    def test_breakdown_stages(self):
        profiler = PipelineProfiler()
        breakdown = profiler.breakdown(
            _toy_trace(False), EdgePCConfig.baseline()
        )
        assert breakdown.sample_s > 0
        assert breakdown.neighbor_s > 0
        assert breakdown.feature_s > 0
        assert breakdown.total_s == pytest.approx(
            breakdown.sample_s
            + breakdown.neighbor_s
            + breakdown.grouping_s
            + breakdown.feature_s
        )

    def test_fraction_in_unit_interval(self):
        profiler = PipelineProfiler()
        breakdown = profiler.breakdown(
            _toy_trace(False), EdgePCConfig.baseline()
        )
        assert 0 < breakdown.sample_and_neighbor_fraction < 1

    def test_per_layer_keys(self):
        profiler = PipelineProfiler()
        breakdown = profiler.breakdown(
            _toy_trace(False), EdgePCConfig.baseline()
        )
        assert "sample[0]" in breakdown.per_layer_s

    def test_optimized_trace_is_faster(self):
        profiler = PipelineProfiler()
        base = profiler.breakdown(
            _toy_trace(False), EdgePCConfig.baseline()
        )
        opt = profiler.breakdown(
            _toy_trace(True), EdgePCConfig.paper_default()
        )
        assert opt.sample_and_neighbor_s < base.sample_and_neighbor_s

    def test_energy_components(self):
        profiler = PipelineProfiler()
        energy = profiler.energy(
            _toy_trace(False), EdgePCConfig.baseline()
        )
        assert energy.compute_j > 0
        assert energy.memory_j > 0
        assert energy.total_j == pytest.approx(
            energy.compute_j + energy.memory_j
        )

    def test_reuse_raises_memory_power(self):
        profiler = PipelineProfiler()
        rec = StageRecorder()
        rec.record(STAGE_NEIGHBOR, "reuse", 1, n_queries=1000, k=20,
                   batch=1)
        with_reuse = profiler.energy(rec, EdgePCConfig.paper_default())
        rec2 = StageRecorder()
        rec2.record(STAGE_NEIGHBOR, "knn", 1, n_queries=1,
                    n_candidates=1, dim=3, batch=1)
        without = profiler.energy(rec2, EdgePCConfig.baseline())
        device = profiler.device
        # Memory power rate: reuse trace pays the higher rate.
        assert with_reuse.memory_j / profiler.breakdown(
            rec, EdgePCConfig.paper_default()
        ).total_s == pytest.approx(device.memory_power_reuse_w)
        assert without.memory_j / profiler.breakdown(
            rec2, EdgePCConfig.baseline()
        ).total_s == pytest.approx(device.memory_power_w)

    def test_compare_report(self):
        profiler = PipelineProfiler()
        report = compare(
            profiler,
            _toy_trace(False), EdgePCConfig.baseline(),
            _toy_trace(True), EdgePCConfig.paper_default(),
        )
        assert report.sample_neighbor_speedup > 1.0
        assert report.end_to_end_speedup > 1.0
        assert 0 < report.energy_saving_fraction < 1

    def test_tensor_cores_shrink_feature_stage(self):
        profiler = PipelineProfiler()
        trace = _toy_trace(True)
        plain = profiler.breakdown(trace, EdgePCConfig.paper_default())
        tc = profiler.breakdown(
            trace, EdgePCConfig.paper_with_tensor_cores()
        )
        assert tc.feature_s < plain.feature_s
        assert tc.sample_s == plain.sample_s
