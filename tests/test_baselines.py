"""Tests for the prior-work baseline models (repro.baselines)."""

import pytest

from repro.baselines import (
    MappingUnitModel,
    apply_delayed_aggregation,
    as_table,
    pointnet2_mapping_unit,
    summarize,
    table2_rows,
    unique_full_marks,
)
from repro.core import EdgePCConfig
from repro.runtime import PipelineProfiler
from repro.workloads import standard_workloads, trace


class TestMesorasi:
    def test_feature_compute_shrinks(self):
        spec = standard_workloads()["W1"]
        baseline = trace(spec, EdgePCConfig.baseline())
        mesorasi = apply_delayed_aggregation(baseline)
        profiler = PipelineProfiler()
        cfg = EdgePCConfig.baseline()
        result = summarize(
            profiler.breakdown(baseline, cfg),
            profiler.breakdown(mesorasi, cfg),
        )
        # Paper Sec. 6.4: FC ~2.1x faster, grouping ~2.73x slower,
        # E2E ~1.12x.  Shapes: FC speedup > 1, grouping slowdown > 1,
        # E2E gain small.
        assert result.feature_speedup > 1.5
        assert result.grouping_slowdown > 1.5
        assert 1.0 <= result.end_to_end_speedup < 1.5

    def test_sampling_untouched(self):
        spec = standard_workloads()["W1"]
        baseline = trace(spec, EdgePCConfig.baseline())
        mesorasi = apply_delayed_aggregation(baseline)
        profiler = PipelineProfiler()
        cfg = EdgePCConfig.baseline()
        assert profiler.breakdown(
            mesorasi, cfg
        ).sample_s == pytest.approx(
            profiler.breakdown(baseline, cfg).sample_s
        )

    def test_flops_divided_by_k(self):
        spec = standard_workloads()["W1"]
        baseline = trace(spec, EdgePCConfig.baseline())
        mesorasi = apply_delayed_aggregation(baseline)
        base_matmul = [e for e in baseline if e.op == "matmul"][0]
        meso_matmul = [e for e in mesorasi if e.op == "matmul"][0]
        assert meso_matmul.counts["flops"] == pytest.approx(
            base_matmul.counts["flops"] / 32
        )

    def test_event_count_preserved(self):
        spec = standard_workloads()["W4"]
        baseline = trace(spec, EdgePCConfig.baseline())
        assert len(apply_delayed_aggregation(baseline)) == len(baseline)


class TestPointAcc:
    def test_mapping_unit_speedup(self):
        """EdgePC folded into PointAcc's mapping unit reduces distance
        ops substantially (Sec. 6.4's O(N^2) -> O(N) argument)."""
        model = pointnet2_mapping_unit(
            8192, [1024, 256, 64, 16], k=32
        )
        assert model.speedup() > 10

    def test_distance_ops_formula(self):
        model = MappingUnitModel(layer_sizes=((100, 10),), k=4)
        assert model.distance_ops() == 10 * 100 * 2

    def test_morton_ops_scale_linearly(self):
        small = MappingUnitModel(layer_sizes=((1000, 100),), k=8)
        large = MappingUnitModel(layer_sizes=((4000, 400),), k=8)
        # O(N log N) growth: ~4.3x for 4x points, far below the 16x
        # growth of the quadratic baseline.
        ratio = large.morton_ops() / small.morton_ops()
        assert 3.5 < ratio < 6.0
        quad_ratio = large.distance_ops() / small.distance_ops()
        assert quad_ratio == pytest.approx(16.0)

    def test_rejects_bad_layers(self):
        with pytest.raises(ValueError):
            MappingUnitModel(layer_sizes=((10, 20),), k=4)

    def test_rejects_bad_window(self):
        model = MappingUnitModel(layer_sizes=((100, 10),), k=4)
        with pytest.raises(ValueError):
            model.morton_ops(window_multiplier=0)


class TestTable2:
    def test_only_edgepc_checks_everything(self):
        marks = unique_full_marks()
        assert marks["EdgePC"]
        assert sum(marks.values()) == 1

    def test_rows_match_paper(self):
        rows = {r.name: r for r in table2_rows()}
        assert not rows["Point-X"].general
        assert not rows["Crescent"].no_design_overhead
        assert not rows["PointAcc"].no_design_overhead
        assert not rows["Crescent"].accelerates_sampling
        assert rows["PointAcc"].accelerates_sampling

    def test_table_renders(self):
        text = as_table()
        assert "EdgePC" in text
        assert "Crescent" in text
        assert len(text.splitlines()) == len(table2_rows()) + 2
