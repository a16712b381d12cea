"""Telemetry wiring tests: pipeline, guard, streaming, trainer, and
the per-layer ordering guarantee the exporters rely on."""

import numpy as np
import pytest

from repro.core import EdgePCConfig
from repro.core.reuse import NeighborCache
from repro.core.streaming import StreamingMortonOrder
from repro.geometry.bbox import BoundingBox
from repro.nn import DGCNNClassifier, PointNet2Segmentation, SAConfig
from repro.observability import NULL_METRICS, MetricsRegistry, Tracer
from repro.pipeline import EdgePCPipeline
from repro.robustness.guard import (
    Guard,
    GuardThresholds,
    InferenceRejectedError,
)
from repro.robustness.validate import ValidationPolicy
from repro.runtime import PipelineProfiler
from repro.workloads import standard_workloads, trace

TINY_SA = (
    SAConfig(0.5, 4, 1.5, (8, 8)),
    SAConfig(0.5, 4, 3.0, (16, 16)),
)


def _pn2(config=None):
    return PointNet2Segmentation(
        num_classes=3, sa_configs=TINY_SA,
        edgepc=config or EdgePCConfig.paper_default(),
        head_hidden=8, rng=np.random.default_rng(0),
    )


def _counter_value(registry, name, **labels):
    return registry.counter(name, **labels).value


class TestPipelineTelemetry:
    def test_infer_emits_spans_and_metrics(self, rng):
        tracer, registry = Tracer(), MetricsRegistry()
        pipeline = EdgePCPipeline(
            _pn2(), tracer=tracer, metrics=registry
        )
        pipeline.infer(rng.normal(size=(2, 64, 3)))
        names = [s.name for s in tracer.finished()]
        for expected in (
            "pipeline.infer", "pipeline.validate", "pipeline.forward",
            "sample", "neighbor_search", "grouping",
            "feature_compute",
        ):
            assert expected in names
        infer_span = next(
            s for s in tracer.finished() if s.name == "pipeline.infer"
        )
        assert infer_span.attrs["batch"] == 2
        assert infer_span.cost_s > 0
        assert _counter_value(registry, "pipeline_batches_total") == 1
        assert _counter_value(registry, "pipeline_clouds_total") == 2
        hist = registry.histogram(
            "pipeline_stage_latency_seconds", stage="sample"
        )
        assert hist.count == 1

    def test_validation_repair_counted(self, rng):
        registry = MetricsRegistry()
        pipeline = EdgePCPipeline(
            _pn2(), metrics=registry,
            validation=ValidationPolicy(on_invalid="repair"),
        )
        xyz = rng.normal(size=(1, 64, 3))
        xyz[0, 0] = np.nan
        pipeline.infer(xyz)
        assert (
            _counter_value(registry, "validation_repairs_total") == 1
        )
        assert (
            registry.counter(
                "validation_issues_total",
                kind="non_finite", action="dropped",
            ).value
            > 0
        )

    def test_validation_reject_counted(self, rng):
        from repro.robustness.validate import CloudValidationError

        registry = MetricsRegistry()
        pipeline = EdgePCPipeline(_pn2(), metrics=registry)
        xyz = rng.normal(size=(1, 64, 3))
        xyz[0, 0] = np.inf
        with pytest.raises(CloudValidationError):
            pipeline.infer(xyz)
        assert (
            _counter_value(registry, "validation_rejects_total") == 1
        )

    def test_reuse_hits_counted_for_dgcnn(self, rng):
        registry = MetricsRegistry()
        model = DGCNNClassifier(
            num_classes=4, k=4, ec_channels=((8,), (8,)),
            emb_channels=16, head_hidden=8,
            edgepc=EdgePCConfig.paper_default(),
            rng=np.random.default_rng(0),
        )
        pipeline = EdgePCPipeline(model, metrics=registry)
        pipeline.infer(rng.normal(size=(1, 32, 3)))
        assert (
            _counter_value(registry, "neighbor_reuse_hits_total") >= 1
        )

    def test_metrics_optional_by_default(self, rng):
        pipeline = EdgePCPipeline(_pn2())
        result = pipeline.infer(rng.normal(size=(1, 32, 3)))
        assert result.logits.shape == (1, 32, 3)


class TestGuardTelemetry:
    def _guarded(self, registry, tracer=None, **thresholds):
        return EdgePCPipeline(
            _pn2(),
            guard=Guard(GuardThresholds(**thresholds)),
            tracer=tracer,
            metrics=registry,
        )

    def test_probes_and_served_batches_counted(self, rng):
        registry = MetricsRegistry()
        guard = self._guarded(registry)
        guard.infer(rng.normal(size=(1, 64, 3)))
        assert (
            _counter_value(registry, "guard_batches_served_total")
            == 1
        )
        assert (
            _counter_value(
                registry, "guard_probes_total", stage="sampling"
            )
            == 1
        )
        assert (
            registry.gauge(
                "guard_probe_score", stage="sampling"
            ).value
            > 0
        )

    def test_trips_fallbacks_and_transitions_counted(self, rng):
        registry = MetricsRegistry()
        guard = self._guarded(
            registry, max_density_cv=0.0, trip_limit=1, cooldown=2
        )
        xyz = rng.normal(size=(1, 64, 3))
        guard.infer(xyz)  # probe trips -> breaker opens
        assert (
            _counter_value(
                registry, "guard_probe_trips_total", stage="sampling"
            )
            == 1
        )
        assert (
            _counter_value(
                registry, "guard_fallbacks_total",
                stage="sampling", reason="probe_tripped",
            )
            == 1
        )
        assert (
            _counter_value(
                registry, "guard_breaker_transitions_total",
                stage="sampling", from_state="closed",
                to_state="open",
            )
            == 1
        )
        assert (
            registry.gauge(
                "guard_breaker_state", stage="sampling"
            ).value
            == 2.0
        )
        guard.infer(xyz)  # cooldown: forced exact
        assert (
            _counter_value(
                registry, "guard_fallbacks_total",
                stage="sampling", reason="circuit_open",
            )
            == 1
        )
        guard.infer(xyz)  # cooldown elapsed: half-open re-probe
        assert (
            _counter_value(
                registry, "guard_reprobes_total", stage="sampling"
            )
            == 1
        )
        assert (
            _counter_value(
                registry, "guard_breaker_transitions_total",
                stage="sampling", from_state="open",
                to_state="half_open",
            )
            == 1
        )

    def test_rejection_counted_and_probe_spans_traced(self):
        tracer, registry = Tracer(), MetricsRegistry()
        guard = self._guarded(registry, tracer=tracer)
        bad = np.full((1, 64, 3), np.nan)
        with pytest.raises(InferenceRejectedError):
            guard.infer(bad)
        assert (
            _counter_value(registry, "guard_rejections_total") == 1
        )
        assert (
            _counter_value(registry, "validation_rejects_total") == 1
        )
        infer = next(
            s for s in tracer.finished() if s.name == "pipeline.infer"
        )
        assert infer.attrs["error"] == "InferenceRejectedError"

    def test_probe_span_carries_metric_and_threshold(self, rng):
        tracer = Tracer()
        guard = self._guarded(None, tracer=tracer)
        guard.infer(rng.normal(size=(1, 64, 3)))
        probes = [
            s for s in tracer.finished() if s.name == "guard.probe"
        ]
        assert probes
        infer = next(
            s for s in tracer.finished() if s.name == "pipeline.infer"
        )
        for span in probes:
            assert span.parent_id == infer.span_id
            assert span.attrs["stage"] in ("sampling", "neighbor")
            assert "metric" in span.attrs
            assert "threshold" in span.attrs
            assert span.attrs["reprobe"] is False


class TestStreamingTelemetry:
    def test_insert_and_evict_counters(self, rng):
        registry = MetricsRegistry()
        box = BoundingBox(np.zeros(3), np.ones(3))
        stream = StreamingMortonOrder(box, metrics=registry)
        first = rng.random((100, 3))
        stream.insert(first)
        stream.insert(first[:50])  # same voxels: evictable duplicates
        assert (
            _counter_value(registry, "streaming_inserts_total") == 2
        )
        assert (
            _counter_value(
                registry, "streaming_points_inserted_total"
            )
            == 150
        )
        assert registry.gauge("streaming_points").value == 150
        removed = stream.remove_oldest_duplicates()
        assert removed == 50
        assert (
            _counter_value(registry, "streaming_evictions_total")
            == removed
        )
        assert (
            registry.gauge("streaming_points").value
            == 150 - removed
        )
        assert (
            _counter_value(
                registry, "streaming_maintenance_ops_total"
            )
            == stream.maintenance_ops
        )
        assert (
            registry.gauge("streaming_scratch_resort_ops").value
            == stream.scratch_resort_ops()
        )

    def test_dropped_points_counted_under_repair(self, rng):
        registry = MetricsRegistry()
        box = BoundingBox(np.zeros(3), np.ones(3))
        stream = StreamingMortonOrder(
            box,
            validation=ValidationPolicy(
                on_invalid="repair", bounding_box=box
            ),
            metrics=registry,
        )
        points = rng.random((20, 3))
        points[:5] += 10.0  # strays outside the scene box
        stream.insert(points)
        assert (
            _counter_value(
                registry, "streaming_points_dropped_total"
            )
            == 5
        )
        assert (
            _counter_value(
                registry, "streaming_points_inserted_total"
            )
            == 15
        )

    def test_metrics_off_by_default(self, rng):
        stream = StreamingMortonOrder(
            BoundingBox(np.zeros(3), np.ones(3))
        )
        stream.insert(rng.random((10, 3)))
        assert stream.metrics is NULL_METRICS


class TestTrainerTelemetry:
    def test_epoch_spans_and_counters(self, rng):
        from repro.datasets.base import Batch
        from repro.train.trainer import Trainer

        tracer, registry = Tracer(), MetricsRegistry()
        model = _pn2(EdgePCConfig.baseline())
        batches = [
            Batch(
                xyz=rng.normal(size=(1, 16, 3)),
                labels=rng.integers(0, 3, size=(1, 16)),
            )
            for _ in range(2)
        ]
        trainer = Trainer(model, tracer=tracer, metrics=registry)
        result = trainer.fit(batches, epochs=2)
        names = [s.name for s in tracer.finished()]
        assert names.count("train.epoch") == 2
        assert names.count("train.evaluate") == 2
        assert names.count("train.fit") == 1
        assert _counter_value(registry, "train_epochs_total") == 2
        assert _counter_value(registry, "train_batches_total") == 4
        assert registry.gauge("train_last_loss").value == (
            pytest.approx(result.losses[-1])
        )
        assert (
            registry.gauge("train_last_accuracy").value
            == pytest.approx(result.train_accuracies[-1])
        )


class TestNeighborCacheCounters:
    def test_hits_and_stores_counted(self):
        cache = NeighborCache()
        assert (cache.stores, cache.hits) == (0, 0)
        cache.store(np.zeros((4, 2), dtype=np.int64))
        cache.load()
        cache.load()
        assert (cache.stores, cache.hits) == (1, 2)
        cache.clear()
        with pytest.raises(RuntimeError):
            cache.load()
        assert cache.hits == 2


class TestPerLayerOrdering:
    """Satellite: per_layer_s must be insertion-ordered by recorder
    event so trace/report diffs are stable across runs."""

    @pytest.mark.parametrize("name", ["W1", "W3"])
    def test_order_matches_first_event_occurrence(self, name):
        spec = standard_workloads()[name]
        config = EdgePCConfig.paper_default()
        profiler = PipelineProfiler()
        recorder = trace(spec, config)
        breakdown = profiler.breakdown(recorder, config)
        expected = list(
            dict.fromkeys(
                f"{e.stage}[{e.layer}]" for e in recorder
            )
        )
        assert list(breakdown.per_layer_s) == expected

    def test_order_is_deterministic_across_runs(self):
        spec = standard_workloads()["W1"]
        config = EdgePCConfig.paper_default()
        profiler = PipelineProfiler()
        first = profiler.breakdown(trace(spec, config), config)
        second = profiler.breakdown(trace(spec, config), config)
        assert list(first.per_layer_s) == list(second.per_layer_s)
        assert first.per_layer_s == second.per_layer_s
