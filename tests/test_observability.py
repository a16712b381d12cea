"""Tests for the repro.observability package: tracer, metrics
registry, exporters, and the run-report aggregator."""

import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from telemetry import (
    parse_prometheus,
    parse_prometheus_series,
    registry_from_snapshot,
    spans_by_trace,
    unescape_label_value,
)

from repro.observability import (
    FixedClock,
    MetricsRegistry,
    NULL_METRICS,
    NULL_SPAN,
    NULL_TRACER,
    RunReport,
    TraceContext,
    Tracer,
    emit_stage_spans,
    escape_label_value,
    find_orphans,
    mint_trace_id,
)
from repro.observability import tracing as tracing_module
from repro.runtime.profiler import StageBreakdown

GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "golden_chrome_trace.json"
)


def _golden_tracer() -> Tracer:
    """A tracer filled with deterministic simulated spans only."""
    tracer = Tracer()
    start = tracer.emit(
        "sample", 0.004, category="stage", attrs={"stage": "sample"}
    )
    tracer.emit(
        "sample[0]", 0.003, category="layer", start_s=start,
        attrs={"stage": "sample"},
    )
    tracer.emit(
        "sample[1]", 0.001, category="layer", start_s=start + 0.003,
        attrs={"stage": "sample"},
    )
    tracer.emit("neighbor_search", 0.002, category="stage")
    return tracer


class TestTracer:
    def test_nesting_assigns_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        spans = {s.name: s for s in tracer.finished()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        # Inner completes first.
        assert [s.name for s in tracer.finished()] == [
            "inner", "outer"
        ]

    def test_span_records_wall_time_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", "test") as span:
            span.set("k", 3)
            span.add_cost(0.5)
        (finished,) = tracer.finished()
        assert finished.duration_s >= 0
        assert finished.attrs == {"k": 3}
        assert finished.cost_s == 0.5
        assert finished.category == "test"
        assert not finished.simulated

    def test_exception_is_tagged_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        (finished,) = tracer.finished()
        assert finished.attrs["error"] == "RuntimeError"

    def test_emit_tiles_the_simulated_track(self):
        tracer = Tracer()
        first = tracer.emit("a", 1.0)
        second = tracer.emit("b", 2.0)
        pinned = tracer.emit("c", 0.5, start_s=0.25)
        third = tracer.emit("d", 1.0)
        assert (first, second, pinned) == (0.0, 1.0, 0.25)
        assert third == 3.0  # explicit start_s does not move cursor
        assert all(s.simulated for s in tracer.finished())

    def test_spans_from_threads_are_collected(self):
        tracer = Tracer()

        def work():
            with tracer.span("worker"):
                pass

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.finished()) == 8

    def test_clear_resets_spans_and_cursor(self):
        tracer = _golden_tracer()
        tracer.clear()
        assert tracer.finished() == ()
        assert tracer.emit("x", 1.0) == 0.0


class TestNullTracer:
    def test_span_returns_the_shared_singleton(self):
        assert NULL_TRACER.span("anything") is NULL_SPAN
        assert NULL_TRACER.span("other", "cat") is NULL_SPAN

    def test_null_span_accepts_the_full_protocol(self):
        with NULL_TRACER.span("x") as span:
            span.set("a", 1)
            span.add_cost(2.0)
        assert NULL_TRACER.finished() == ()

    def test_emit_is_a_noop(self):
        assert NULL_TRACER.emit("x", 1.0) == 0.0
        assert NULL_TRACER.finished() == ()

    def test_emit_stage_spans_skips_disabled_tracer(self):
        breakdown = StageBreakdown(1.0, 1.0, 1.0, 1.0)
        emit_stage_spans(NULL_TRACER, breakdown)
        assert NULL_TRACER.finished() == ()


class TestEmitStageSpans:
    def test_layers_nest_inside_their_stage(self):
        tracer = Tracer()
        breakdown = StageBreakdown(
            sample_s=0.004, neighbor_s=0.002, grouping_s=0.001,
            feature_s=0.003,
            per_layer_s={
                "sample[0]": 0.003, "sample[1]": 0.001,
                "neighbor_search[0]": 0.002,
                "grouping[0]": 0.001,
                "feature_compute[0]": 0.003,
            },
        )
        emit_stage_spans(tracer, breakdown)
        spans = {s.name: s for s in tracer.finished()}
        stage = spans["sample"]
        for layer in ("sample[0]", "sample[1]"):
            child = spans[layer]
            assert child.start_s >= stage.start_s
            assert (
                child.start_s + child.duration_s
                <= stage.start_s + stage.duration_s + 1e-12
            )
        # Stages tile in pipeline order on the simulated track.
        order = [
            s.name for s in tracer.finished() if s.category == "stage"
        ]
        assert order == [
            "sample", "neighbor_search", "grouping",
            "feature_compute",
        ]


class TestChromeExportGolden:
    def test_matches_golden_file(self, tmp_path):
        tracer = _golden_tracer()
        path = str(tmp_path / "trace.json")
        tracer.export_chrome(path)
        with open(path) as fh:
            produced = json.load(fh)
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        assert produced == golden
        # Byte-for-byte too: the exporter output must stay diffable.
        with open(path) as fh, open(GOLDEN) as gh:
            assert fh.read() == gh.read()

    def test_chrome_document_shape(self):
        doc = _golden_tracer().to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert event["tid"] == "simulated"
            assert event["dur"] >= 0

    def test_jsonl_round_trips_span_fields(self, tmp_path):
        tracer = _golden_tracer()
        path = str(tmp_path / "spans.jsonl")
        tracer.export_jsonl(path)
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
        assert [r["name"] for r in records] == [
            "sample", "sample[0]", "sample[1]", "neighbor_search"
        ]
        assert all(r["simulated"] for r in records)
        assert records[0]["cost_s"] == pytest.approx(0.004)


class TestTraceContext:
    def test_mint_sets_root_and_baggage(self):
        ctx = TraceContext.mint("r1", span_id=7, tenant="a")
        assert ctx.trace_id == mint_trace_id("r1") == "trace-r1"
        assert ctx.span_id == 7
        assert ctx.is_root
        assert ctx.get("tenant") == "a"
        assert ctx.get("request_id") == "r1"

    def test_child_keeps_trace_but_not_root(self):
        ctx = TraceContext.mint("r1", span_id=7)
        child = ctx.child(9)
        assert child.trace_id == ctx.trace_id
        assert child.span_id == 9
        assert not child.is_root
        assert child.get("request_id") == "r1"

    def test_with_baggage_is_immutable_update(self):
        ctx = TraceContext.mint("r1", span_id=1)
        tagged = ctx.with_baggage(attempt="2")
        assert tagged.get("attempt") == "2"
        assert ctx.get("attempt") is None
        assert tagged.to_dict()["baggage"]["attempt"] == "2"

    def test_tracer_mints_contexts_only_when_enabled(self):
        assert NULL_TRACER.mint_context("r1") is None
        tracer = Tracer(clock=FixedClock(0.0))
        ctx = tracer.mint_context("r1", tenant="t")
        assert ctx is not None and ctx.is_root
        assert ctx.get("tenant") == "t"


class TestTraceStitching:
    def _records(self, tracer):
        return [span.to_dict() for span in tracer.finished()]

    def test_emit_span_carries_trace_identity(self):
        tracer = Tracer(clock=FixedClock(0.0))
        root = tracer.next_span_id()
        tracer.emit_span(
            "request", start_s=0.0, duration_s=0.5,
            trace_id="trace-r1", span_id=root,
        )
        tracer.emit_span(
            "request.queue", start_s=0.0, duration_s=0.1,
            trace_id="trace-r1", parent_id=root,
        )
        records = self._records(tracer)
        grouped = spans_by_trace(records)
        assert set(grouped) == {"trace-r1"}
        assert [r["name"] for r in grouped["trace-r1"]] == [
            "request",
            "request.queue",
        ]
        assert find_orphans(records) == []

    def test_find_orphans_flags_missing_parent(self):
        tracer = Tracer(clock=FixedClock(0.0))
        tracer.emit_span(
            "request.queue", start_s=0.0, duration_s=0.1,
            trace_id="trace-r1", parent_id=12345,
        )
        orphans = find_orphans(self._records(tracer))
        assert [o["name"] for o in orphans] == ["request.queue"]

    def test_untraced_spans_are_not_orphans(self):
        # Spans without a trace_id (the workload tracer's output) are
        # outside the stitching contract entirely.
        tracer = _golden_tracer()
        assert find_orphans(self._records(tracer)) == []


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")
        counter.inc()
        counter.inc(2.5)
        assert registry.counter("hits_total") is counter
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("trips_total", stage="sampling").inc()
        registry.counter("trips_total", stage="neighbor").inc(2)
        assert (
            registry.counter("trips_total", stage="sampling").value
            == 1
        )
        assert (
            registry.counter("trips_total", stage="neighbor").value
            == 2
        )
        assert len(registry) == 2

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(4.0)
        gauge.inc(-1.5)
        assert gauge.value == 2.5

    def test_histogram_buckets_and_quantile(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(v)
        assert hist.count == 5
        assert hist.sum == pytest.approx(56.05)
        assert hist.cumulative_counts() == [1, 3, 4, 5]
        assert 0.1 <= hist.quantile(0.5) <= 1.0
        assert hist.quantile(0.0) == pytest.approx(0.0)
        # The +Inf tail saturates at the largest finite bound.
        assert hist.quantile(1.0) == pytest.approx(10.0)

    def test_histogram_requires_sorted_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 0.1))

    def test_empty_histogram_quantile_is_nan(self):
        # A 0.0 here once let an idle chaos run (zero samples) pass
        # the p95 gate as "0 ms"; no-data must not read as healthy.
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        assert math.isnan(hist.quantile(0.5))

    def test_sum_by_groups_a_name_by_label_and_creates_nothing(self):
        registry = MetricsRegistry()
        registry.counter("failed_total", reason="a").inc(2)
        registry.counter("failed_total", reason="b").inc()
        registry.counter("failed_total").inc(4)
        registry.histogram("failed_total_seconds").observe(1.0)
        assert registry.sum_by("failed_total") == {"": 7.0}
        assert registry.sum_by("failed_total", "reason") == {
            "": 4.0, "a": 2.0, "b": 1.0,
        }
        assert registry.sum_by("failed_total_seconds") == {}
        assert registry.sum_by("absent_total") == {}
        assert len(registry) == 4
        assert NULL_METRICS.sum_by("failed_total") == {}

    def test_snapshot_is_sorted_and_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("z_total").inc()
        registry.gauge("a_gauge").set(1)
        snap = registry.snapshot()
        names = [entry["name"] for entry in snap["metrics"]]
        assert names == sorted(names)
        json.dumps(snap)  # must not raise


class TestSnapshotRoundTrip:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("served_total", stage="sampling").inc(7)
        registry.gauge("score", stage="neighbor").set(0.25)
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(2.0)
        return registry

    def test_json_snapshot_round_trips(self):
        registry = self._populated()
        snap = registry.snapshot()
        rebuilt = registry_from_snapshot(
            json.loads(json.dumps(snap))
        )
        assert rebuilt.snapshot() == snap

    def test_export_json_file_round_trips(self, tmp_path):
        registry = self._populated()
        path = str(tmp_path / "metrics.json")
        registry.export_json(path)
        with open(path) as fh:
            rebuilt = registry_from_snapshot(json.load(fh))
        assert rebuilt.snapshot() == registry.snapshot()

    def test_prometheus_text_round_trips_values(self):
        registry = self._populated()
        samples = parse_prometheus(registry.to_prometheus())
        assert samples['served_total{stage="sampling"}'] == 7
        assert samples['score{stage="neighbor"}'] == 0.25
        assert samples['lat_seconds_bucket{le="0.1"}'] == 1
        assert samples['lat_seconds_bucket{le="+Inf"}'] == 2
        assert samples["lat_seconds_sum"] == pytest.approx(2.05)
        assert samples["lat_seconds_count"] == 2

    def test_prometheus_declares_each_type_once(self):
        registry = MetricsRegistry()
        registry.counter("t_total", stage="a").inc()
        registry.counter("t_total", stage="b").inc()
        text = registry.to_prometheus()
        assert text.count("# TYPE t_total counter") == 1


class TestExemplars:
    def test_observe_keeps_bucket_representative(self):
        hist = MetricsRegistry().histogram(
            "latency_seconds", buckets=(0.1, 1.0)
        )
        hist.observe(0.05, trace_id="trace-a")
        hist.observe(0.08, trace_id="trace-b")  # max of its bucket
        hist.observe(0.5)  # no trace id: never an exemplar
        assert hist.exemplars == {0: ("trace-b", 0.08)}

    def test_exemplars_survive_snapshot_round_trip(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", buckets=(1.0,))
        hist.observe(0.5, trace_id="trace-x")
        clone = registry_from_snapshot(registry.snapshot())
        restored = clone.histogram("latency_seconds", buckets=(1.0,))
        assert restored.exemplars == {0: ("trace-x", 0.5)}


class TestLabelEscaping:
    def test_escape_round_trips_the_nasty_characters(self):
        raw = 'tenant "a"\\with\nnewline'
        assert unescape_label_value(escape_label_value(raw)) == raw

    def test_prometheus_series_round_trip_with_escapes(self):
        registry = MetricsRegistry()
        registry.counter(
            "requests_total", tenant='t"quoted"', path="a\\b\nc"
        ).inc(3)
        series = parse_prometheus_series(registry.to_prometheus())
        key = (
            "requests_total",
            (("path", "a\\b\nc"), ("tenant", 't"quoted"')),
        )
        assert series[key] == 3.0

    def test_property_escape_unescape_round_trip(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=200, deadline=None)
        @given(
            st.text(
                alphabet=st.characters(
                    blacklist_categories=("Cs",)
                ),
                max_size=40,
            )
        )
        def check(value):
            assert (
                unescape_label_value(escape_label_value(value))
                == value
            )
            escaped = escape_label_value(value)
            assert "\n" not in escaped

        check()

    def test_property_series_round_trip(self):
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        label_text = st.text(
            alphabet=st.characters(
                whitelist_categories=("L", "N", "P", "S", "Z"),
                whitelist_characters='\\"\n',
            ),
            min_size=0,
            max_size=24,
        )

        @settings(max_examples=100, deadline=None)
        @given(label_text)
        @example("\u2028")  # a line break ``str.splitlines`` honours
        def check(value):
            registry = MetricsRegistry()
            registry.counter("series_total", label=value).inc()
            series = parse_prometheus_series(
                registry.to_prometheus()
            )
            assert series[
                ("series_total", (("label", value),))
            ] == 1.0

        check()


class TestRegistryConcurrency:
    def test_threads_hammering_one_registry(self):
        registry = MetricsRegistry()
        n_threads, n_iter = 8, 500
        barrier = threading.Barrier(n_threads)

        def work(tid: int):
            barrier.wait()
            for i in range(n_iter):
                registry.counter("c_total").inc()
                registry.counter("labeled_total", t=str(tid)).inc()
                registry.gauge("g").set(i)
                registry.histogram(
                    "h", buckets=(0.5, 1.0)
                ).observe(i % 2)

        threads = [
            threading.Thread(target=work, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("c_total").value == n_threads * n_iter
        for t in range(n_threads):
            assert (
                registry.counter("labeled_total", t=str(t)).value
                == n_iter
            )
        hist = registry.histogram("h", buckets=(0.5, 1.0))
        assert hist.count == n_threads * n_iter
        assert sum(hist.counts) == hist.count


class TestRunReport:
    """The run report holds only what its bundle does not: meta, the
    simulated breakdowns and energies, and their per-stage medians."""

    BREAKDOWNS = (
        StageBreakdown(0.1, 0.2, 0.3, 0.4),
        StageBreakdown(0.3, 0.4, 0.5, 0.6),
        StageBreakdown(0.2, 0.3, 0.4, 0.5),
    )

    def test_build_merges_all_sources(self):
        report = RunReport.build(
            breakdowns=self.BREAKDOWNS, workload="W3"
        )
        assert report.meta["workload"] == "W3"
        assert report.meta["schema_version"] == 2
        assert len(report.breakdowns) == 3
        medians = report.stage_medians_s()
        assert medians["sample_s"] == pytest.approx(0.2)
        assert medians["total_s"] == pytest.approx(1.4)
        assert set(report.to_dict()) == {
            "meta", "breakdowns", "energies", "stage_medians_s"
        }

    def test_save_load_round_trip(self, tmp_path):
        """Saved as the bundle's ``run_report.json``, beside (not
        inside) the run's spans and metrics."""
        from repro.observability import write_artifacts
        from repro.observability.dashboard import ARTIFACT_RUN_REPORT
        from repro.runtime.profiler import EnergyReport

        report = RunReport.build(
            breakdowns=self.BREAKDOWNS,
            energies=[EnergyReport(1.0, 2.0)],
            clock=FixedClock(5.0),
            command="test",
        )
        write_artifacts(
            str(tmp_path),
            _golden_tracer(),
            MetricsRegistry(),
            {ARTIFACT_RUN_REPORT: report.to_dict()},
        )
        loaded = json.loads((tmp_path / ARTIFACT_RUN_REPORT).read_text())
        assert loaded == report.to_dict()
        assert loaded["energies"] == [
            {"compute_j": 1.0, "memory_j": 2.0, "total_j": 3.0}
        ]
        assert len((tmp_path / "trace.jsonl").read_text().splitlines()) == 4

    def test_empty_report_has_no_medians(self):
        assert RunReport.build().stage_medians_s() == {}

    def test_creation_time_is_injectable(self):
        from repro.observability import FixedClock

        report = RunReport.build(clock=FixedClock(123.0))
        assert report.meta["created_unix"] == 123.0

    def test_fixed_clock_advances(self):
        from repro.observability import FixedClock

        clock = FixedClock(10.0)
        assert clock() == 10.0
        clock.advance(2.5)
        assert clock() == 12.5

    def test_default_clock_is_wall_time(self):
        report = RunReport.build()
        assert report.meta["created_unix"] > 1.6e9


class TestDisabledTracingOverhead:
    """The acceptance criterion: a pipeline without a tracer must not
    allocate tracer-side objects per batch."""

    def _pipeline(self, metrics=None):
        from repro.core import EdgePCConfig
        from repro.nn import PointNet2Segmentation, SAConfig
        from repro.pipeline import EdgePCPipeline

        model = PointNet2Segmentation(
            num_classes=3,
            sa_configs=(
                SAConfig(0.5, 4, 1.5, (8, 8)),
                SAConfig(0.5, 4, 3.0, (16, 16)),
            ),
            edgepc=EdgePCConfig.paper_default(),
            head_hidden=8,
            rng=np.random.default_rng(0),
        )
        return EdgePCPipeline(model, metrics=metrics)

    def test_default_pipeline_uses_the_null_tracer(self, rng):
        from repro.core.streaming import StreamingMortonOrder
        from repro.geometry.bbox import BoundingBox
        from repro.robustness.lockwatch import LockOrderWatchdog
        from repro.serving import InferenceServer, ServingConfig
        from repro.train.trainer import Trainer

        pipeline = self._pipeline()
        assert pipeline.tracer is NULL_TRACER
        assert pipeline.tracer.span("pipeline.infer") is NULL_SPAN
        # Without a registry every holder shares the one NULL_METRICS;
        # a passed-in one is kept even when empty (and so falsy).
        for registry in (None, MetricsRegistry()):
            pipeline = self._pipeline(registry)
            server = InferenceServer(
                pipeline,
                ServingConfig(max_batch_size=2, workers=1),
                clock=FixedClock(0.0),
            )
            stream = StreamingMortonOrder(
                BoundingBox(np.zeros(3), np.ones(3)), metrics=registry
            )
            holders = (
                pipeline,
                server,
                server.queue,
                stream,
                Trainer(pipeline.model, metrics=registry),
                LockOrderWatchdog(metrics=registry),
            )
            expected = NULL_METRICS if registry is None else registry
            for holder in holders:
                assert holder.metrics is expected
            pipeline.infer(rng.normal(size=(1, 64, 3)))
            for _ in range(2):
                server.submit(rng.normal(size=(64, 3)))
            assert len(server.pump()) == 1
            stream.insert(rng.random((10, 3)))
        # Writing to the null registry registered nothing.
        assert len(NULL_METRICS) == 0
        assert NULL_METRICS.snapshot() == MetricsRegistry().snapshot()
        assert NULL_METRICS.to_prometheus() == ""

    def test_disabled_infer_allocates_nothing_in_the_tracer(self, rng):
        pipeline = self._pipeline()
        xyz = rng.normal(size=(1, 64, 3))
        pipeline.infer(xyz)  # warm caches and lazy imports
        trace_filter = tracemalloc.Filter(
            True, tracing_module.__file__
        )
        tracemalloc.start()
        try:
            pipeline.infer(xyz)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = snapshot.filter_traces([trace_filter]).statistics(
            "lineno"
        )
        assert sum(s.size for s in stats) == 0, stats
        assert NULL_TRACER.finished() == ()
