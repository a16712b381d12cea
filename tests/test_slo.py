"""Tests for the SLO engine and the deterministic dashboard.

The engine tests drive a :class:`FixedClock` + a plain
:class:`MetricsRegistry` by hand (no serving stack), so each window /
burn-rate / budget behavior is pinned in isolation; the dashboard
tests assert the render is a pure function of its inputs.
"""

import json
import math
import os

import pytest

from repro.observability import (
    DashboardData,
    FixedClock,
    MetricsRegistry,
    SloEngine,
    SloObjective,
    SloSpec,
    load_artifacts,
    render_dashboard,
    slowest_traces,
)
from repro.observability.dashboard import (
    ARTIFACT_LOADGEN,
    ARTIFACT_METRICS,
    ARTIFACT_SLO,
    ARTIFACT_TRACE,
    WIDTH,
)


def _error_spec(target=0.25, threshold=2.0):
    return SloSpec(
        name="test",
        objectives=(
            SloObjective(
                name="errors",
                kind="error_rate",
                target=target,
                good_metric="serving_fleet_completed_total",
                bad_metrics=("serving_fleet_failed_total",),
                short_window_s=0.5,
                long_window_s=2.0,
                burn_threshold=threshold,
            ),
        ),
    )


class TestSpec:
    def test_round_trips_through_json_file(self, tmp_path):
        spec = _error_spec()
        path = tmp_path / "spec.json"
        spec.save(str(path))
        assert SloSpec.load(str(path)) == spec

    def test_rejects_unknown_schema_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            SloSpec.from_dict(
                {"schema_version": 99, "objectives": []}
            )

    def test_rejects_duplicate_objective_names(self):
        objective = _error_spec().objectives[0]
        with pytest.raises(ValueError, match="duplicate"):
            SloSpec(objectives=(objective, objective))

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SloObjective(name="", kind="error_rate", target=0.1)
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="nope", target=0.1)
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="error_rate", target=1.5)
        with pytest.raises(ValueError):
            SloObjective(
                name="x",
                kind="error_rate",
                target=0.1,
                short_window_s=3.0,
                long_window_s=1.0,
            )

    def test_committed_spec_parses(self):
        # The spec the CI slo-report job runs under must stay loadable.
        spec = SloSpec.load(
            os.path.join(
                os.path.dirname(__file__), "..", "SLO_serving.json"
            )
        )
        assert spec.name == "serving"
        kinds = {o.kind for o in spec.objectives}
        assert kinds == {"latency_quantile", "error_rate", "goodput"}


class TestEngineNoData:
    def test_no_signal_is_nan_not_healthy(self):
        clock = FixedClock(0.0)
        engine = SloEngine(
            _error_spec(), MetricsRegistry(), clock=clock
        )
        clock.advance(1.0)
        engine.tick()
        (status,) = engine.evaluate()
        assert math.isnan(status.compliance)
        assert math.isnan(status.burn_short)
        assert math.isnan(status.budget_remaining)
        assert not status.alerting
        assert engine.exhausted() == []


class TestEngineErrorRate:
    def _engine(self, **kwargs):
        clock = FixedClock(0.0)
        registry = MetricsRegistry()
        engine = SloEngine(
            _error_spec(**kwargs), registry, clock=clock
        )
        return clock, registry, engine

    def test_clean_traffic_is_fully_compliant(self):
        clock, registry, engine = self._engine()
        registry.counter("serving_fleet_completed_total").inc(40)
        clock.advance(1.0)
        engine.tick()
        (status,) = engine.evaluate()
        assert status.compliance == 1.0
        assert status.burn_long == 0.0
        assert status.budget_remaining == 1.0
        assert not status.alerting

    def test_sustained_burn_raises_one_alert(self):
        clock, registry, engine = self._engine()
        # 50% failures against a 25% budget: burn 2.0x in both
        # windows, exactly at the threshold.
        for _ in range(4):
            clock.advance(0.25)
            registry.counter("serving_fleet_completed_total").inc(5)
            registry.counter("serving_fleet_failed_total").inc(5)
            engine.tick()
        assert [a.objective for a in engine.alerts] == ["errors"]
        alert = engine.alerts[0]
        assert alert.burn_short >= 2.0
        assert alert.burn_long >= 2.0
        # Still alerting on later ticks, but no duplicate alert.
        clock.advance(0.25)
        registry.counter("serving_fleet_failed_total").inc(5)
        assert engine.tick() == []
        assert len(engine.alerts) == 1

    def test_budget_exhaustion_and_report(self):
        clock, registry, engine = self._engine()
        registry.counter("serving_fleet_completed_total").inc(5)
        registry.counter("serving_fleet_failed_total").inc(5)
        clock.advance(1.0)
        engine.tick()
        assert engine.exhausted() == ["errors"]
        report = engine.report()
        assert report["spec"] == "test"
        assert report["exhausted"] == ["errors"]
        (status,) = report["objectives"]
        assert status["budget_remaining"] <= 0.0
        json.dumps(report)  # must stay JSON-serializable

    def test_publishes_slo_metrics(self):
        clock, registry, engine = self._engine()
        registry.counter("serving_fleet_completed_total").inc(10)
        clock.advance(1.0)
        engine.tick()
        names = {
            name for (name, _), _ in registry.items()
        }
        assert "slo_compliance_ratio" in names
        assert "slo_burn_rate" in names
        assert "slo_budget_remaining_ratio" in names

    def test_ticks_coalesce_below_min_interval(self):
        clock, registry, engine = self._engine()
        clock.advance(1.0)
        engine.tick()
        frames = len(engine._frames)
        clock.advance(0.01)  # below min_tick_interval_s=0.05
        engine.tick()
        assert len(engine._frames) == frames


class TestEngineLatencyAndGoodput:
    def test_latency_quantile_uses_target_bucket(self):
        clock = FixedClock(0.0)
        registry = MetricsRegistry()
        spec = SloSpec(
            name="lat",
            objectives=(
                SloObjective(
                    name="p95",
                    kind="latency_quantile",
                    target=0.1,
                    quantile=0.9,
                    metric="serving_request_latency_seconds",
                    short_window_s=0.5,
                    long_window_s=2.0,
                ),
            ),
        )
        engine = SloEngine(spec, registry, clock=clock)
        hist = registry.histogram(
            "serving_request_latency_seconds",
            buckets=(0.1, 1.0),
        )
        for _ in range(9):
            hist.observe(0.05)  # under the 100 ms target
        hist.observe(0.5)  # one slow outlier: exactly at quota
        clock.advance(1.0)
        engine.tick()
        (status,) = engine.evaluate()
        assert status.compliance == pytest.approx(0.9)
        assert status.burn_long == pytest.approx(1.0)
        assert status.budget_remaining == pytest.approx(0.0)

    def test_goodput_shortfall_burns_budget(self):
        clock = FixedClock(0.0)
        registry = MetricsRegistry()
        spec = SloSpec(
            name="gp",
            objectives=(
                SloObjective(
                    name="goodput",
                    kind="goodput",
                    target=10.0,
                    quantile=0.9,
                    good_metric="serving_fleet_completed_total",
                    short_window_s=0.5,
                    long_window_s=2.0,
                ),
            ),
        )
        engine = SloEngine(spec, registry, clock=clock)
        # 5 good/s against a 10/s target: 50% shortfall.
        registry.counter("serving_fleet_completed_total").inc(5)
        clock.advance(1.0)
        engine.tick()
        (status,) = engine.evaluate()
        assert status.compliance == pytest.approx(0.5)
        assert status.budget_remaining < 1.0


class TestDashboard:
    def _data(self):
        return DashboardData(
            title="t",
            fleet_stats={"completed": 5.0, "submitted": 6.0},
            replica_states={"0": "healthy", "1": "ejected"},
            slo_report={
                "spec": "serving",
                "objectives": [
                    {
                        "objective": "errors",
                        "kind": "error_rate",
                        "compliance": 0.9,
                        "burn_short": 1.0,
                        "burn_long": 0.5,
                        "budget_remaining": 0.4,
                        "alerting": True,
                    }
                ],
                "alerts": [{"objective": "errors"}],
                "exhausted": [],
            },
            latency_ms={"p50": 10.0, "p95": 20.0},
            trace_records=[
                {
                    "name": "request",
                    "trace_id": "trace-b",
                    "duration_s": 0.2,
                    "attrs": {"outcome": "ok", "attempts": 2},
                },
                {
                    "name": "request",
                    "trace_id": "trace-a",
                    "duration_s": 0.5,
                    "attrs": {"outcome": "failed", "attempts": 3},
                },
            ],
        )

    def test_render_is_deterministic(self):
        first = render_dashboard(self._data())
        second = render_dashboard(self._data())
        assert first == second

    def test_render_covers_every_section(self):
        text = render_dashboard(self._data())
        assert "fleet" in text
        assert "replica 1    ejected" in text
        assert "slo budgets :: spec=serving" in text
        assert "[ALERTING]" in text
        assert "latency (ms)" in text
        assert "trace-a" in text

    def test_slowest_traces_orders_by_duration_then_id(self):
        records = self._data().trace_records
        ranked = slowest_traces(records, top_k=5)
        assert [r["trace_id"] for r in ranked] == [
            "trace-a",
            "trace-b",
        ]
        assert slowest_traces(records, top_k=1)[0]["trace_id"] == (
            "trace-a"
        )

    def test_nan_renders_as_not_available(self):
        data = DashboardData(
            title="t",
            slo_report={
                "spec": "s",
                "objectives": [
                    {
                        "objective": "x",
                        "kind": "error_rate",
                        "compliance": float("nan"),
                        "burn_short": float("nan"),
                        "burn_long": float("nan"),
                        "budget_remaining": float("nan"),
                        "alerting": False,
                    }
                ],
                "alerts": [],
                "exhausted": [],
            },
        )
        text = render_dashboard(data)
        assert "compliance=n/a" in text


class TestArtifacts:
    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_artifacts(str(tmp_path))

    def test_round_trip_through_artifact_files(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("serving_fleet_completed_total").inc(7)
        registry.gauge("serving_queue_depth", replica="0").set(3)
        registry.export_json(str(tmp_path / ARTIFACT_METRICS))
        (tmp_path / ARTIFACT_SLO).write_text(
            json.dumps(
                {
                    "spec": "serving",
                    "objectives": [],
                    "alerts": [],
                    "exhausted": [],
                }
            )
        )
        (tmp_path / ARTIFACT_LOADGEN).write_text(
            json.dumps(
                {
                    "latency_ms": {"p95": 12.5},
                    "replica_states": {"0": "healthy"},
                }
            )
        )
        (tmp_path / ARTIFACT_TRACE).write_text(
            json.dumps(
                {
                    "name": "request",
                    "trace_id": "trace-x",
                    "duration_s": 0.01,
                    "attrs": {"outcome": "ok"},
                }
            )
            + "\n"
        )
        data = load_artifacts(str(tmp_path))
        assert data.fleet_stats == {"completed": 7.0}
        assert data.latency_ms == {"p95": 12.5}
        assert data.replica_states == {"0": "healthy"}
        text = render_dashboard(data)
        assert "trace-x" in text
        assert "p95" in text

    def test_dashboard_cli_renders_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / ARTIFACT_SLO).write_text(
            json.dumps(
                {
                    "spec": "serving",
                    "objectives": [],
                    "alerts": [],
                    "exhausted": [],
                }
            )
        )
        assert main(["dashboard", "--from", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro dashboard ::" in out
        assert "slo budgets :: spec=serving" in out

    def test_live_dashboard_equals_the_saved_bundle_render(
        self, tmp_path, capsys
    ):
        """``--dashboard`` renders the data its ``--artifacts-dir``
        bundle saves: byte-identical to ``repro dashboard --from``."""
        from repro.cli import main

        bundle = tmp_path / "bundle"
        spec = os.path.join(
            os.path.dirname(__file__), "..", "SLO_serving.json"
        )
        assert main(
            ["loadgen", "--replicas", "3", "--event", "kill:1:0.8",
             "--event", "recover:1:1.4",
             "--duration-s", "2", "--rate", "40",
             "--deadline-ms", "500", "--retries", "4",
             "--hedge-ms", "25", "--seed", "0", "--slo", spec,
             "--artifacts-dir", str(bundle), "--dashboard"]
        ) == 0
        out = capsys.readouterr().out
        live = out[out.index("=" * WIDTH):]  # the render's opening rule
        assert live == render_dashboard(load_artifacts(str(bundle))) + "\n"
        assert "repro dashboard :: bundle" in live
        assert "queue=" not in live
        assert main(["dashboard", "--from", str(bundle)]) == 0
        assert capsys.readouterr().out == live

    def test_dashboard_cli_fails_on_empty_directory(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        assert main(["dashboard", "--from", str(tmp_path)]) == 2
        assert "dashboard:" in capsys.readouterr().err
