"""Tests for the command-line interface (repro.cli)."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import bunny_like
from repro.geometry import io as pc_io
from repro.observability import find_orphans
from repro.workloads import standard_workloads


class TestWorkloadsCommand:
    def test_prints_all_rows(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("W1", "W2", "W3", "W4", "W5", "W6"):
            assert name in out


class TestProfileCommand:
    """``repro trace`` prints one per-stage breakdown row per workload
    (the Fig. 3 view under ``--config baseline``)."""

    def test_single_workload(self, capsys):
        assert main(["trace", "--workload", "W3"]) == 0
        out = capsys.readouterr().out
        assert "W3" in out
        assert "sample+NS" in out

    def test_all_workloads(self, capsys):
        assert main(["trace", "--config", "baseline"]) == 0
        assert capsys.readouterr().out.count("sample+NS") == 6

    def test_config_choices(self, capsys):
        assert main(
            ["trace", "--workload", "W1", "--config", "insights"]
        ) == 0

    def test_unknown_workload_fails(self):
        with pytest.raises(SystemExit):
            main(["trace", "--workload", "W9"])


class TestCompareCommand:
    def test_single_workload(self, capsys):
        assert main(["compare", "--workload", "W6"]) == 0
        out = capsys.readouterr().out
        assert "S+N" in out and "energy saved" in out

    def test_baseline_config_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "--config", "baseline"])


class TestSampleCommand:
    @pytest.fixture
    def bunny_file(self, tmp_path):
        path = str(tmp_path / "bunny.ply")
        pc_io.save(bunny_like(1000), path)
        return path

    @pytest.mark.parametrize("method", ["fps", "morton", "uniform"])
    def test_methods(self, bunny_file, tmp_path, method, capsys):
        out_path = str(tmp_path / f"out_{method}.xyz")
        assert main(
            ["sample", bunny_file, out_path, "--method", method,
             "-n", "100"]
        ) == 0
        assert len(pc_io.load(out_path)) == 100

    def test_too_many_samples_fails(self, bunny_file, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["sample", bunny_file, str(tmp_path / "o.xyz"),
                 "-n", "99999"]
            )

    @pytest.fixture
    def stuck_sensor_file(self, tmp_path):
        """A duplicate-collapsed cloud (every return identical)."""
        from repro.geometry.points import PointCloud

        path = str(tmp_path / "stuck.xyz")
        pc_io.save(PointCloud(np.ones((200, 3))), path)
        return path

    def test_degenerate_input_rejected_by_default(
        self, stuck_sensor_file, tmp_path
    ):
        with pytest.raises(SystemExit, match="input rejected"):
            main(
                ["sample", stuck_sensor_file,
                 str(tmp_path / "o.xyz"), "-n", "10"]
            )

    def test_repair_policy_flags_and_continues(
        self, stuck_sensor_file, tmp_path, capsys
    ):
        out_path = str(tmp_path / "o.xyz")
        assert main(
            ["sample", stuck_sensor_file, out_path, "-n", "10",
             "--method", "uniform", "--validation-policy", "repair"]
        ) == 0
        out = capsys.readouterr().out
        assert "sanitized input" in out
        assert len(pc_io.load(out_path)) == 10

    def test_guard_passes_on_clean_cloud(
        self, bunny_file, tmp_path, capsys
    ):
        assert main(
            ["sample", bunny_file, str(tmp_path / "o.xyz"),
             "--method", "morton", "-n", "100", "--guard"]
        ) == 0
        assert "guard:" in capsys.readouterr().out

    def test_guard_falls_back_to_fps(
        self, bunny_file, tmp_path, capsys
    ):
        out_path = str(tmp_path / "o.xyz")
        assert main(
            ["sample", bunny_file, out_path, "--method", "morton",
             "-n", "100", "--guard", "--guard-threshold", "0.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "falling back to exact FPS" in out
        assert len(pc_io.load(out_path)) == 100
        # The fallback result is exactly what --method fps produces.
        fps_path = str(tmp_path / "fps.xyz")
        main(
            ["sample", bunny_file, fps_path, "--method", "fps",
             "-n", "100"]
        )
        assert np.allclose(
            pc_io.load(out_path).xyz, pc_io.load(fps_path).xyz
        )

    def test_sample_probe_leaves_the_guard_series_to_the_guard(
        self, tmp_path, capsys
    ):
        """The CLI's own Morton probe prints its decision but writes no
        ``guard_*`` series: the snapshot's sampling fallbacks are the
        ones the demo guard logged."""
        metrics_path = str(tmp_path / "m.json")
        assert main(
            ["sample", "--guard", "--guard-threshold", "0.0",
             "-n", "64", "--points", "512", "--seed", "0",
             "--metrics-out", metrics_path]
        ) == 0
        out = capsys.readouterr().out
        assert "falling back to exact FPS" in out
        logged = sum(
            1
            for line in out.splitlines()
            if line.startswith("guard:   ")
            and ": sampling -> exact (probe_tripped," in line
        )
        with open(metrics_path) as fh:
            snapshot = json.load(fh)
        counted = sum(
            m["value"]
            for m in snapshot["metrics"]
            if m["name"] == "guard_fallbacks_total"
            and m["labels"] == {
                "stage": "sampling", "reason": "probe_tripped"
            }
        )
        assert counted == logged


def _load_chrome_trace(path):
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["displayTimeUnit"] == "ms"
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    for event in doc["traceEvents"]:
        assert event["ph"] == "X"
        assert event["dur"] >= 0
    return doc


def _metric_names(path):
    with open(path) as fh:
        snapshot = json.load(fh)
    return {m["name"] for m in snapshot["metrics"]}


class TestSampleTelemetry:
    def test_synthetic_cloud_without_positionals(self, capsys):
        assert main(["sample", "-n", "64", "--points", "256"]) == 0
        out = capsys.readouterr().out
        assert "synthetic" in out
        assert "64" in out

    def test_acceptance_invocation_writes_artifacts(
        self, tmp_path, capsys
    ):
        """The ISSUE acceptance command: guarded synthetic sample with
        trace + metrics out, stage spans and guard/validation/streaming
        counters present."""
        trace_path = str(tmp_path / "trace.json")
        metrics_path = str(tmp_path / "metrics.json")
        assert main(
            ["sample", "--guard", "-n", "64", "--points", "512",
             "--trace-out", trace_path,
             "--metrics-out", metrics_path]
        ) == 0
        doc = _load_chrome_trace(trace_path)
        span_names = {e["name"] for e in doc["traceEvents"]}
        for required in (
            "sample", "neighbor_search", "grouping",
            "feature_compute", "pipeline.infer", "guard.probe",
            "demo.stream", "cli.sample",
        ):
            assert required in span_names, required
        names = _metric_names(metrics_path)
        for family in (
            "guard_probes_total", "guard_batches_served_total",
            "validation_repairs_total", "validation_rejects_total",
            "guard_rejections_total", "streaming_inserts_total",
            "streaming_evictions_total",
            "pipeline_stage_latency_seconds",
        ):
            assert family in names, family
        out = capsys.readouterr().out
        assert "guard: breaker states:" in out
        assert "degradation log" in out


class TestSweepCommand:
    def test_synthetic_sweep(self, capsys):
        assert main(
            ["sweep", "--points", "256", "--k", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "FNR" in out
        assert out.count("x") >= 5  # speedup column rows

    def test_sweep_from_file(self, tmp_path, capsys, rng):
        from repro.geometry.points import PointCloud

        path = str(tmp_path / "c.xyz")
        pc_io.save(PointCloud(rng.random((300, 3))), path)
        assert main(["sweep", "--input", path, "--k", "4"]) == 0


class TestReportCommand:
    def test_report_prints_all_sections(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "Fig. 13" in out
        assert "Table 2" in out
        assert "EdgePC" in out
        # Three config sections, each with six workloads + average.
        assert out.count("avg") == 3


class TestTraceCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        jsonl_path = str(tmp_path / "spans.jsonl")
        metrics_path = str(tmp_path / "metrics.json")
        report_path = str(tmp_path / "report.json")
        assert main(
            ["trace", "--workload", "all", "--config", "edgepc",
             "--trace-out", trace_path, "--jsonl-out", jsonl_path,
             "--metrics-out", metrics_path,
             "--report-out", report_path]
        ) == 0
        doc = _load_chrome_trace(trace_path)
        span_names = {e["name"] for e in doc["traceEvents"]}
        assert {"sample", "neighbor_search", "grouping",
                "feature_compute"} <= span_names
        with open(jsonl_path) as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == len(doc["traceEvents"])
        assert "pipeline_stage_latency_seconds" in _metric_names(
            metrics_path
        )
        with open(report_path) as fh:
            report = json.load(fh)
        assert report["meta"]["schema_version"] == 1
        assert report["meta"]["workload"] == "all"
        assert len(report["breakdowns"]) == 6
        assert set(report["stage_medians_s"]) == {
            "sample_s", "neighbor_s", "grouping_s", "feature_s",
            "total_s",
        }
        assert report["stage_medians_s"]["total_s"] > 0
        out = capsys.readouterr().out
        assert "median" in out

    def test_single_workload(self, tmp_path):
        trace_path = str(tmp_path / "t.json")
        assert main(
            ["trace", "--workload", "W2", "--trace-out", trace_path]
        ) == 0
        doc = _load_chrome_trace(trace_path)
        assert any(
            e["name"] == "workload.W2" for e in doc["traceEvents"]
        )


class TestRetiredTelemetryCommands:
    """``repro profile`` and ``repro metrics`` folded into ``repro
    trace``; ``trace --bench-out`` went with the BENCH files (its
    medians are the run report's ``stage_medians_s``)."""

    @pytest.mark.parametrize("command", ["profile", "metrics"])
    def test_commands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_bench_out_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--bench-out", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bench-out" in (
            capsys.readouterr().err
        )

    def test_priced_series_have_one_writer(self, tmp_path):
        """``trace --metrics-out`` carries the series an executed
        ``EdgePCPipeline.infer`` writes, unlabeled by workload."""
        metrics_path = str(tmp_path / "m.json")
        assert main(
            ["trace", "--workload", "W1", "--metrics-out", metrics_path]
        ) == 0
        with open(metrics_path) as fh:
            metrics = json.load(fh)["metrics"]
        by_name = {m["name"]: m for m in metrics}
        assert by_name["pipeline_batches_total"]["labels"] == {}
        assert by_name["pipeline_batches_total"]["value"] == 1
        assert by_name["pipeline_clouds_total"]["value"] == (
            standard_workloads()["W1"].batch_size
        )
        assert by_name["pipeline_simulated_seconds_total"]["value"] > 0


class TestProfileCompareTelemetry:
    def test_profile_trace_and_metrics_out(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.json")
        metrics_path = str(tmp_path / "m.json")
        assert main(
            ["trace", "--workload", "W1",
             "--trace-out", trace_path,
             "--metrics-out", metrics_path]
        ) == 0
        _load_chrome_trace(trace_path)
        assert "pipeline_stage_latency_seconds" in _metric_names(
            metrics_path
        )

    def test_compare_exports_speedup_gauges(self, tmp_path):
        metrics_path = str(tmp_path / "m.json")
        assert main(
            ["compare", "--workload", "W1",
             "--metrics-out", metrics_path]
        ) == 0
        names = _metric_names(metrics_path)
        assert "compare_end_to_end_speedup" in names
        assert "compare_energy_saving_fraction" in names


REPO = Path(__file__).resolve().parents[1]


class TestServingCommands:
    def test_replica_less_loadgen_matches_single_server_report(
        self, tmp_path
    ):
        """The CI smoke run goes through a 1-replica fleet and
        reproduces the retired single-server report field for field;
        only ``replica_states`` is new."""
        fixture = REPO / "tests" / "data" / "loadgen_single_server.json"
        recorded = json.loads(fixture.read_text())["ci_smoke"]
        assert main(
            recorded["argv"] + ["--artifacts-dir", str(tmp_path)]
        ) == 0
        got = json.loads((tmp_path / "loadgen.json").read_text())
        want = dict(recorded["report"])
        assert got.pop("replica_states") == {"0": "healthy"}
        want.pop("replica_states")
        assert got == want

    def test_loadgen_slo_at_one_replica(self, tmp_path, capsys):
        status = main(
            ["loadgen", "--duration-s", "1",
             "--slo", str(REPO / "SLO_serving.json"),
             "--artifacts-dir", str(tmp_path)]
        )
        report = json.loads((tmp_path / "slo_report.json").read_text())
        assert status == (1 if report["exhausted"] else 0)
        assert "wrote dashboard artifacts" in capsys.readouterr().out

    def test_serve_prints_server_summary(self, capsys):
        assert main(["serve", "--requests", "8"]) == 0
        out = capsys.readouterr().out
        assert "with 2 worker(s)" in out
        assert re.search(r"admitted 8 .*completed 8 .*failed 0", out)
        assert re.search(
            r"lockwatch: [1-9]\d* acquisition\(s\) .*"
            r" 0 violation\(s\), 0 contradiction\(s\)",
            out,
        )


class TestWatchedServe:
    """``repro serve`` runs one threaded server under the runtime
    lock-order sanitizer (it absorbed ``repro lockwatch-report``)."""

    def test_metrics_carry_the_watchdog_series(self, tmp_path):
        metrics_path = tmp_path / "serve_metrics.json"
        assert main(
            ["serve", "--requests", "8", "--metrics-out", str(metrics_path)]
        ) == 0
        names = {
            m["name"]
            for m in json.loads(metrics_path.read_text())["metrics"]
        }
        assert "lockwatch_acquisitions_total" in names
        assert "serving_admitted_total" in names

    def test_a_violation_fails_the_run(self, monkeypatch, capsys):
        from repro.robustness.lockwatch import (
            LockOrderWatchdog,
            LockWatchReport,
        )

        monkeypatch.setattr(
            LockOrderWatchdog,
            "report",
            lambda self: LockWatchReport(violations=["injected"]),
        )
        assert main(["serve", "--requests", "4"]) == 1
        captured = capsys.readouterr()
        assert "1 violation(s)" in captured.out
        assert "VIOLATION: injected" in captured.err


class TestRetiredThreadedFleet:
    """The fleet runs only in virtual time: ``repro lockwatch-report``
    (its threaded sanitizer smoke) is gone, and ``serve`` lost the
    fleet-only flags."""

    def test_lockwatch_report_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lockwatch-report"])
        assert exc.value.code == 2
        assert "invalid choice: 'lockwatch-report'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flag", ["--replicas", "--retries", "--hedge-ms"]
    )
    def test_serve_fleet_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in (
            capsys.readouterr().err
        )


class TestChaosEvents:
    """``loadgen --event`` drives the fault schedule ``repro chaos``
    ran, and refuses a bad schedule before the run starts."""

    def test_events_run_and_print(self, capsys):
        assert main(
            ["loadgen", "--replicas", "2", "--duration-s", "0.5",
             "--rate", "20", "--event", "kill:1:0.1",
             "--event", "recover:1:0.3"]
        ) == 0
        out = capsys.readouterr().out
        assert "chaos events 2" in out
        assert "  chaos: 0.100s kill replica 1" in out

    @pytest.mark.parametrize(
        "spec", ["kill:1", "explode:0:0.1", "kill:x:0.1", "kill:0:-1"]
    )
    def test_malformed_event_is_a_usage_error(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--event", spec])
        assert exc.value.code == 2
        assert "argument --event:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--replicas", "3", "--event", "kill:7:0.2"],
             "targets replica 7, but the fleet has 3 replica(s)"),
            (["--rate", "0"], "rate must be positive"),
        ],
    )
    def test_unrunnable_settings_exit_2_before_the_run(
        self, argv, message, capsys
    ):
        assert main(["loadgen"] + argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "loadgen:" not in captured.out  # no report: nothing ran


class TestRetiredChaosCommand:
    """``repro chaos`` folded into ``loadgen --event``, and the
    ``--artifacts-dir`` bundle is the one writer of the load report,
    metrics and SLO report."""

    def test_chaos_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos"])
        assert exc.value.code == 2
        assert "invalid choice: 'chaos'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        ["--out", "--slo-out", "--metrics-out", "--arrival", "--tenants"],
    )
    def test_duplicate_writers_and_unused_knobs_are_gone(
        self, flag, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", flag, "x"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in (
            capsys.readouterr().err
        )


class TestBenchCommand:
    """``repro bench`` is gone: its bounds live in the test suite."""

    @pytest.mark.parametrize("flag", ["--batch", "--points"])
    def test_kernel_suite_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", flag, "8"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--bench-out", "--baseline", "--tolerance"]
    )
    def test_chaos_gate_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", flag, "x"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestPartitionCommand:
    """``repro partition`` runs the scene through
    :class:`~repro.partition.PartitionedPipeline`, the one scene path."""

    ARGV = ["partition", "--points", "3000", "--chunk-points", "1024"]

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Two same-seed runs: ``(report_path, trace_path)`` for each."""
        tmp_path = tmp_path_factory.mktemp("partition")
        runs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            out_dir.mkdir()
            report_path = out_dir / "report.json"
            status = main(
                self.ARGV
                + [
                    "--report", str(report_path),
                    "--artifacts-dir", str(out_dir),
                ]
            )
            assert status == 0
            runs.append((report_path, out_dir / "trace.jsonl"))
        return runs

    def test_one_trace_per_scene_no_orphans(self, runs):
        (report_path, trace_path), _ = runs
        report = json.loads(report_path.read_text())
        assert report["control"]["identical"] is True
        assert report["trace"]["orphan_spans"] == 0
        # The control's partition.infer root, then the scene's.
        assert report["trace"]["partition_roots"] == 2
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert find_orphans(records) == []
        (_, scene_root) = [
            r
            for r in records
            if r["name"] == "partition.infer" and r["parent"] is None
        ]
        assert scene_root["attrs"]["chunks"] == (
            report["plan"]["num_chunks"]
        )
        batches = [
            r
            for r in records
            if r["name"] == "partition.batch"
            and r["parent"] == scene_root["id"]
        ]
        # Several chunks per batch, so the chunk sum is not the count.
        assert 1 < len(batches) < report["plan"]["num_chunks"]
        assert sum(r["attrs"]["chunks"] for r in batches) == (
            report["plan"]["num_chunks"]
        )
        assert report["trace"]["batch_chunks"] == (
            report["plan"]["num_chunks"]
        )

    def test_same_seed_runs_are_byte_identical(self, runs):
        (report_path, trace_path), (again_report, again_trace) = runs
        assert report_path.read_bytes() == again_report.read_bytes()
        assert trace_path.read_bytes() == again_trace.read_bytes()

    @pytest.mark.parametrize(
        "flags", [["--serve"], ["--replicas", "2"]], ids=lambda f: f[0]
    )
    def test_fleet_flags_are_gone(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["partition"] + flags)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in (
            capsys.readouterr().err
        )


class TestModuleDocstring:
    def test_every_subcommand_is_documented(self):
        """``python -m repro --help`` readers start from the module
        docstring; each registered subcommand must be listed there."""
        import argparse

        import repro.cli

        parser = repro.cli.build_parser()
        (sub,) = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        missing = [
            name
            for name in sorted(sub.choices)
            if f"``{name}``" not in repro.cli.__doc__
        ]
        assert missing == []
