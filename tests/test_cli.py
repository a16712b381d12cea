"""Tests for the command-line interface (repro.cli)."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro.cli
from repro.cli import main
from repro.datasets import bunny_like
from repro.geometry import io as pc_io
from repro.observability import find_orphans, load_artifacts
from repro.robustness.guard import GuardThresholds
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
        self, bunny_file, tmp_path, capsys, monkeypatch
    ):
        """``--guard`` trips at the guard's own density threshold;
        forcing that threshold to 0 forces the fallback."""
        monkeypatch.setattr(
            repro.cli,
            "GuardThresholds",
            lambda: GuardThresholds(max_density_cv=0.0),
        )
        out_path = str(tmp_path / "o.xyz")
        assert main(
            ["sample", bunny_file, out_path, "--method", "morton",
             "-n", "100", "--guard"]
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


def _span_names(bundle):
    doc = _load_chrome_trace(bundle / "trace.json")
    return {e["name"] for e in doc["traceEvents"]}


class TestSampleTelemetry:
    def test_synthetic_cloud_without_positionals(self, capsys):
        assert main(["sample", "-n", "64", "--points", "256"]) == 0
        out = capsys.readouterr().out
        assert "synthetic" in out
        assert "64" in out


class TestGuardedServeBundle:
    """``serve --guard --artifacts-dir`` is the traced quickstart: a
    real guarded run's stage spans, guard series and validation
    span."""

    def test_bundle_carries_stage_guard_and_validation_telemetry(
        self, tmp_path
    ):
        bundle = tmp_path / "serve"
        assert main(
            ["serve", "--requests", "4", "--guard",
             "--artifacts-dir", str(bundle)]
        ) == 0
        span_names = _span_names(bundle)
        for required in (
            "sample", "neighbor_search", "grouping",
            "feature_compute", "pipeline.infer", "pipeline.validate",
            "guard.probe",
        ):
            assert required in span_names, required
        names = _metric_names(bundle / "metrics.json")
        for family in (
            "guard_probes_total", "guard_batches_served_total",
            "guard_breaker_state", "pipeline_stage_latency_seconds",
        ):
            assert family in names, family


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
        assert main(
            ["trace", "--workload", "all", "--config", "edgepc",
             "--artifacts-dir", str(tmp_path)]
        ) == 0
        doc = _load_chrome_trace(tmp_path / "trace.json")
        span_names = {e["name"] for e in doc["traceEvents"]}
        assert {"sample", "neighbor_search", "grouping",
                "feature_compute"} <= span_names
        with open(tmp_path / "trace.jsonl") as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == len(doc["traceEvents"])
        assert "pipeline_stage_latency_seconds" in _metric_names(
            tmp_path / "metrics.json"
        )
        with open(tmp_path / "run_report.json") as fh:
            report = json.load(fh)
        assert set(report) == {
            "meta", "breakdowns", "energies", "stage_medians_s"
        }
        assert report["meta"]["schema_version"] == 2
        assert report["meta"]["workload"] == "all"
        assert len(report["breakdowns"]) == 6
        assert len(report["energies"]) == 6
        assert set(report["stage_medians_s"]) == {
            "sample_s", "neighbor_s", "grouping_s", "feature_s",
            "total_s",
        }
        assert report["stage_medians_s"]["total_s"] > 0
        out = capsys.readouterr().out
        assert "median" in out

    def test_single_workload(self, tmp_path):
        assert main(
            ["trace", "--workload", "W2", "--artifacts-dir", str(tmp_path)]
        ) == 0
        assert "workload.W2" in _span_names(tmp_path)


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
        """``trace``'s bundle ``metrics.json`` carries the series an
        executed ``EdgePCPipeline.infer`` writes, unlabeled by
        workload."""
        assert main(
            ["trace", "--workload", "W1", "--artifacts-dir", str(tmp_path)]
        ) == 0
        with open(tmp_path / "metrics.json") as fh:
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
        assert main(
            ["trace", "--workload", "W1", "--artifacts-dir", str(tmp_path)]
        ) == 0
        _load_chrome_trace(tmp_path / "trace.json")
        assert "pipeline_stage_latency_seconds" in _metric_names(
            tmp_path / "metrics.json"
        )

    def test_compare_exports_speedup_gauges(self, tmp_path):
        assert main(
            ["compare", "--workload", "W1", "--artifacts-dir", str(tmp_path)]
        ) == 0
        names = _metric_names(tmp_path / "metrics.json")
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
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["serve", "--requests", "8", "--artifacts-dir", str(tmp_path)]
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
            assert main(self.ARGV + ["--artifacts-dir", str(out_dir)]) == 0
            runs.append((out_dir / "partition.json", out_dir / "trace.jsonl"))
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

    def test_dashboard_renders_the_partition_section(self, runs, capsys):
        """``dashboard --from`` a partition bundle shows the scene
        from its ``partition_*`` counters."""
        (report_path, _), _ = runs
        report = json.loads(report_path.read_text())
        assert main(["dashboard", "--from", str(report_path.parent)]) == 0
        out = capsys.readouterr().out
        section = out.split("\npartition\n", 1)[1]
        rows = dict(
            line.split()
            for line in section.splitlines()[1:5]
        )
        # The control scene and the 3000-point scene.
        assert rows["scenes"] == "2"
        assert rows["points"] == str(
            report["control"]["points"] + report["params"]["points"]
        )
        assert int(rows["chunks"]) == 1 + report["plan"]["num_chunks"]
        assert float(rows["simulated_s"]) > 0

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


class TestRetiredExportFlags:
    """``--artifacts-dir`` is every command's one export flag, and
    ``sample`` exports nothing: its demo pipeline and its copy of the
    guard's density threshold are gone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--trace-out", "x"],
            ["compare", "--metrics-out", "x"],
            ["sample", "--trace-out", "x"],
            ["sample", "--metrics-out", "x"],
            ["sample", "--guard-threshold", "0.5"],
            ["trace", "--trace-out", "x"],
            ["trace", "--metrics-out", "x"],
            ["trace", "--jsonl-out", "x"],
            ["trace", "--report-out", "x"],
            ["partition", "--report", "x"],
            ["partition", "--trace-out", "x"],
            ["partition", "--metrics-out", "x"],
            ["serve", "--trace-out", "x"],
            ["serve", "--metrics-out", "x"],
            ["loadgen", "--trace-out", "x"],
        ],
        ids=" ".join,
    )
    def test_flag_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in (
            capsys.readouterr().err
        )


class TestArtifactBundle:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--workload", "W1"],
            ["trace", "--workload", "W1"],
            ["partition", "--points", "1500", "--chunk-points", "1024"],
            ["serve", "--requests", "4"],
            ["loadgen", "--duration-s", "0.5", "--rate", "20"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_exporting_command_writes_one_bundle(self, argv, tmp_path):
        """Each exporting command writes the bundle's three telemetry
        files, and ``load_artifacts`` reads the bundle back."""
        bundle = tmp_path / argv[0]
        assert main(argv + ["--artifacts-dir", str(bundle)]) == 0
        for name in ("metrics.json", "trace.jsonl", "trace.json"):
            assert (bundle / name).is_file(), name
        spans = [
            json.loads(line)
            for line in (bundle / "trace.jsonl").read_text().splitlines()
        ]
        chrome = _load_chrome_trace(bundle / "trace.json")
        assert spans and len(chrome["traceEvents"]) == len(spans)
        data = load_artifacts(str(bundle))
        assert data.title == argv[0]
        assert data.trace_records == spans


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
