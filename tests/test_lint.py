"""Tests for the repro.lint static-analysis engine.

Fixture policy: every rule has a known-bad file under
``tests/data/lint/bad/repro/...`` that must trigger it and a known-good
counterpart under ``tests/data/lint/good/repro/...`` that must stay
silent under *every* rule.  ``golden_findings.json`` pins the exact
findings (path/line/col/rule/severity/message) for the
whole bad tree.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    PARSE_RULE_ID,
    all_rules,
    derive_module,
    lint_file,
    lint_paths,
    lint_source,
    run_lint,
)
from repro.lint.rules_det import CLOCK_EXEMPT_MODULES
from repro.lint.rules_perf import NON_KERNEL_MODULES

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "tests" / "data" / "lint"
BAD = DATA / "bad"
GOOD = DATA / "good"

# rule id -> (fixture file relative to bad/ and good/, findings in bad)
FIXTURES = {
    "PERF-101": ("repro/core/fake_kernel.py", 1),
    "PERF-102": ("repro/core/fake_kernel.py", 2),
    "PERF-103": ("repro/core/fake_kernel.py", 1),
    "PERF-104": ("repro/nn/batch_loops.py", 2),
    "PERF-105": ("repro/sampling/pairwise.py", 2),
    "DET-201": ("repro/sim/randomness.py", 3),
    "DET-202": ("repro/sim/timed.py", 2),
    "OBS-301": ("repro/sim/pipelines.py", 2),
    "OBS-302": ("repro/sim/metric_names.py", 4),
    "ROBUST-401": ("repro/sim/handlers.py", 2),
    "ROBUST-402": ("repro/geometry/contracts.py", 1),
    "ROBUST-403": ("repro/serving/retry_loops.py", 3),
}

# Serving-layer extensions of the OBS rules (PR 5): class suffixes
# Server/Batcher/Queue/Generator under repro.serving join OBS-301, and
# serving metrics must carry the serving_ prefix under OBS-302.
SERVING_FIXTURES = {
    "OBS-301": ("repro/serving/servers.py", 3),
    "OBS-302": ("repro/serving/metric_names.py", 3),
    # PR 7: terminal serving events must stay on the request trace.
    "OBS-303": ("repro/serving/trace_context.py", 2),
}

# Partition-layer extension of OBS-302 (PR 10): metrics emitted from
# repro.partition must carry the partition_ prefix.
PARTITION_FIXTURES = {
    "OBS-302": ("repro/partition/metric_names.py", 3),
}


class TestRuleRegistry:
    def test_every_fixture_rule_is_registered(self):
        registered = {rule.rule_id for rule in all_rules()}
        assert set(FIXTURES) <= registered

    def test_rules_have_metadata(self):
        for rule in all_rules():
            assert rule.rule_id
            assert rule.severity in ("warning", "error")
            assert rule.title
            assert rule.rationale

    def test_rule_ids_are_unique(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize(
        "module",
        sorted(NON_KERNEL_MODULES | CLOCK_EXEMPT_MODULES),
    )
    def test_exempt_module_exists(self, module):
        """An exemption naming a deleted module is stale config: it
        would silently exempt whatever later takes that name."""
        assert importlib.util.find_spec(module) is not None


class TestPerRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_fires_on_bad_fixture(self, rule_id):
        relpath, expected = FIXTURES[rule_id]
        findings = lint_file(str(BAD / relpath))
        hits = [f for f in findings if f.rule == rule_id]
        assert len(hits) == expected

    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_silent_on_good_fixture(self, rule_id):
        relpath, _ = FIXTURES[rule_id]
        findings = lint_file(str(GOOD / relpath))
        assert findings == []

    def test_good_tree_is_fully_clean(self):
        assert lint_paths([str(GOOD)]) == []

    def test_batch_loop_rule_covers_exact_packages(self):
        # PERF-104 polices the exact sampler / neighbor packages too
        # (the PERF-105 list), not only repro.core / repro.nn; outside
        # both lists the same loops are not flagged.
        relpath = "repro/neighbors/cloud_loops.py"
        hits = [
            f for f in lint_file(str(BAD / relpath)) if f.rule == "PERF-104"
        ]
        assert len(hits) == 2
        assert lint_file(str(GOOD / relpath)) == []
        source = (BAD / relpath).read_text()
        assert lint_source("repro/runtime/cloud_loops.py", source) == []

    def test_pairwise_rule_only_applies_in_exact_packages(self):
        # PERF-105 polices the exact sampler / neighbor kernels; the
        # same broadcast elsewhere (e.g. repro.runtime) is not flagged.
        source = (BAD / "repro/sampling/pairwise.py").read_text()
        assert lint_source("repro/runtime/pairwise.py", source) == []


class TestServingFixtures:
    """PR-5 serving extensions of the OBS rules."""

    @pytest.mark.parametrize("rule_id", sorted(SERVING_FIXTURES))
    def test_fires_on_bad_fixture(self, rule_id):
        relpath, expected = SERVING_FIXTURES[rule_id]
        findings = lint_file(str(BAD / relpath))
        hits = [f for f in findings if f.rule == rule_id]
        assert len(hits) == expected

    @pytest.mark.parametrize("rule_id", sorted(SERVING_FIXTURES))
    def test_silent_on_good_fixture(self, rule_id):
        relpath, _ = SERVING_FIXTURES[rule_id]
        assert lint_file(str(GOOD / relpath)) == []

    def test_read_only_getters_owe_no_telemetry(self):
        # A getter that writes no state passes OBS-301; a public
        # method that writes state with no span or metric still fails.
        relpath = "repro/serving/getters.py"
        hits = [
            f for f in lint_file(str(BAD / relpath)) if f.rule == "OBS-301"
        ]
        assert [h.message.split("(")[0] for h in hits] == [
            "CountingQueue.reset"
        ]
        assert lint_file(str(GOOD / relpath)) == []

    def test_serving_suffixes_only_apply_inside_serving(self):
        # The same silent Server class outside repro.serving is not
        # held to OBS-301 (only *Pipeline is, repo-wide).
        source = (BAD / "repro/serving/servers.py").read_text()
        findings = lint_source("repro/sim/servers.py", source)
        assert findings == []

    def test_retry_loop_rule_only_applies_inside_serving(self):
        # ROBUST-403 is a serving-layer invariant: the same naked
        # retry loops elsewhere in the tree are not flagged.
        source = (BAD / "repro/serving/retry_loops.py").read_text()
        findings = lint_source("repro/sim/retry_loops.py", source)
        assert findings == []

    def test_trace_context_rule_only_applies_inside_serving(self):
        # OBS-303 guards the serving trace-propagation invariant; the
        # same future-resolution patterns elsewhere are not flagged.
        source = (BAD / "repro/serving/trace_context.py").read_text()
        findings = lint_source("repro/sim/trace_context.py", source)
        assert findings == []

    def test_serving_prefix_only_required_inside_serving(self):
        source = (BAD / "repro/serving/metric_names.py").read_text()
        findings = lint_source("repro/sim/names_ok.py", source)
        # The unit-suffix finding stays; the prefix findings vanish.
        assert [f.rule for f in findings] == ["OBS-302"]
        assert "unit suffix" in findings[0].message


class TestPartitionFixtures:
    """PR-10 partition extension of the metric-name rule."""

    @pytest.mark.parametrize("rule_id", sorted(PARTITION_FIXTURES))
    def test_fires_on_bad_fixture(self, rule_id):
        relpath, expected = PARTITION_FIXTURES[rule_id]
        findings = lint_file(str(BAD / relpath))
        hits = [f for f in findings if f.rule == rule_id]
        assert len(hits) == expected

    @pytest.mark.parametrize("rule_id", sorted(PARTITION_FIXTURES))
    def test_silent_on_good_fixture(self, rule_id):
        relpath, _ = PARTITION_FIXTURES[rule_id]
        assert lint_file(str(GOOD / relpath)) == []

    def test_partition_prefix_only_required_inside_partition(self):
        source = (BAD / "repro/partition/metric_names.py").read_text()
        findings = lint_source("repro/sim/names_ok.py", source)
        # The unit-suffix finding stays; the prefix findings vanish.
        assert [f.rule for f in findings] == ["OBS-302"]
        assert "unit suffix" in findings[0].message


class TestGoldenFindings:
    def test_bad_tree_matches_golden(self, monkeypatch):
        monkeypatch.chdir(REPO)
        findings = lint_paths(["tests/data/lint/bad"])
        golden = json.loads((DATA / "golden_findings.json").read_text())
        assert [f.to_dict() for f in findings] == golden["findings"]


LOOPY = """\
import numpy as np

def slow(points):
    out = []
    for i in range(len(points)):
        for j in range(len(points)):
            out.append(i * j)
    return out
"""


class TestSuppressions:
    PATH = "repro/core/hot.py"

    def rules_in(self, source):
        return {f.rule for f in lint_source(self.PATH, source)}

    def test_unsuppressed_baseline(self):
        assert self.rules_in(LOOPY) == {"PERF-101", "PERF-102"}

    def test_same_line_suppression(self):
        src = LOOPY.replace(
            "for j in range(len(points)):",
            "for j in range(len(points)):  # repro: allow[PERF-101]",
        )
        assert self.rules_in(src) == {"PERF-102"}

    def test_line_above_suppression(self):
        src = LOOPY.replace(
            "            out.append(i * j)",
            "            # repro: allow[PERF-102]\n"
            "            out.append(i * j)",
        )
        assert self.rules_in(src) == {"PERF-101"}

    def test_allow_all_wildcard(self):
        src = "\n".join(
            line + "  # repro: allow[ALL]" if line.strip() else line
            for line in LOOPY.splitlines()
        )
        assert self.rules_in(src) == set()

    def test_comma_separated_ids(self):
        src = LOOPY.replace(
            "for j in range(len(points)):",
            "for j in range(len(points)):"
            "  # repro: allow[PERF-101, PERF-102]",
        )
        # Same line for PERF-101; line-above for the append below it.
        assert self.rules_in(src) == set()

    def test_unrelated_id_does_not_suppress(self):
        src = LOOPY.replace(
            "for j in range(len(points)):",
            "for j in range(len(points)):  # repro: allow[DET-201]",
        )
        assert self.rules_in(src) == {"PERF-101", "PERF-102"}


class TestEngine:
    def test_derive_module_src_layout(self):
        assert derive_module("src/repro/core/sort.py") == "repro.core.sort"

    def test_derive_module_fixture_layout(self):
        path = "tests/data/lint/bad/repro/sim/timed.py"
        assert derive_module(path) == "repro.sim.timed"

    def test_derive_module_package_init(self):
        assert derive_module("src/repro/lint/__init__.py") == "repro.lint"

    def test_derive_module_outside_repro(self):
        assert derive_module("scripts/bench.py") == "bench"

    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("repro/core/broken.py", "def f(:\n")
        assert len(findings) == 1
        assert findings[0].rule == PARSE_RULE_ID
        assert findings[0].severity == "error"

    def test_scoped_rules_ignore_other_packages(self):
        # Same loopy code outside repro.core/repro.nn: PERF stays quiet.
        assert lint_source("repro/datasets/maker.py", LOOPY) == []


class TestRunner:
    def test_report_json_schema(self, tmp_path):
        out = tmp_path / "findings.json"
        code = run_lint(
            [str(BAD)],
            output_format="json",
            out=str(out),
            stream=open(str(tmp_path / "stdout.txt"), "w"),
        )
        assert code == 1  # the bad tree contains errors
        data = json.loads(out.read_text())
        assert data["schema_version"] == 2
        assert data["tool"] == "repro-lint"
        assert set(data) == {
            "counts", "findings", "paths", "rules", "schema_version",
            "tool",
        }
        assert data["counts"]["error"] > 0
        assert data["counts"]["warning"] > 0
        total = data["counts"]["error"] + data["counts"]["warning"]
        assert len(data["findings"]) == total
        rule_ids = {rule["rule"] for rule in data["rules"]}
        assert set(FIXTURES) <= rule_ids

    def test_fail_on_threshold(self, tmp_path):
        sink = open(str(tmp_path / "out.txt"), "w")
        # Kernel fixture only emits warnings: passes at error threshold.
        kernel = str(BAD / "repro" / "core" / "fake_kernel.py")
        assert run_lint([kernel], fail_on="error", stream=sink) == 0
        assert run_lint([kernel], fail_on="warning", stream=sink) == 1


class TestCli:
    def test_lint_good_tree_exits_zero(self, capsys):
        assert main(["lint", str(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_lint_bad_tree_text_output(self, capsys):
        assert main(["lint", str(BAD), "--fail-on", "error"]) == 1
        out = capsys.readouterr().out
        assert "DET-201" in out
        assert "error" in out

    def test_lint_json_output(self, capsys):
        assert main(["lint", str(BAD), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["tool"] == "repro-lint"
        total = data["counts"]["error"] + data["counts"]["warning"]
        assert total == len(data["findings"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--baseline", "findings.json"],
            ["--write-baseline", "findings.json"],
            ["--prune-baseline"],
        ],
        ids=["baseline", "write-baseline", "prune-baseline"],
    )
    def test_baseline_flags_are_gone(self, argv, capsys):
        """Inline ``# repro: allow[RULE-ID]`` is the one suppression
        path; no findings file is subtracted."""
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(GOOD)] + argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSelfHosted:
    def test_src_tree_is_clean(self):
        """Acceptance gate: the shipped tree has zero findings."""
        assert lint_paths([str(REPO / "src")]) == []
