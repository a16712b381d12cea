"""Tests for the whole-program concurrency analyzer (CONC-5xx).

Covers the per-rule bad/good fixtures, the ProjectContext lock
inventory and order graph over the real ``src/repro`` tree (which must
self-host clean), byte-identical repeat ``--out`` reports, and the
docs/serving.md threading-model table staying in sync with the
analyzer's lock-order graph.
"""

import io
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    ProjectContext,
    all_rules,
    lint_file,
    lint_paths,
    run_lint,
)

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "tests" / "data" / "lint"
BAD = DATA / "bad"
GOOD = DATA / "good"
SRC = REPO / "src" / "repro"

# rule id -> (fixture file relative to bad/ and good/, findings in bad)
CONC_FIXTURES = {
    "CONC-501": ("repro/serving/guarded_state.py", 1),
    # One two-lock cycle plus a self-acquire reported at both frames
    # (the holder and the re-acquirer).
    "CONC-502": ("repro/serving/lock_cycles.py", 3),
    "CONC-503": ("repro/serving/cond_waits.py", 1),
    "CONC-505": ("repro/serving/blocking_calls.py", 2),
}


def _conc_rules():
    return tuple(
        rule
        for rule in all_rules()
        if rule.rule_id.startswith("CONC-")
    )


class TestConcFixtures:
    def test_all_four_rules_registered(self):
        assert {rule.rule_id for rule in _conc_rules()} == set(
            CONC_FIXTURES
        )

    @pytest.mark.parametrize("rule_id", sorted(CONC_FIXTURES))
    def test_fires_on_bad_fixture(self, rule_id):
        relpath, expected = CONC_FIXTURES[rule_id]
        findings = lint_file(str(BAD / relpath))
        hits = [f for f in findings if f.rule == rule_id]
        assert len(hits) == expected

    @pytest.mark.parametrize("rule_id", sorted(CONC_FIXTURES))
    def test_silent_on_good_fixture(self, rule_id):
        relpath, _ = CONC_FIXTURES[rule_id]
        assert lint_file(str(GOOD / relpath)) == []

    def test_messages_are_line_independent(self):
        # Fingerprints hash path::rule::message; a message embedding
        # line numbers would churn on unrelated edits above it.
        for relpath, _ in CONC_FIXTURES.values():
            for finding in lint_file(str(BAD / relpath)):
                assert not re.search(r"line \d+", finding.message)
                assert str(finding.line) not in finding.message.split(
                    "'"
                )


class TestProjectContextOnSrc:
    """The analyzer's view of the real serving stack."""

    @pytest.fixture(scope="class")
    def project(self):
        return ProjectContext.from_paths([str(SRC)])

    def test_serving_locks_discovered(self, project):
        assert project.lock_kinds["RequestQueue.condition"] == (
            "Condition"
        )
        assert (
            project.lock_kinds["InferenceServer._dispatch_lock"]
            == "Lock"
        )
        assert (
            project.lock_kinds["InferenceServer._records_lock"]
            == "Lock"
        )
        assert project.lock_kinds["MetricsRegistry._lock"] == "Lock"

    def test_lock_order_graph_is_acyclic(self, project):
        edges = project.lock_order_edges()
        assert ("RequestQueue.condition", "MetricsRegistry._lock") in (
            edges
        )
        # No pair appears in both orders, and no self-acquires of a
        # plain Lock survive in the tree.
        assert not {(b, a) for a, b in edges} & set(edges)
        assert project.self_acquires == []

    def test_src_self_hosts_clean_on_conc_rules(self):
        findings = lint_paths([str(SRC)], rules=_conc_rules())
        assert findings == []


class TestDeterminism:
    def test_out_report_is_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        stream = io.StringIO()
        run_lint([str(BAD)], out=str(out_a), stream=stream)
        run_lint([str(BAD)], out=str(out_b), stream=stream)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_cli_concurrency_flag_filters_rules(
        self, tmp_path, capsys
    ):
        out = tmp_path / "conc.json"
        code = main(
            [
                "lint",
                "--concurrency",
                "--format",
                "json",
                "--out",
                str(out),
                str(BAD / "repro" / "serving"),
            ]
        )
        assert code == 1  # the CONC fixtures are errors
        report = json.loads(out.read_text())
        assert all(
            rule["rule"].startswith("CONC-")
            for rule in report["rules"]
        )
        fired = {f["rule"] for f in report["findings"]}
        assert fired == set(CONC_FIXTURES)
        capsys.readouterr()

    def test_cli_concurrency_self_host_src_is_clean(self, capsys):
        code = main(["lint", "--concurrency", str(SRC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out


class TestThreadingModelDocs:
    """docs/serving.md's threading-model table tracks the analyzer."""

    def _doc_edges(self):
        text = (REPO / "docs" / "serving.md").read_text()
        marker = "<!-- lockwatch:static-edges -->"
        assert marker in text, (
            "docs/serving.md lost its static lock-order edge list"
        )
        section = text.split(marker, 1)[1]
        section = section.split("<!-- /lockwatch -->", 1)[0]
        edges = re.findall(
            r"`([A-Za-z_.]+)`\s*->\s*`([A-Za-z_.]+)`", section
        )
        return sorted(set(edges))

    def test_documented_edges_match_analyzer(self):
        project = ProjectContext.from_paths([str(SRC)])
        assert self._doc_edges() == project.lock_order_edges()

    def test_documented_locks_match_inventory(self):
        text = (REPO / "docs" / "serving.md").read_text()
        marker = "<!-- lockwatch:threading-model -->"
        assert marker in text
        section = text.split(marker, 1)[1]
        section = section.split("<!-- /lockwatch -->", 1)[0]
        documented = set(
            re.findall(r"`([A-Za-z]+\.[A-Za-z_]+)`", section)
        )
        project = ProjectContext.from_paths([str(SRC)])
        serving_locks = {
            name
            for name in project.lock_kinds
            if name.split(".")[0]
            in {
                "RequestQueue",
                "InferenceServer",
                "ServerFleet",
                "MetricsRegistry",
                "Tracer",
            }
        }
        assert serving_locks <= documented
