"""Lint run orchestration: collect, subtract baseline, render, gate.

:func:`run_lint` is what the ``repro lint`` CLI subcommand calls and
what the tests drive directly.  It returns a process exit code: 0 when
no *new* finding reaches the ``--fail-on`` severity, 1 otherwise.
The JSON rendering is the machine-readable findings report CI uploads
as an artifact next to the observability telemetry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TextIO

from repro.lint.baseline import Baseline
from repro.lint.engine import Rule, all_rules, lint_paths
from repro.lint.findings import Finding, severity_at_least

REPORT_SCHEMA_VERSION = 1


@dataclass
class LintReport:
    """Outcome of one lint run, before rendering."""

    paths: List[str]
    findings: List[Finding] = field(default_factory=list)
    grandfathered: List[Finding] = field(default_factory=list)
    baseline_path: Optional[str] = None
    #: Rules actually run this pass; ``None`` means the full registry.
    rules_run: Optional[List[Rule]] = None
    #: Baseline entries that no longer fire (see ``Baseline.audit``).
    stale_baseline: List[Dict[str, object]] = field(
        default_factory=list
    )

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {"error": 0, "warning": 0}
        for finding in self.findings:
            out[finding.severity] = out.get(finding.severity, 0) + 1
        return out

    def failing(self, fail_on: str) -> List[Finding]:
        return [
            f
            for f in self.findings
            if severity_at_least(f.severity, fail_on)
        ]

    def to_dict(self) -> Dict[str, object]:
        rules = (
            self.rules_run
            if self.rules_run is not None
            else all_rules()
        )
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "tool": "repro-lint",
            "paths": list(self.paths),
            "rules": [rule.describe() for rule in rules],
            "findings": [f.to_dict() for f in self.findings],
            "grandfathered": [
                f.to_dict() for f in self.grandfathered
            ],
            "counts": self.counts(),
            "baseline": self.baseline_path,
            "stale_baseline": list(self.stale_baseline),
        }


def collect(
    paths: Sequence[str],
    baseline_path: Optional[str] = None,
    rules: Sequence[Rule] = (),
) -> LintReport:
    """Lint ``paths`` and subtract the baseline, if given."""
    findings = lint_paths(paths, rules=rules)
    report = LintReport(
        paths=list(paths),
        baseline_path=baseline_path,
        rules_run=list(rules) if rules else None,
    )
    if baseline_path:
        baseline = Baseline.load(baseline_path)
        report.findings, report.grandfathered = baseline.split(
            findings
        )
        report.stale_baseline = baseline.audit(findings)
    else:
        report.findings = findings
    return report


def render_text(report: LintReport, fail_on: str) -> str:
    lines = [f.render() for f in report.findings]
    counts = report.counts()
    summary = (
        f"{len(report.findings)} finding(s): "
        f"{counts.get('error', 0)} error(s), "
        f"{counts.get('warning', 0)} warning(s)"
    )
    if report.grandfathered:
        summary += (
            f"; {len(report.grandfathered)} grandfathered by "
            f"{report.baseline_path}"
        )
    failing = len(report.failing(fail_on))
    summary += (
        f" — {failing} at/above fail-on={fail_on}"
        if report.findings
        else ""
    )
    lines.append(summary)
    for entry in report.stale_baseline:
        lines.append(
            f"warning: baseline entry {entry['fingerprint']} "
            f"({entry['rule']}) no longer fires "
            f"({entry['dead']} dead slot(s)); "
            "run with --prune-baseline to drop it"
        )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    return json.dumps(report.to_dict(), indent=1, sort_keys=True)


def run_lint(
    paths: Sequence[str],
    output_format: str = "text",
    baseline: Optional[str] = None,
    fail_on: str = "error",
    out: Optional[str] = None,
    write_baseline: Optional[str] = None,
    stream: Optional[TextIO] = None,
    rules: Sequence[Rule] = (),
    prune_baseline: bool = False,
) -> int:
    """Full lint run; returns the process exit code.

    Args:
        paths: files/directories to lint (default handled by CLI).
        output_format: ``"text"`` or ``"json"`` for ``stream``.
        baseline: optional baseline JSON to subtract.
        fail_on: ``"warning"`` or ``"error"`` gate threshold.
        out: optional path for the machine-readable JSON report
            (written regardless of ``output_format``).
        write_baseline: write all current findings as a new baseline
            to this path (the run then always exits 0).
        stream: output stream (defaults to ``sys.stdout``).
        rules: optional rule subset (default: the full registry).
        prune_baseline: rewrite ``baseline`` in place keeping only
            the fingerprints that still fire.
    """
    import sys

    stream = stream if stream is not None else sys.stdout
    report = collect(paths, baseline, rules=rules)
    if output_format == "json":
        stream.write(render_json(report) + "\n")
    else:
        stream.write(render_text(report, fail_on) + "\n")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(render_json(report) + "\n")
    if prune_baseline and baseline:
        pruned = Baseline.load(baseline).prune(
            report.findings + report.grandfathered
        )
        pruned.save(baseline)
        stream.write(
            f"pruned baseline {baseline}: "
            f"{len(report.stale_baseline)} dead entr(y/ies) "
            "dropped\n"
        )
    if write_baseline:
        Baseline.from_findings(
            report.findings + report.grandfathered,
            note="generated by repro lint --write-baseline",
        ).save(write_baseline)
        return 0
    return 1 if report.failing(fail_on) else 0
