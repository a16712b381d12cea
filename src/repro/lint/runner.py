"""Lint run orchestration: collect, render, gate.

:func:`run_lint` is what the ``repro lint`` CLI subcommand calls and
what the tests drive directly.  It returns a process exit code: 0 when
no finding reaches the ``--fail-on`` severity, 1 otherwise.  The only
way to silence a finding is an inline ``# repro: allow[RULE-ID]``
comment next to the code it covers.  The JSON rendering is the
machine-readable findings report CI uploads as an artifact next to
the observability telemetry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TextIO

from repro.lint.engine import Rule, all_rules, lint_paths
from repro.lint.findings import Finding, severity_at_least

REPORT_SCHEMA_VERSION = 2


@dataclass
class LintReport:
    """Outcome of one lint run, before rendering."""

    paths: List[str]
    findings: List[Finding] = field(default_factory=list)
    #: Rules actually run this pass; ``None`` means the full registry.
    rules_run: Optional[List[Rule]] = None

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
            "counts": self.counts(),
        }


def collect(
    paths: Sequence[str],
    rules: Sequence[Rule] = (),
) -> LintReport:
    """Lint ``paths`` into a report."""
    return LintReport(
        paths=list(paths),
        findings=lint_paths(paths, rules=rules),
        rules_run=list(rules) if rules else None,
    )


def render_text(report: LintReport, fail_on: str) -> str:
    lines = [f.render() for f in report.findings]
    counts = report.counts()
    summary = (
        f"{len(report.findings)} finding(s): "
        f"{counts.get('error', 0)} error(s), "
        f"{counts.get('warning', 0)} warning(s)"
    )
    failing = len(report.failing(fail_on))
    summary += (
        f" — {failing} at/above fail-on={fail_on}"
        if report.findings
        else ""
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    return json.dumps(report.to_dict(), indent=1, sort_keys=True)


def run_lint(
    paths: Sequence[str],
    output_format: str = "text",
    fail_on: str = "error",
    out: Optional[str] = None,
    stream: Optional[TextIO] = None,
    rules: Sequence[Rule] = (),
) -> int:
    """Full lint run; returns the process exit code.

    Args:
        paths: files/directories to lint (default handled by CLI).
        output_format: ``"text"`` or ``"json"`` for ``stream``.
        fail_on: ``"warning"`` or ``"error"`` gate threshold.
        out: optional path for the machine-readable JSON report
            (written regardless of ``output_format``).
        stream: output stream (defaults to ``sys.stdout``).
        rules: optional rule subset (default: the full registry).
    """
    import sys

    stream = stream if stream is not None else sys.stdout
    report = collect(paths, rules=rules)
    if output_format == "json":
        stream.write(render_json(report) + "\n")
    else:
        stream.write(render_text(report, fail_on) + "\n")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(render_json(report) + "\n")
    return 1 if report.failing(fail_on) else 0
