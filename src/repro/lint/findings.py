"""Finding model shared by every lint rule and exporter.

A :class:`Finding` is one rule violation pinned to a file/line/column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Severity levels, ordered weakest to strongest.
SEVERITY_WARNING = "warning"
SEVERITY_ERROR = "error"

SEVERITY_ORDER: Dict[str, int] = {
    SEVERITY_WARNING: 0,
    SEVERITY_ERROR: 1,
}


def severity_at_least(severity: str, threshold: str) -> bool:
    """True when ``severity`` meets or exceeds ``threshold``."""
    return SEVERITY_ORDER[severity] >= SEVERITY_ORDER[threshold]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a concrete source location.

    Attributes:
        path: file path as given to the engine (forward slashes).
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        rule: rule identifier, e.g. ``"DET-202"``.
        severity: ``"warning"`` or ``"error"``.
        message: human-readable one-line description.
    """

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        """``path:line:col: SEVERITY RULE message`` (one text line)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} {self.rule} {self.message}"
        )
