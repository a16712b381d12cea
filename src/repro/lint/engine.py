"""AST rule engine: contexts, the rule registry, and suppressions.

The engine parses each Python file once into a :class:`ModuleContext`
(source, lines, AST, derived dotted module name) and hands it to every
registered :class:`Rule`.  Rules yield :class:`Finding` objects; the
engine then drops any finding covered by an inline suppression comment

    # repro: allow[RULE-ID]          (this line or the line above)
    # repro: allow[RULE-ID,OTHER-ID]
    # repro: allow[ALL]

before returning the sorted remainder.
"""

from __future__ import annotations

import ast
import hashlib
import os
import re
import threading
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.concurrency import ProjectContext

#: Rule id of the synthetic finding emitted for unparseable files.
PARSE_RULE_ID = "PARSE-001"

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s-]+)\]")


def derive_module(path: str) -> str:
    """Dotted module name for ``path``.

    The name is anchored at the last ``repro`` path component, so both
    ``src/repro/core/morton.py`` and a test fixture laid out as
    ``tests/data/lint/bad/repro/core/kernel.py`` resolve to
    ``repro.core...`` and fall under the same scoping rules.  Files
    outside any ``repro`` tree use their bare stem.
    """
    parts = path.replace(os.sep, "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro") :]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def parse_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map of 1-based line number -> rule ids allowed on that line."""
    out: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        ids = {
            part.strip().upper()
            for part in match.group(1).split(",")
            if part.strip()
        }
        if ids:
            out[number] = ids
    return out


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one parsed file."""

    path: str
    module: str
    source: str
    lines: List[str]
    tree: ast.Module
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: Whole-program view attached by :func:`lint_paths` /
    #: :func:`lint_source`; cross-module rules (CONC-5xx) read it.
    project: Optional["ProjectContext"] = None

    @classmethod
    def from_source(cls, path: str, source: str) -> "ModuleContext":
        normalized = path.replace(os.sep, "/")
        lines = source.splitlines()
        return cls(
            path=normalized,
            module=derive_module(normalized),
            source=source,
            lines=lines,
            tree=ast.parse(source, filename=normalized),
            suppressions=parse_suppressions(lines),
        )

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
    ) -> Finding:
        """Build a finding for ``node`` under ``rule``."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule.rule_id,
            severity=rule.severity,
            message=message,
        )

    def is_suppressed(self, finding: Finding) -> bool:
        for line in (finding.line, finding.line - 1):
            ids = self.suppressions.get(line)
            if ids and (finding.rule in ids or "ALL" in ids):
                return True
        return False


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and implement :meth:`check`.
    ``rationale`` ties the rule to the invariant it protects (paper
    section or PR it guards) and is surfaced by ``--format json`` and
    the docs.
    """

    rule_id: str = ""
    severity: str = "warning"
    title: str = ""
    rationale: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def describe(self) -> Dict[str, str]:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "title": self.title,
            "rationale": self.rationale,
        }


_REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one rule instance to the registry."""
    instance = cls()
    if not instance.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if instance.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {instance.rule_id}")
    _REGISTRY[instance.rule_id] = instance
    return cls


def all_rules() -> Tuple[Rule, ...]:
    """Registered rules, sorted by id (imports the rule modules)."""
    _load_builtin_rules()
    return tuple(
        _REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)
    )


def _load_builtin_rules() -> None:
    # Imported lazily so engine <-> rule-module imports stay acyclic.
    from repro.lint import (  # noqa: F401
        concurrency,
        rules_det,
        rules_obs,
        rules_perf,
        rules_robust,
    )


#: Parsed-module cache keyed on (path, content sha1).  Parsing is the
#: dominant per-file cost; repeated runs (watch loops, the runner's
#: collect + prune passes, tests) reuse the AST.  Entries are shared
#: read-only; :func:`_context_for` hands out shallow copies so each
#: run gets its own ``project`` slot.
_CONTEXT_CACHE: Dict[Tuple[str, str], ModuleContext] = {}
_CONTEXT_CACHE_LOCK = threading.Lock()
_CONTEXT_CACHE_MAX = 2048


def _context_for(path: str, source: str) -> ModuleContext:
    digest = hashlib.sha1(source.encode("utf-8")).hexdigest()
    key = (path.replace(os.sep, "/"), digest)
    with _CONTEXT_CACHE_LOCK:
        cached = _CONTEXT_CACHE.get(key)
    if cached is None:
        cached = ModuleContext.from_source(path, source)
        with _CONTEXT_CACHE_LOCK:
            if len(_CONTEXT_CACHE) >= _CONTEXT_CACHE_MAX:
                _CONTEXT_CACHE.clear()
            _CONTEXT_CACHE[key] = cached
    return replace(cached, project=None)


def _parse_finding(path: str, err: SyntaxError) -> Finding:
    return Finding(
        path=path.replace(os.sep, "/"),
        line=err.lineno or 1,
        col=(err.offset or 1) - 1,
        rule=PARSE_RULE_ID,
        severity="error",
        message=f"file does not parse: {err.msg}",
    )


def _check_context(ctx: ModuleContext, rules: Sequence[Rule]) -> List[Finding]:
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(ctx):
            if not ctx.is_suppressed(finding):
                findings.append(finding)
    return findings


def lint_source(
    path: str,
    source: str,
    rules: Sequence[Rule] = (),
) -> List[Finding]:
    """Run ``rules`` (default: all) over one in-memory source file."""
    rules = tuple(rules) or all_rules()
    try:
        ctx = ModuleContext.from_source(path, source)
    except SyntaxError as err:
        return [_parse_finding(path, err)]
    from repro.lint.concurrency import ProjectContext

    ctx.project = ProjectContext.build([ctx])
    findings = _check_context(ctx, rules)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(path: str, rules: Sequence[Rule] = ()) -> List[Finding]:
    with open(path, encoding="utf-8") as fh:
        return lint_source(path, fh.read(), rules)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted ``*.py`` file list."""
    seen: Set[str] = set()
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d
                    for d in dirs
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        full = os.path.join(root, name)
                        if full not in seen:
                            seen.add(full)
                            out.append(full)
        elif path not in seen:
            seen.add(path)
            out.append(path)
    return iter(out)


def lint_paths(
    paths: Iterable[str],
    rules: Sequence[Rule] = (),
) -> List[Finding]:
    """Lint every ``*.py`` file under ``paths``; sorted findings.

    Files are parsed (through the content-hash AST cache), the
    whole-program :class:`ProjectContext` is built over all of them,
    and then every rule visits each file.  The final global sort keeps
    the output in a stable order.
    """
    from repro.lint.concurrency import ProjectContext

    rules = tuple(rules) or all_rules()
    findings: List[Finding] = []
    contexts: List[ModuleContext] = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        try:
            contexts.append(_context_for(path, source))
        except SyntaxError as err:
            findings.append(_parse_finding(path, err))
    project = ProjectContext.build(contexts)
    for ctx in contexts:
        ctx.project = project
    for ctx in contexts:
        findings.extend(_check_context(ctx, rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
