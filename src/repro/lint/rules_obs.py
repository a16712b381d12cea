"""OBS rules: the PR-2 telemetry contract.

Every public pipeline entry point must be observable — it either
opens a span, touches the metrics registry, or delegates to a sibling
method that does — and every metric name must follow the
``docs/observability.md`` convention (snake_case; counters end in
``_total``; histograms carry a unit suffix) so dashboards and the
Prometheus exposition stay consistent.

OBS-303 keeps request-terminal events attached to the end-to-end
trace context: a function in ``repro.serving`` that resolves a request
future must touch it, so the stitched cross-replica trace never loses
a terminal state.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Set

from repro.lint.engine import ModuleContext, Rule, register
from repro.lint.findings import Finding

_SNAKE_CASE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Histogram names must end in a unit (or count) suffix.
HISTOGRAM_SUFFIXES = (
    "_seconds",
    "_joules",
    "_bytes",
    "_points",
    "_clouds",
    "_ratio",
    "_total",
)

#: Serving-layer classes held to the OBS-301 instrumentation contract
#: (in addition to ``*Pipeline`` everywhere).
_SERVING_CLASS_SUFFIXES = ("Server", "Batcher", "Queue", "Generator")

#: Method-name hints that a call touches telemetry directly.
_TELEMETRY_ATTRS = frozenset(
    {"span", "counter", "gauge", "histogram", "emit"}
)

#: Decorators whose methods are exempt from the instrumentation rule.
_EXEMPT_DECORATORS = ("property", "cached_property", "staticmethod")


def _touches_telemetry(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in _TELEMETRY_ATTRS:
                return True
        if isinstance(node, ast.Attribute) and node.attr in (
            "metrics",
            "tracer",
        ):
            return True
        if isinstance(node, ast.Name) and node.id in (
            "registry",
            "metrics",
            "tracer",
        ):
            return True
    return False


def _self_calls(fn: ast.FunctionDef) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            out.add(node.func.attr)
    return out


#: Builtins a read-only method may call (they write no state).
_PURE_BUILTINS = frozenset(
    {
        "abs", "all", "any", "bool", "dict", "enumerate", "float",
        "frozenset", "int", "isinstance", "len", "list", "max", "min",
        "range", "round", "set", "sorted", "str", "sum", "tuple", "zip",
    }
)


def _writes_state(fn: ast.FunctionDef) -> bool:
    """Could ``fn`` write state?  Conservatively yes when it stores to
    or deletes an attribute or item, or calls anything but a pure
    builtin (a method call may mutate its receiver)."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and (
            isinstance(node.ctx, (ast.Store, ast.Del))
        ):
            return True
        if isinstance(node, ast.Call) and not (
            isinstance(node.func, ast.Name)
            and node.func.id in _PURE_BUILTINS
        ):
            return True
    return False


def _is_exempt(fn: ast.FunctionDef) -> bool:
    """Decorated accessors and read-only getters owe no telemetry:
    instrumenting a read would reward side effects in getters."""
    for decorator in fn.decorator_list:
        rendered = ast.unparse(decorator)
        if any(name in rendered for name in _EXEMPT_DECORATORS):
            return True
    return not _writes_state(fn)


@register
class PipelineInstrumentationRule(Rule):
    """OBS-301: un-instrumented public pipeline stage methods."""

    rule_id = "OBS-301"
    severity = "warning"
    title = "public pipeline method emits no telemetry"
    rationale = (
        "PR-2 invariant: every public stage method on a *Pipeline "
        "class (and, in repro.serving, on *Server/*Batcher/*Queue/"
        "*Generator classes) opens a span or records metrics "
        "(directly or via a sibling method) so production traces "
        "cover every entry point.  Read-only methods (no attribute "
        "or item store, no call but a pure builtin) are exempt."
    )

    @staticmethod
    def _covered(ctx: ModuleContext, node: ast.ClassDef) -> bool:
        if node.name.endswith("Pipeline"):
            return True
        return ctx.module.startswith("repro.serving") and (
            node.name.endswith(_SERVING_CLASS_SUFFIXES)
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.ClassDef)
                and self._covered(ctx, node)
            ):
                continue
            methods: Dict[str, ast.FunctionDef] = {
                item.name: item
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            instrumented = {
                name
                for name, fn in methods.items()
                if _touches_telemetry(fn)
            }
            # Delegation closure: a method that calls an instrumented
            # sibling counts as instrumented itself.
            changed = True
            while changed:
                changed = False
                for name, fn in methods.items():
                    if name in instrumented:
                        continue
                    if _self_calls(fn) & instrumented:
                        instrumented.add(name)
                        changed = True
            for name, fn in methods.items():
                if name.startswith("_") or name in instrumented:
                    continue
                if _is_exempt(fn):
                    continue
                yield ctx.finding(
                    self,
                    fn,
                    f"{node.name}.{name}() opens no span and "
                    "records no metrics (and delegates to no method "
                    "that does)",
                )


def _has_trace_evidence(fn: ast.FunctionDef) -> bool:
    """Does ``fn`` touch the request trace context anywhere?

    Evidence is any identifier that names the propagation machinery:
    a ``*trace*`` helper (``emit_request_trace``,
    ``_close_request_trace``, ``tracer``), a ``*span*`` call, or a
    ``ctx`` reference (``request.ctx``, ``attempt_ctx``).
    """
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and (
            "trace" in node.attr
            or "span" in node.attr
            or node.attr == "ctx"
        ):
            return True
        if isinstance(node, ast.Name) and (
            "trace" in node.id
            or "span" in node.id
            or "ctx" in node.id
        ):
            return True
    return False


@register
class TraceContextRule(Rule):
    """OBS-303: serving terminal events that drop the trace context."""

    rule_id = "OBS-303"
    severity = "error"
    title = "serving terminal event drops the trace context"
    rationale = (
        "PR-7 invariant: every request-terminal event in "
        "repro.serving stays attributable to its end-to-end trace: "
        "a function that resolves a request future "
        "(.future.set_result / .future.set_exception) must "
        "reference the request's trace "
        "context (a *trace*/*span* helper or a ctx attribute) so the "
        "stitched cross-replica trace has no silent terminal states."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith("repro.serving"):
            return
        for fn in ast.walk(ctx.tree):
            if not isinstance(
                fn, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if _has_trace_evidence(fn):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr
                    in ("set_result", "set_exception")
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "future"
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"{fn.name}() resolves a request future "
                        "without touching the trace context; the "
                        "request terminates outside its trace",
                    )


@register
class MetricNamingRule(Rule):
    """OBS-302: metric names off the documented convention."""

    rule_id = "OBS-302"
    severity = "error"
    title = "metric name violates the naming convention"
    rationale = (
        "docs/observability.md: metric names are snake_case; "
        "counters end in _total; histograms end in a unit suffix "
        "(_seconds, _joules, _bytes, _points, _clouds, _ratio); "
        "metrics emitted by the serving layer carry the serving_ "
        "prefix and metrics emitted by the scene partitioner carry "
        "the partition_ prefix.  Consistent names keep the "
        "Prometheus exposition scrapeable and dashboards portable."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        serving = ctx.module.startswith("repro.serving")
        partition = ctx.module.startswith("repro.partition")
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge", "histogram")
                and node.args
            ):
                continue
            first = node.args[0]
            if not (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                continue
            name = first.value
            kind = node.func.attr
            for problem in self._name_problems(
                name, kind, serving, partition
            ):
                yield ctx.finding(self, node, problem)

    @staticmethod
    def _name_problems(
        name: str,
        kind: str,
        serving: bool = False,
        partition: bool = False,
    ) -> List[str]:
        problems: List[str] = []
        if not _SNAKE_CASE.match(name):
            problems.append(
                f"metric name {name!r} is not snake_case"
            )
        if kind == "counter" and not name.endswith("_total"):
            problems.append(
                f"counter {name!r} must end in '_total'"
            )
        if kind == "histogram" and not name.endswith(
            HISTOGRAM_SUFFIXES
        ):
            problems.append(
                f"histogram {name!r} must end in a unit suffix "
                f"({', '.join(HISTOGRAM_SUFFIXES)})"
            )
        if serving and not name.startswith("serving_"):
            problems.append(
                f"metric {name!r} emitted from the serving layer "
                "must carry the 'serving_' prefix"
            )
        if partition and not name.startswith("partition_"):
            problems.append(
                f"metric {name!r} emitted from the partition layer "
                "must carry the 'partition_' prefix"
            )
        return problems
