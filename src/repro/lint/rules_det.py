"""DET rules: every randomized or timed path must be reproducible.

Retraining with Morton sampling in the loop (paper Sec. 5.3) and the
seeded serving chaos runs both promise bit-for-bit reproducible runs.
That only holds when randomness flows through seeded
``np.random.default_rng`` generators and when wall-clock reads go
through the injectable clock shim in :mod:`repro.observability.clock`
instead of ambient ``time.time()`` / ``datetime.now()``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleContext, Rule, register
from repro.lint.findings import Finding

#: ``np.random.*`` attributes that construct *seedable* generators and
#: types; everything else on the module is legacy global-state RNG.
SEEDABLE_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "Philox",
        "RandomState",  # type annotations in legacy signatures
    }
)

#: The only module allowed to read the wall clock directly: the
#: injectable shim everything else must thread a ``clock=`` through.
#: (The tracer is unaffected — monotonic ``perf_counter`` durations
#: are not wall-clock reads and are not flagged.)
CLOCK_EXEMPT_MODULES = frozenset({"repro.observability.clock"})

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)


def _dotted(node: ast.AST) -> str:
    """Dotted-name rendering of a Name/Attribute chain ('' if other)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _imports_stdlib_random(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "random" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                return True
    return False


@register
class UnseededRandomRule(Rule):
    """DET-201: RNG use outside seeded ``default_rng`` generators."""

    rule_id = "DET-201"
    severity = "error"
    title = "unseeded / global-state RNG call"
    rationale = (
        "Paper Sec. 5.3 retraining and the seeded chaos runs "
        "require bit-for-bit reproducible runs; all randomness must "
        "flow through np.random.default_rng(seed) generators, never "
        "the legacy np.random.* or stdlib random module globals."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        has_stdlib_random = _imports_stdlib_random(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = _dotted(node)
            if (
                dotted.startswith(("np.random.", "numpy.random."))
                and node.attr not in SEEDABLE_NP_RANDOM
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{dotted} uses NumPy's global RNG state; route "
                    "randomness through np.random.default_rng(seed)",
                )
            elif (
                has_stdlib_random
                and dotted.startswith("random.")
                and dotted.count(".") == 1
                and node.attr not in ("Random", "SystemRandom")
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"stdlib {dotted} draws from the process-global "
                    "RNG; use a seeded np.random.default_rng or "
                    "random.Random(seed) instance",
                )
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module in ("numpy.random", "random")
            ):
                for alias in node.names:
                    if alias.name not in SEEDABLE_NP_RANDOM | {
                        "Random",
                        "SystemRandom",
                    }:
                        yield ctx.finding(
                            self,
                            node,
                            f"from {node.module} import {alias.name} "
                            "bypasses seeded-generator discipline",
                        )


@register
class WallClockRule(Rule):
    """DET-202: ambient wall-clock reads outside the clock shim."""

    rule_id = "DET-202"
    severity = "error"
    title = "direct wall-clock read outside repro.observability"
    rationale = (
        "Run artifacts (RunReport, traces) must be reproducible and "
        "diffable; wall-clock reads go through the injectable "
        "repro.observability.clock shim so tests and replay can pin "
        "time."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module in CLOCK_EXEMPT_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield ctx.finding(
                    self,
                    node,
                    f"{dotted}() reads the ambient wall clock; "
                    "accept a clock= parameter defaulting to "
                    "repro.observability.clock.wall_clock",
                )
