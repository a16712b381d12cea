"""Project-aware static analysis: ``repro lint``.

An AST-based rule engine enforcing the invariants the test suite can
only sample:

- **PERF** (PERF-101..105) — Morton kernels in ``repro.core`` /
  ``repro.nn`` stay O(W) and vectorized (paper Secs. 5.1-5.2), and
  the exact sampler / neighbor packages never materialize a full
  pairwise distance matrix outside a chunk loop (PR 9);
- **DET** (DET-201/202) — randomness flows through seeded
  ``np.random.default_rng`` generators and wall-clock reads through
  the :mod:`repro.observability.clock` shim (paper Sec. 5.3, PR 1);
- **OBS** (OBS-301/302) — pipeline entry points emit telemetry and
  metric names follow ``docs/observability.md`` (PR 2);
- **ROBUST** (ROBUST-401/402) — no silently swallowed broad excepts,
  and array-returning kernels document their shape/dtype contract
  (PR 1);
- **CONC** (CONC-501..503, CONC-505) — whole-program lock discipline
  for the threaded serving stack: guarded attribute writes, acyclic
  lock acquisition order, predicate-looped condition waits, and no
  blocking calls under a lock.  Backed by the cross-module
  :class:`~repro.lint.concurrency.ProjectContext` pass and
  cross-validated at runtime by
  :class:`repro.robustness.lockwatch.LockOrderWatchdog`.

See ``docs/static_analysis.md`` for the rule catalog, the inline
``# repro: allow[RULE-ID]`` suppression syntax (the one way to
silence a finding).
"""

from repro.lint.concurrency import ProjectContext
from repro.lint.engine import (
    ModuleContext,
    PARSE_RULE_ID,
    Rule,
    all_rules,
    derive_module,
    lint_file,
    lint_paths,
    lint_source,
    register,
)
from repro.lint.findings import (
    Finding,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    severity_at_least,
)
from repro.lint.runner import (
    LintReport,
    collect,
    render_json,
    render_text,
    run_lint,
)

__all__ = [
    "Finding",
    "LintReport",
    "ModuleContext",
    "PARSE_RULE_ID",
    "ProjectContext",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "all_rules",
    "collect",
    "derive_module",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
    "render_json",
    "render_text",
    "run_lint",
    "severity_at_least",
]
