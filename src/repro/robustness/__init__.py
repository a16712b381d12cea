"""Guarded inference: sanitization, quality probes, lock-order watch.

Three pieces (see docs/architecture.md, "Failure modes & graceful
degradation"):

- :mod:`repro.robustness.validate` — the single input-sanitization
  boundary (``sanitize_cloud`` / ``ValidationPolicy``);
- :mod:`repro.robustness.guard` — ``Guard``, the online quality
  probes and per-stage circuit breakers that
  ``EdgePCPipeline(model, guard=Guard())`` runs as a stage of
  ``infer`` (exact-kernel fallback, ``InferenceRejectedError``);
- :mod:`repro.robustness.lockwatch` — the runtime lock-order
  sanitizer cross-validating the serving stack against the static
  CONC-502 lock-order graph (loaded lazily, test infrastructure).

``validate`` depends only on NumPy and geometry, so low-level modules
(``core.streaming``, the dataset loaders) may import it without
inverting the dependency layering.  ``guard`` sits at the
top of the stack (it imports the samplers and searchers), so it is
loaded lazily on first attribute access.
"""

from repro.robustness.validate import (
    CloudValidationError,
    ValidationIssue,
    ValidationPolicy,
    ValidationReport,
    count_non_finite,
    ensure_finite,
    sanitize_batch,
    sanitize_cloud,
)

_LOCKWATCH_EXPORTS = frozenset(
    {
        "LockOrderViolation",
        "LockOrderWatchdog",
        "static_lock_order",
    }
)

_GUARD_EXPORTS = frozenset(
    {
        "CircuitBreaker",
        "Guard",
        "GuardThresholds",
        "InferenceRejectedError",
        "StageDegradation",
        "degraded_config",
        "probe_false_neighbor_rate",
        "probe_sampling_uniformity",
    }
)

__all__ = [
    "ValidationPolicy",
    "ValidationIssue",
    "ValidationReport",
    "CloudValidationError",
    "sanitize_cloud",
    "sanitize_batch",
    "count_non_finite",
    "ensure_finite",
    *sorted(_GUARD_EXPORTS),
    *sorted(_LOCKWATCH_EXPORTS),
]


def __getattr__(name):
    if name in _GUARD_EXPORTS:
        from repro.robustness import guard

        return getattr(guard, name)
    if name in _LOCKWATCH_EXPORTS:
        # Lazy like guard: lockwatch pulls in the lint analyzer for
        # the static graph, which plain validation users never need.
        from repro.robustness import lockwatch

        return getattr(lockwatch, name)
    raise AttributeError(
        f"module 'repro.robustness' has no attribute {name!r}"
    )
