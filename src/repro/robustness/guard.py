"""Quality-triggered fallback from Morton approximations to exact kernels.

EdgePC's speedups come from replacing FPS and brute kNN with
Morton-order approximations whose quality depends on the input's
geometry (FlashFPS, arXiv 2604.17720, makes the same point for
approximate samplers generally).  A :class:`Guard` attached to an
:class:`~repro.pipeline.EdgePCPipeline` makes that quality check a
stage of ``infer``: after sanitization, it runs two cheap probes on a
seeded subsample of the batch:

- **sampling probe** — Morton-stride sample the probe set and measure
  :func:`~repro.sampling.quality.density_uniformity`; a high
  coefficient of variation means the stride pick is leaving holes;
- **neighbor probe** — compare the Morton index-window search against
  exact kNN on the probe set via
  :func:`~repro.neighbors.metrics.false_neighbor_ratio`.

A probe exceeding its threshold degrades *only the affected stage* to
its exact kernel (FPS / brute kNN) for that batch: the pipeline runs
the forward under an :class:`~repro.core.pipeline.EdgePCConfig` with
that stage's layers cleared.  A per-stage circuit breaker pins the
stage to exact mode after ``trip_limit`` consecutive trips and
re-probes after a ``cooldown``-batch quarantine.  Every degradation is
recorded in the returned
:class:`~repro.pipeline.InferenceResult` and the guard's
``degradation_log``; a batch that cannot be served raises
:class:`InferenceRejectedError`.

Degrading to exact kernels is no longer a large-N latency cliff: at or
above :attr:`~repro.core.pipeline.EdgePCConfig.exact_fast_threshold`
points the exact stages dispatch to the pruning-FPS / grid fast
engines (``fps_fast`` and the :data:`~repro.nn.plan.GRID_OPS` in the
stage trace) at a fraction of the brute kernels' all-pairs cost.  All
but one return bit-identical results; ``interp_grid`` (FP
interpolation) holds a tolerance contract instead, documented on
:func:`~repro.core.sampler.exact_interpolation_weights_grid_batch`.  A
breaker pinned open on a 40k-point stream therefore burns far less of
the latency SLO than the brute fallback used to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.neighbor import MortonNeighborSearch
from repro.core.pipeline import EdgePCConfig
from repro.core.sampler import MortonSampler
from repro.neighbors.brute import knn
from repro.neighbors.metrics import false_neighbor_ratio
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.robustness.validate import ValidationReport
from repro.sampling.quality import density_uniformity

#: Stage names the guard manages.
STAGE_SAMPLING = "sampling"
STAGE_NEIGHBOR = "neighbor"


@dataclass(frozen=True)
class GuardThresholds:
    """Probe configuration and trip thresholds.

    Attributes:
        max_density_cv: sampling probe trips when the Voronoi-cell
            population CV of the Morton sample exceeds this (FPS on
            well-behaved clouds sits well under 1).
        max_false_neighbor_rate: neighbor probe trips above this FNR
            (the paper reports ~23% at ``W = k``, ~5% at ``W = 8k``).
        probe_points: probe-set size subsampled from the first cloud.
        probe_samples: samples drawn by the sampling probe.
        probe_k: neighbors per query in the neighbor probe.
        trip_limit: consecutive trips before a stage is pinned exact.
        cooldown: batches a pinned stage stays exact before re-probing.
    """

    max_density_cv: float = 1.5
    max_false_neighbor_rate: float = 0.45
    probe_points: int = 256
    probe_samples: int = 32
    probe_k: int = 8
    trip_limit: int = 3
    cooldown: int = 5

    def __post_init__(self) -> None:
        if self.probe_points < 4:
            raise ValueError("probe_points must be >= 4")
        if not 2 <= self.probe_samples <= self.probe_points:
            raise ValueError(
                "probe_samples must be in [2, probe_points]"
            )
        if self.probe_k < 1:
            raise ValueError("probe_k must be positive")
        if self.trip_limit < 1:
            raise ValueError("trip_limit must be positive")
        if self.cooldown < 1:
            raise ValueError("cooldown must be positive")


class CircuitBreaker:
    """Three-state breaker guarding one pipeline stage.

    ``closed``: the approximation runs, probes watch it.  After
    ``trip_limit`` consecutive probe trips the breaker opens.
    ``open``: the stage is pinned to its exact kernel, probes are
    skipped, for ``cooldown`` batches.  ``half_open``: the quarantine
    elapsed; one probe decides — pass closes the breaker, trip
    re-opens it for another full cooldown.
    """

    def __init__(self, trip_limit: int = 3, cooldown: int = 5) -> None:
        if trip_limit < 1 or cooldown < 1:
            raise ValueError("trip_limit and cooldown must be positive")
        self.trip_limit = trip_limit
        self.cooldown = cooldown
        self.state = "closed"
        self.consecutive_trips = 0
        self.remaining_cooldown = 0
        self.total_trips = 0

    def before_batch(self) -> str:
        """Advance the breaker one batch; returns ``"probe"`` when the
        stage should be probed or ``"forced"`` when it stays exact."""
        if self.state == "open":
            self.remaining_cooldown -= 1
            if self.remaining_cooldown <= 0:
                self.state = "half_open"
                return "probe"
            return "forced"
        return "probe"

    def record_trip(self) -> None:
        self.total_trips += 1
        self.consecutive_trips += 1
        if (
            self.state == "half_open"
            or self.consecutive_trips >= self.trip_limit
        ):
            self.state = "open"
            self.remaining_cooldown = self.cooldown

    def record_pass(self) -> None:
        self.state = "closed"
        self.consecutive_trips = 0


@dataclass(frozen=True)
class StageDegradation:
    """One recorded fallback from approximate to exact."""

    stage: str
    reason: str  # "probe_tripped" | "circuit_open" | "non_finite_logits"
    metric: float
    threshold: float
    batch_index: int

    def __str__(self) -> str:
        return (
            f"batch {self.batch_index}: {self.stage} -> exact "
            f"({self.reason}, metric {self.metric:.3f} vs "
            f"threshold {self.threshold:.3f})"
        )


def degraded_config(
    config: EdgePCConfig, exact_stages: Tuple[str, ...]
) -> EdgePCConfig:
    """Clear the approximated layers of each stage in ``exact_stages``.

    Clearing ``sample_layers`` also clears ``upsample_layers``: the
    Morton up-sampler consumes the sampler's stride structure, so it
    cannot outlive it.  Clearing ``neighbor_layers`` also zeroes the
    DGCNN reuse distance (reuse is a neighbor-stage approximation).
    """
    if STAGE_SAMPLING in exact_stages:
        config = replace(
            config,
            sample_layers=frozenset(),
            upsample_layers=frozenset(),
        )
    if STAGE_NEIGHBOR in exact_stages:
        config = replace(
            config, neighbor_layers=frozenset(), reuse_distance=0
        )
    return config


def probe_sampling_uniformity(
    points: np.ndarray,
    num_samples: int,
    code_bits: int,
) -> float:
    """Density-uniformity CV of a Morton-stride sample of ``points``."""
    result = MortonSampler(code_bits).sample_batch(
        points[None], num_samples
    )
    return density_uniformity(points, result.indices[0])


def probe_false_neighbor_rate(
    points: np.ndarray,
    k: int,
    window: int,
    code_bits: int,
) -> float:
    """FNR of the Morton window search vs exact kNN on ``points``."""
    approx = MortonNeighborSearch(k, window, code_bits).search_batch(
        points[None]
    )[0]
    exact = knn(points, points, k)
    return false_neighbor_ratio(approx, exact)




class InferenceRejectedError(RuntimeError):
    """A guarded pipeline refused the batch.

    Raised by :meth:`~repro.pipeline.EdgePCPipeline.infer` when a
    :class:`Guard` is attached and the batch fails validation, or its
    logits stay non-finite after the exact-kernel retry.

    Attributes:
        reason: human-readable cause of the rejection.
        validation: per-cloud sanitization reports (on a validation
            failure, the failing cloud's partial report).
    """

    def __init__(
        self,
        reason: str,
        validation: Sequence[ValidationReport] = (),
    ) -> None:
        super().__init__(f"guard rejected the batch: {reason}")
        self.reason = reason
        self.validation = tuple(validation)


class Guard:
    """Probe state of a guarded :class:`~repro.pipeline.EdgePCPipeline`.

    Attach one with ``EdgePCPipeline(model, guard=Guard())``; the
    pipeline's ``infer`` then probes every sanitized batch, runs it
    under the config :meth:`select` returns, and retries non-finite
    logits once on exact kernels.  The guard holds only its own state
    (breakers, probe RNG, degradation log, batch counts); spans and
    counters go to the pipeline's tracer and registry, passed per call.

    Args:
        thresholds: probe configuration and trip thresholds.
        seed: seeds the probe subsampling.
    """

    def __init__(
        self,
        thresholds: Optional[GuardThresholds] = None,
        seed: int = 0,
    ) -> None:
        self.thresholds = thresholds or GuardThresholds()
        self._rng = np.random.default_rng(seed)
        self.breakers: Dict[str, CircuitBreaker] = {
            stage: CircuitBreaker(
                self.thresholds.trip_limit, self.thresholds.cooldown
            )
            for stage in (STAGE_SAMPLING, STAGE_NEIGHBOR)
        }
        self.degradation_log: List[StageDegradation] = []
        self.batches_served = 0
        self.batches_rejected = 0

    @property
    def breaker_states(self) -> Dict[str, str]:
        return {
            stage: breaker.state
            for stage, breaker in self.breakers.items()
        }

    @property
    def _batch_index(self) -> int:
        return self.batches_served + self.batches_rejected

    # Telemetry helpers -------------------------------------------------

    _BREAKER_LEVELS = {"closed": 0.0, "half_open": 1.0, "open": 2.0}

    def _note_breaker(
        self,
        metrics: MetricsRegistry,
        stage: str,
        before: str,
    ) -> None:
        """Count a breaker state transition and refresh its gauge."""
        after = self.breakers[stage].state
        if after != before:
            metrics.counter(
                "guard_breaker_transitions_total",
                stage=stage, from_state=before, to_state=after,
            ).inc()
        metrics.gauge("guard_breaker_state", stage=stage).set(
            self._BREAKER_LEVELS[after]
        )

    # Probes ------------------------------------------------------------

    def _probe_set(self, cloud: np.ndarray) -> np.ndarray:
        n = cloud.shape[0]
        size = min(self.thresholds.probe_points, n)
        if size == n:
            return cloud
        picked = self._rng.choice(n, size=size, replace=False)
        return cloud[picked]

    def _run_probe(
        self, stage: str, probe: np.ndarray, config: EdgePCConfig
    ) -> Tuple[float, float]:
        """Returns ``(metric, threshold)`` for one stage probe."""
        if stage == STAGE_SAMPLING:
            num_samples = min(
                self.thresholds.probe_samples, probe.shape[0]
            )
            metric = probe_sampling_uniformity(
                probe, num_samples, config.code_bits
            )
            return metric, self.thresholds.max_density_cv
        k = min(self.thresholds.probe_k, probe.shape[0])
        window = min(probe.shape[0], config.window_for(k))
        metric = probe_false_neighbor_rate(
            probe, k, window, config.code_bits
        )
        return metric, self.thresholds.max_false_neighbor_rate

    def _probe_stage(
        self,
        stage: str,
        probe: np.ndarray,
        config: EdgePCConfig,
        degradations: List[StageDegradation],
        tracer: Tracer,
        metrics: MetricsRegistry,
    ) -> bool:
        """Probe one stage; returns True when it must run exact."""
        batch_index = self._batch_index
        breaker = self.breakers[stage]
        reprobe = breaker.state == "open"
        before = breaker.state
        decision = breaker.before_batch()
        self._note_breaker(metrics, stage, before)
        if decision == "forced":
            metrics.counter(
                "guard_fallbacks_total", stage=stage,
                reason="circuit_open",
            ).inc()
            degradations.append(
                StageDegradation(
                    stage, "circuit_open", float("nan"),
                    float("nan"), batch_index,
                )
            )
            return True
        # A half-open breaker means this probe is the cooldown
        # re-probe that decides whether the stage rejoins the
        # approximate path.
        reprobe = reprobe or before == "half_open"
        metrics.counter("guard_probes_total", stage=stage).inc()
        if reprobe:
            metrics.counter("guard_reprobes_total", stage=stage).inc()
        min_probe = max(2, self.thresholds.probe_k)
        if probe.shape[0] < min_probe:
            # Too few points for a meaningful probe; the exact
            # kernels are cheap at this size anyway.
            before = breaker.state
            breaker.record_trip()
            self._note_breaker(metrics, stage, before)
            metrics.counter(
                "guard_fallbacks_total", stage=stage,
                reason="probe_underpopulated",
            ).inc()
            degradations.append(
                StageDegradation(
                    stage, "probe_tripped", float("nan"),
                    float(probe.shape[0]), batch_index,
                )
            )
            return True
        with tracer.span("guard.probe", "guard") as probe_span:
            probe_span.set("stage", stage)
            probe_span.set("reprobe", reprobe)
            metric, threshold = self._run_probe(stage, probe, config)
            probe_span.set("metric", metric)
            probe_span.set("threshold", threshold)
        metrics.gauge("guard_probe_score", stage=stage).set(metric)
        before = breaker.state
        if metric > threshold:
            breaker.record_trip()
            self._note_breaker(metrics, stage, before)
            metrics.counter("guard_probe_trips_total", stage=stage).inc()
            metrics.counter(
                "guard_fallbacks_total", stage=stage,
                reason="probe_tripped",
            ).inc()
            degradations.append(
                StageDegradation(
                    stage, "probe_tripped", metric, threshold,
                    batch_index,
                )
            )
            return True
        breaker.record_pass()
        self._note_breaker(metrics, stage, before)
        return False

    # Pipeline hooks ----------------------------------------------------

    def select(
        self,
        xyz: np.ndarray,
        model,
        tracer: Tracer,
        metrics: MetricsRegistry,
    ) -> Tuple[EdgePCConfig, List[StageDegradation]]:
        """Probe a sanitized batch; returns the config to run it under
        (``model.edgepc`` with each tripped stage cleared) and the
        degradations applied."""
        config = model.edgepc
        degradations: List[StageDegradation] = []
        exact: List[str] = []
        probe = self._probe_set(xyz[0])
        # Guard only the stages the config approximates and the
        # model can reach.
        stages = []
        if (config.sample_layers or config.upsample_layers) and (
            hasattr(model, "sa_modules")
        ):
            stages.append(STAGE_SAMPLING)
        if config.neighbor_layers or config.reuse_distance:
            stages.append(STAGE_NEIGHBOR)
        for stage in stages:
            if self._probe_stage(
                stage, probe, config, degradations, tracer, metrics
            ):
                exact.append(stage)
        return degraded_config(config, tuple(exact)), degradations

    def retry_config(
        self,
        config: EdgePCConfig,
        degradations: List[StageDegradation],
        metrics: MetricsRegistry,
    ) -> Optional[EdgePCConfig]:
        """The all-exact config for retrying a batch whose logits were
        non-finite under ``config``, or ``None`` when ``config`` already
        is all-exact.  Records the fallback in ``degradations``."""
        full_exact = degraded_config(
            config, (STAGE_SAMPLING, STAGE_NEIGHBOR)
        )
        if config == full_exact:
            return None
        metrics.counter(
            "guard_fallbacks_total", stage="all",
            reason="non_finite_logits",
        ).inc()
        degradations.append(
            StageDegradation(
                "all", "non_finite_logits", float("nan"),
                float("nan"), self._batch_index,
            )
        )
        return full_exact

    def served(
        self,
        degradations: List[StageDegradation],
        metrics: MetricsRegistry,
    ) -> None:
        """Account one served batch."""
        self.degradation_log.extend(degradations)
        self.batches_served += 1
        metrics.counter("guard_batches_served_total").inc()

    def rejected(
        self,
        reason: str,
        validation: Sequence[ValidationReport],
        degradations: List[StageDegradation],
        metrics: MetricsRegistry,
    ) -> InferenceRejectedError:
        """Account one rejected batch; returns the error to raise."""
        self.degradation_log.extend(degradations)
        self.batches_rejected += 1
        metrics.counter("guard_rejections_total").inc()
        return InferenceRejectedError(reason, validation)
