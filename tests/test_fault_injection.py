"""End-to-end fault-injection matrix for the guarded pipeline.

Drives every :func:`faults.standard_faults` spec
through a guarded :class:`~repro.pipeline.EdgePCPipeline` over both
classifier families, and asserts the contract: bad input raises only
the typed :class:`~repro.robustness.guard.InferenceRejectedError`,
served logits are never non-finite, and the guard falls back to the
exact kernels exactly when a probe (or the last-ditch retry) says so.
"""

import numpy as np
import pytest
from faults import FaultInjector, FaultSpec, standard_faults

import repro.pipeline
import repro.robustness.validate
from repro.core import EdgePCConfig
from repro.nn import DGCNNClassifier, PointNet2Classifier, SAConfig
from repro.observability import MetricsRegistry, Tracer
from repro.pipeline import EdgePCPipeline
from repro.robustness import (
    Guard,
    GuardThresholds,
    InferenceRejectedError,
    ValidationPolicy,
)
from repro.robustness.guard import CircuitBreaker

BATCH = 2
N_POINTS = 64


def _pn2_cls():
    return PointNet2Classifier(
        num_classes=3,
        sa_configs=(SAConfig(0.5, 4, 1.0, (8, 8)),),
        edgepc=EdgePCConfig.paper_default(),
        head_hidden=8,
        rng=np.random.default_rng(0),
    )


def _dgcnn_cls():
    return DGCNNClassifier(
        num_classes=3, k=4, ec_channels=((8,), (8,)),
        emb_channels=16, head_hidden=8,
        edgepc=EdgePCConfig.paper_default(),
        rng=np.random.default_rng(0),
    )


MODELS = {"pointnet2_cls": _pn2_cls, "dgcnn_cls": _dgcnn_cls}

#: Thresholds sized for the tiny test clouds.
TINY_PROBE = dict(probe_points=32, probe_samples=8, probe_k=4)


def _guarded(make_model, **overrides):
    params = dict(TINY_PROBE)
    params.update(overrides)
    return EdgePCPipeline(
        make_model(),
        validation=ValidationPolicy.repair(),
        guard=Guard(GuardThresholds(**params), seed=0),
    )


class TestFaultMatrix:
    """The acceptance matrix: every fault spec x every model family."""

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize(
        "spec", standard_faults(), ids=lambda s: s.name
    )
    def test_never_crashes_never_nan(self, model_name, spec, rng):
        pipeline = _guarded(MODELS[model_name])
        clean = rng.normal(size=(BATCH, N_POINTS, 3))
        faulted = FaultInjector(seed=7).apply_batch(clean, spec)
        try:
            result = pipeline.infer(faulted)
        except InferenceRejectedError as err:
            # Structured rejection, not a crash: a reason and the
            # validation report that caused it.
            assert err.reason
            assert err.validation
        else:
            assert np.isfinite(result.logits).all()
            assert result.logits.shape[0] == BATCH
            assert result.predictions.shape == (BATCH,)
            assert result.config is not None

    def test_empty_sweep_is_structured_rejection(self, rng):
        spec = next(
            s for s in standard_faults() if s.name == "empty_sweep"
        )
        pipeline = _guarded(_pn2_cls)
        faulted = FaultInjector(seed=7).apply_batch(
            rng.normal(size=(BATCH, N_POINTS, 3)), spec
        )
        with pytest.raises(InferenceRejectedError) as err:
            pipeline.infer(faulted)
        assert "point" in err.value.reason
        assert pipeline.guard.batches_rejected == 1
        assert pipeline.guard.batches_served == 0

    def test_injection_is_deterministic(self, rng):
        spec = standard_faults()[0]
        cloud = rng.normal(size=(N_POINTS, 3))
        a = FaultInjector(seed=3).apply(cloud, spec)
        b = FaultInjector(seed=3).apply(cloud, spec)
        np.testing.assert_array_equal(a, b)
        c = FaultInjector(seed=4).apply(cloud, spec)
        assert not np.array_equal(a, c, equal_nan=True)

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("bogus", "teleportation")


class TestProbeFallback:
    """Probe trips must demonstrably switch stages to exact kernels."""

    def test_trip_switches_pn2_to_exact(self, rng):
        # Impossible thresholds: every probe trips.
        pipeline = _guarded(
            _pn2_cls,
            max_density_cv=-1.0,
            max_false_neighbor_rate=-1.0,
        )
        result = pipeline.infer(rng.normal(size=(1, N_POINTS, 3)))
        assert set(result.degraded_stages) == {"sampling", "neighbor"}
        assert all(
            d.reason == "probe_tripped" for d in result.degradations
        )
        config = result.config
        assert not config.sample_layers
        assert not config.neighbor_layers
        # The exact kernels actually ran.
        ops = result.stage_ops
        assert "fps" in ops
        assert "ball_query" in ops
        assert "morton_sort" not in ops
        assert "morton_window" not in ops

    def test_trip_switches_dgcnn_neighbor_to_exact(self, rng):
        pipeline = _guarded(
            _dgcnn_cls,
            max_density_cv=-1.0,
            max_false_neighbor_rate=-1.0,
        )
        result = pipeline.infer(rng.normal(size=(1, N_POINTS, 3)))
        # DGCNN has no sampling stage; only the neighbor guard applies.
        assert result.degraded_stages == ("neighbor",)
        assert result.config.reuse_distance == 0
        ops = result.stage_ops
        assert "knn" in ops
        assert "morton_window" not in ops

    def test_clean_input_stays_approximate(self, rng):
        # Generous thresholds: nothing trips, the Morton path runs.
        pipeline = _guarded(
            _pn2_cls,
            max_density_cv=50.0,
            max_false_neighbor_rate=1.0,
        )
        result = pipeline.infer(rng.normal(size=(1, N_POINTS, 3)))
        assert not result.degradations
        assert result.config == pipeline.config
        assert "morton_sort" in result.stage_ops
        assert "fps" not in result.stage_ops

    def test_degradation_log_accumulates(self, rng):
        pipeline = _guarded(_pn2_cls, max_density_cv=-1.0)
        guard = pipeline.guard
        xyz = rng.normal(size=(1, N_POINTS, 3))
        pipeline.infer(xyz)
        pipeline.infer(xyz)
        assert len(guard.degradation_log) >= 2
        assert {d.batch_index for d in guard.degradation_log} == {0, 1}
        assert "sampling -> exact" in str(guard.degradation_log[0])


class TestCircuitBreaker:
    def test_opens_after_consecutive_trips(self):
        breaker = CircuitBreaker(trip_limit=3, cooldown=2)
        for _ in range(2):
            assert breaker.before_batch() == "probe"
            breaker.record_trip()
            assert breaker.state == "closed"
        breaker.before_batch()
        breaker.record_trip()
        assert breaker.state == "open"

    def test_pass_resets_consecutive_count(self):
        breaker = CircuitBreaker(trip_limit=2, cooldown=2)
        breaker.record_trip()
        breaker.record_pass()
        breaker.record_trip()
        assert breaker.state == "closed"
        assert breaker.total_trips == 2

    def test_cooldown_then_half_open(self):
        breaker = CircuitBreaker(trip_limit=1, cooldown=2)
        breaker.before_batch()
        breaker.record_trip()
        assert breaker.state == "open"
        assert breaker.before_batch() == "forced"
        assert breaker.before_batch() == "probe"
        assert breaker.state == "half_open"

    def test_half_open_trip_reopens(self):
        breaker = CircuitBreaker(trip_limit=2, cooldown=1)
        breaker.record_trip()
        breaker.record_trip()
        breaker.before_batch()  # cooldown elapses -> half_open
        breaker.record_trip()
        assert breaker.state == "open"
        assert breaker.remaining_cooldown == 1

    def test_half_open_pass_closes(self):
        breaker = CircuitBreaker(trip_limit=1, cooldown=1)
        breaker.record_trip()
        breaker.before_batch()
        breaker.record_pass()
        assert breaker.state == "closed"

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            CircuitBreaker(trip_limit=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0)


class TestBreakerPinning:
    """Over a batch stream, repeated trips pin the stage to exact and
    the cooldown re-probe path runs."""

    def test_pin_after_trip_limit_then_cooldown(self, rng):
        pipeline = _guarded(
            _pn2_cls,
            max_density_cv=-1.0,  # sampling probe always trips
            max_false_neighbor_rate=1.0,  # neighbor probe never trips
            trip_limit=2,
            cooldown=2,
        )
        xyz = rng.normal(size=(1, N_POINTS, 3))
        reasons = []
        for _ in range(5):
            result = pipeline.infer(xyz)
            sampling = [
                d for d in result.degradations
                if d.stage == "sampling"
            ]
            assert len(sampling) == 1
            reasons.append(sampling[0].reason)
        # Batches 0-1 trip the probe (opening the breaker on batch 1),
        # batch 2 is forced exact during cooldown, batch 3 re-probes in
        # half_open (trips again, re-opening), batch 4 is forced again.
        assert reasons == [
            "probe_tripped", "probe_tripped", "circuit_open",
            "probe_tripped", "circuit_open",
        ]
        assert pipeline.guard.breaker_states["sampling"] == "open"
        assert pipeline.guard.breaker_states["neighbor"] == "closed"


class TestRejectPolicy:
    def test_reject_policy_rejects_nan_batch(self, rng):
        pipeline = EdgePCPipeline(
            _pn2_cls(),
            validation=ValidationPolicy.reject(),
            guard=Guard(GuardThresholds(**TINY_PROBE)),
        )
        xyz = rng.normal(size=(1, N_POINTS, 3))
        xyz[0, 5, 1] = np.nan
        with pytest.raises(InferenceRejectedError) as err:
            pipeline.infer(xyz)
        assert "non-finite" in err.value.reason
        kinds = {
            issue.kind
            for report in err.value.validation
            for issue in report.issues
        }
        assert "non_finite" in kinds

    def test_repair_policy_serves_same_batch(self, rng):
        pipeline = _guarded(_pn2_cls)
        xyz = rng.normal(size=(1, N_POINTS, 3))
        xyz[0, 5, 1] = np.nan
        result = pipeline.infer(xyz)
        assert np.isfinite(result.logits).all()
        # The repaired cloud was padded back to full size.
        assert result.validation[0].n_output == N_POINTS
        assert result.validation[0].dropped == 0


class TestGuardStage:
    """The guard is a stage of ``EdgePCPipeline.infer``: one
    validation boundary, one priced pass, one retry path."""

    def test_non_finite_logits_retry_then_reject(self, rng):
        model = _pn2_cls()
        model.head_out.weight.data[...] = np.nan
        tracer, registry = Tracer(), MetricsRegistry()
        pipeline = EdgePCPipeline(
            model,
            guard=Guard(
                GuardThresholds(
                    max_density_cv=50.0,
                    max_false_neighbor_rate=1.0,
                    **TINY_PROBE,
                )
            ),
            tracer=tracer,
            metrics=registry,
        )
        with pytest.raises(
            InferenceRejectedError, match="non-finite logits"
        ):
            pipeline.infer(rng.normal(size=(1, N_POINTS, 3)))
        assert registry.counter(
            "guard_fallbacks_total", stage="all",
            reason="non_finite_logits",
        ).value == 1
        assert [d.reason for d in pipeline.guard.degradation_log] == [
            "non_finite_logits"
        ]
        names = [span.name for span in tracer.finished()]
        assert names.count("guard.retry_exact") == 1
        assert names.count("pipeline.forward") == 2
        # Neither pass was served, so neither is priced or counted.
        assert registry.counter("pipeline_batches_total").value == 0
        assert registry.counter("guard_rejections_total").value == 1
        assert pipeline.guard.batches_rejected == 1

    def test_one_sanitization_per_guarded_batch(self, rng, monkeypatch):
        batches, clouds = [], []
        sanitize_batch = repro.pipeline.sanitize_batch
        sanitize_cloud = repro.robustness.validate.sanitize_cloud

        def count_batch(*args, **kwargs):
            batches.append(1)
            return sanitize_batch(*args, **kwargs)

        def count_cloud(*args, **kwargs):
            clouds.append(1)
            return sanitize_cloud(*args, **kwargs)

        monkeypatch.setattr(repro.pipeline, "sanitize_batch", count_batch)
        monkeypatch.setattr(
            repro.robustness.validate, "sanitize_cloud", count_cloud
        )
        pipeline = _guarded(_pn2_cls)
        pipeline.infer(rng.normal(size=(BATCH, N_POINTS, 3)))
        assert len(batches) == 1
        assert len(clouds) == BATCH

    def test_repaired_batch_shows_in_validation_metrics(self, rng):
        registry = MetricsRegistry()
        pipeline = EdgePCPipeline(
            _pn2_cls(),
            validation=ValidationPolicy.repair(),
            guard=Guard(GuardThresholds(**TINY_PROBE)),
            metrics=registry,
        )
        xyz = rng.normal(size=(1, N_POINTS, 3))
        xyz[0, :5, 0] = np.nan
        result = pipeline.infer(xyz)
        assert registry.counter("validation_repairs_total").value == 1
        assert registry.counter(
            "validation_issues_total", kind="non_finite",
            action="dropped",
        ).value == 5
        (report,) = result.validation
        assert report.n_input == N_POINTS
        assert report.n_output == N_POINTS
        assert any(
            issue.kind == "non_finite" and issue.count == 5
            for issue in report.issues
        )
