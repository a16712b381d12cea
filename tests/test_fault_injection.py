"""End-to-end fault-injection matrix for the guarded pipeline.

Drives every :func:`faults.standard_faults` spec
through :class:`~repro.robustness.guard.GuardedPipeline` wrapping both
classifier families, and asserts the contract: the guard never raises
on bad input, never returns non-finite logits, and falls back to the
exact kernels exactly when a probe (or the last-ditch retry) says so.
"""

import numpy as np
import pytest
from faults import FaultInjector, FaultSpec, standard_faults

from repro.core import EdgePCConfig
from repro.nn import DGCNNClassifier, PointNet2Classifier, SAConfig
from repro.pipeline import EdgePCPipeline
from repro.robustness import (
    GuardedPipeline,
    GuardThresholds,
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
    return GuardedPipeline(
        EdgePCPipeline(make_model()),
        policy=ValidationPolicy.repair(),
        thresholds=GuardThresholds(**params),
        seed=0,
    )


class TestFaultMatrix:
    """The acceptance matrix: every fault spec x every model family."""

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize(
        "spec", standard_faults(), ids=lambda s: s.name
    )
    def test_never_crashes_never_nan(self, model_name, spec, rng):
        guard = _guarded(MODELS[model_name])
        clean = rng.normal(size=(BATCH, N_POINTS, 3))
        faulted = FaultInjector(seed=7).apply_batch(clean, spec)
        result = guard.infer(faulted)
        if result.ok:
            assert np.isfinite(result.logits).all()
            assert result.logits.shape[0] == BATCH
            assert result.predictions.shape == (BATCH,)
            assert result.effective_config is not None
        else:
            # Structured rejection, not a crash: a reason and the
            # validation report that caused it.
            assert result.rejection_reason
            assert result.validation
            with pytest.raises(ValueError):
                result.logits

    def test_empty_sweep_is_structured_rejection(self, rng):
        spec = next(
            s for s in standard_faults() if s.name == "empty_sweep"
        )
        guard = _guarded(_pn2_cls)
        faulted = FaultInjector(seed=7).apply_batch(
            rng.normal(size=(BATCH, N_POINTS, 3)), spec
        )
        result = guard.infer(faulted)
        assert result.rejected
        assert "point" in result.rejection_reason
        assert guard.batches_rejected == 1
        assert guard.batches_served == 0

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
        guard = _guarded(
            _pn2_cls,
            max_density_cv=-1.0,
            max_false_neighbor_rate=-1.0,
        )
        result = guard.infer(rng.normal(size=(1, N_POINTS, 3)))
        assert result.ok
        assert set(result.degraded_stages) == {"sampling", "neighbor"}
        assert all(
            d.reason == "probe_tripped" for d in result.degradations
        )
        config = result.effective_config
        assert not config.sample_layers
        assert not config.neighbor_layers
        # The exact kernels actually ran.
        ops = result.result.stage_ops
        assert "fps" in ops
        assert "ball_query" in ops
        assert "morton_sort" not in ops
        assert "morton_window" not in ops

    def test_trip_switches_dgcnn_neighbor_to_exact(self, rng):
        guard = _guarded(
            _dgcnn_cls,
            max_density_cv=-1.0,
            max_false_neighbor_rate=-1.0,
        )
        result = guard.infer(rng.normal(size=(1, N_POINTS, 3)))
        assert result.ok
        # DGCNN has no sampling stage; only the neighbor guard applies.
        assert result.degraded_stages == ("neighbor",)
        assert result.effective_config.reuse_distance == 0
        ops = result.result.stage_ops
        assert "knn" in ops
        assert "morton_window" not in ops

    def test_clean_input_stays_approximate(self, rng):
        # Generous thresholds: nothing trips, the Morton path runs.
        guard = _guarded(
            _pn2_cls,
            max_density_cv=50.0,
            max_false_neighbor_rate=1.0,
        )
        result = guard.infer(rng.normal(size=(1, N_POINTS, 3)))
        assert result.ok
        assert not result.degradations
        assert result.effective_config == guard.pipeline.config
        assert "morton_sort" in result.result.stage_ops
        assert "fps" not in result.result.stage_ops

    def test_degradation_log_accumulates(self, rng):
        guard = _guarded(_pn2_cls, max_density_cv=-1.0)
        xyz = rng.normal(size=(1, N_POINTS, 3))
        guard.infer(xyz)
        guard.infer(xyz)
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
        assert breaker.forces_exact

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
        guard = _guarded(
            _pn2_cls,
            max_density_cv=-1.0,  # sampling probe always trips
            max_false_neighbor_rate=1.0,  # neighbor probe never trips
            trip_limit=2,
            cooldown=2,
        )
        xyz = rng.normal(size=(1, N_POINTS, 3))
        reasons = []
        for _ in range(5):
            result = guard.infer(xyz)
            assert result.ok
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
        assert guard.breaker_states["sampling"] == "open"
        assert guard.breaker_states["neighbor"] == "closed"


class TestRejectPolicy:
    def test_reject_policy_rejects_nan_batch(self, rng):
        guard = GuardedPipeline(
            EdgePCPipeline(_pn2_cls()),
            policy=ValidationPolicy.reject(),
            thresholds=GuardThresholds(**TINY_PROBE),
        )
        xyz = rng.normal(size=(1, N_POINTS, 3))
        xyz[0, 5, 1] = np.nan
        result = guard.infer(xyz)
        assert result.rejected
        assert "non-finite" in result.rejection_reason
        kinds = {
            issue.kind
            for report in result.validation
            for issue in report.issues
        }
        assert "non_finite" in kinds

    def test_repair_policy_serves_same_batch(self, rng):
        guard = _guarded(_pn2_cls)
        xyz = rng.normal(size=(1, N_POINTS, 3))
        xyz[0, 5, 1] = np.nan
        result = guard.infer(xyz)
        assert result.ok
        assert np.isfinite(result.logits).all()
        # The repaired cloud was padded back to full size.
        assert result.validation[0].n_output == N_POINTS
        assert result.validation[0].dropped == 0
