"""Tests for the fault-tolerant serving fleet (PR 6).

Covers the retry/hedge policies, the replica health state machine
(including eject -> probation -> re-admit), consistent-hash routing,
deterministic chaos injection, and the fleet itself: zero lost
requests when a replica dies mid-load, deadline-aware retries, hedged
dispatch, door rejection, and byte-identical reports, metrics and
traces across same-seed runs — all in virtual time.  The fleet's
tallies are read from its registry's ``serving_fleet_*`` counters and
its decisions from its ``request`` / ``request.attempt`` spans.

PR 7 adds the trace-propagation contract: one trace id per request,
stitched across queue/batch/attempt/kernel-stage spans on every
replica it touched, with zero orphan spans — under retries and
hedges alike.
"""

import json

import numpy as np
import pytest
from telemetry import spans_by_trace

from repro.core import EdgePCConfig
from repro.nn import PointNet2Segmentation, SAConfig
from repro.observability import Tracer, find_orphans
from repro.observability.clock import FixedClock
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.pipeline import EdgePCPipeline
from repro.serving import (
    ChaosHarness,
    ChaosSchedule,
    DeadlineExceededError,
    FleetConfig,
    FleetLoadGenerator,
    HedgePolicy,
    LoadGenConfig,
    NoHealthyReplicaError,
    ReplicaFaultError,
    ReplicaHealth,
    RetryExhaustedError,
    RetryPolicy,
    Router,
    ServerFleet,
    ServingConfig,
    parse_chaos_event,
)
from repro.serving.retry import JITTER, _unit_hash

N_POINTS = 32


def _pipeline(metrics=None, seed=0, tracer=None):
    model = PointNet2Segmentation(
        num_classes=3,
        sa_configs=(SAConfig(0.5, 4, 1.5, (8, 8)),),
        edgepc=EdgePCConfig.paper_default(),
        head_hidden=8,
        rng=np.random.default_rng(seed),
    )
    return EdgePCPipeline(model, tracer=tracer, metrics=metrics)


def _fleet(
    replicas=3, clock=None, config=None, serving=None, metrics=None,
    tracer=None,
):
    clock = clock if clock is not None else FixedClock(0.0)
    metrics = metrics if metrics is not None else MetricsRegistry()
    fleet = ServerFleet(
        [
            _pipeline(metrics=metrics, seed=0, tracer=tracer)
            for _ in range(replicas)
        ],
        config=config or FleetConfig(),
        serving_config=serving
        or ServingConfig(max_batch_size=4, max_wait_ms=20.0, workers=1),
        clock=clock,
    )
    return fleet, clock


def _count(fleet, name, **labels):
    """One ``serving_fleet_<name>_total`` series of the fleet's
    registry."""
    return fleet.metrics.counter(
        f"serving_fleet_{name}_total", **labels
    ).value


def _spans(tracer, name):
    """Finished spans called ``name``, as dicts, in emission order."""
    return [
        span.to_dict() for span in tracer.finished() if span.name == name
    ]


def _drive(fleet, request):
    """Step the fleet's virtual-time loop until no event remains; the
    request must have resolved by then."""
    fleet.run()
    assert request.future.done(), "request did not resolve in virtual time"


def _jitter_factor(token, attempt):
    """The deterministic jitter factor ``backoff_s`` scales by."""
    unit = _unit_hash(f"{token}:{attempt}")
    return 1.0 - JITTER + 2.0 * JITTER * unit


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_attempts=10)
        attempts = range(1, 10)
        values = [policy.backoff_s(a, token="r1") for a in attempts]
        # 0.02 s doubling per retry, capped at 2 s (2.56 -> 2.0).
        raw = [0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28, 2.0, 2.0]
        assert values == [
            base * _jitter_factor("r1", a)
            for base, a in zip(raw, attempts)
        ]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy()
        first = policy.backoff_s(1, token="r1")
        assert first == policy.backoff_s(1, token="r1")
        assert 0.01 <= first <= 0.03
        assert policy.backoff_s(1, token="r2") != first

    def test_next_backoff_stops_at_max_attempts(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.next_backoff(1, "r1") is not None
        assert policy.next_backoff(2, "r1") is None

    def test_next_backoff_honors_remaining_deadline(self):
        policy = RetryPolicy(max_attempts=5)
        backoff = policy.backoff_s(1, "r1")
        assert policy.next_backoff(1, "r1", remaining_s=1.0) == backoff
        assert policy.next_backoff(1, "r1", remaining_s=backoff) is None


class TestHedgePolicy:
    def test_floor_until_enough_samples(self):
        policy = HedgePolicy(min_delay_s=0.05)
        assert policy.delay_s([]) == 0.05
        assert policy.delay_s([0.2] * 15) == 0.05
        assert policy.delay_s([0.2] * 16) == 0.2

    def test_quantile_with_floor(self):
        policy = HedgePolicy(min_delay_s=0.05)
        assert policy.delay_s([0.2] * 16) == 0.2
        assert policy.delay_s([0.001] * 16) == 0.05
        # The p95 of 0, 1, ..., 20 ms is the 19 ms sample.
        latencies = [i / 1e3 for i in range(21)]
        assert policy.delay_s(latencies) == 0.05
        assert HedgePolicy(min_delay_s=0.001).delay_s(latencies) == 0.019


class TestReplicaHealth:
    """Transitions of ``healthy -> ejected -> probation -> healthy``
    under the fixed thresholds: 4 consecutive failures or a windowed
    failure rate of 65% or more (over at least 4 outcomes) eject, a
    1 s sit-out precedes probation, 3 probation successes readmit, and
    nothing short of an ejection takes a replica out of ``healthy``."""

    def _health(self):
        return ReplicaHealth(0, NULL_METRICS)

    def test_starts_healthy(self):
        assert self._health().state == "healthy"

    def test_consecutive_failures_eject(self):
        health = self._health()
        for t in (0.1, 0.2, 0.3):
            health.record_failure(t, "fault")
        assert health.state == "healthy"
        health.record_failure(0.4, "fault")
        assert health.state == "ejected"
        assert [t[2] for t in health.transitions] == ["ejected"]

    def test_eject_probation_readmit_cycle(self):
        health = self._health()
        health.force_eject(0.0, "killed")
        assert not health.routable(0.9)
        assert health.routable(1.1)
        assert health.state == "probation"
        health.record_success(1.2)
        health.record_success(1.3)
        assert health.state == "probation"
        health.record_success(1.4)
        assert health.state == "healthy"
        states = [t[2] for t in health.transitions]
        assert states == ["ejected", "probation", "healthy"]

    def test_probation_failure_re_ejects(self):
        health = self._health()
        health.force_eject(0.0, "killed")
        health.tick(1.1)
        assert health.state == "probation"
        health.record_failure(1.2, "fault")
        assert health.state == "ejected"

    def test_windowed_failure_rate_ejects(self):
        # 3 failures of 4 outcomes (75%) eject with only 3 in a row.
        health = self._health()
        health.record_success(0.1)
        health.record_failure(0.2, "fault")
        health.record_failure(0.3, "fault")
        assert health.state == "healthy"  # 2 of 3: below MIN_SAMPLES
        health.record_failure(0.4, "fault")
        assert health.state == "ejected"
        assert health.transitions == [
            (0.4, "healthy", "ejected", "fault")
        ]

    def test_failure_rate_below_eject_threshold_stays_healthy(self):
        health = self._health()
        health.record_success(0.1)
        health.record_success(0.2)
        health.record_failure(0.3, "fault")
        health.record_failure(0.4, "fault")  # 50% of 4 outcomes
        assert health.state == "healthy"
        assert health.transitions == []


class TestHealthyCountIsReadOnly:
    def test_counts_an_elapsed_sit_out_without_ticking(self):
        registry = MetricsRegistry()
        fleet, clock = _fleet(replicas=2, metrics=registry)
        health = fleet.replicas[1].health
        health.force_eject(0.0, "killed")
        clock.advance(1.5)
        before = registry.to_prometheus()
        for _ in range(2):
            assert fleet.healthy_count(clock()) == 2
        assert health.state == "ejected"
        assert registry.to_prometheus() == before
        assert 'to_state="probation"' not in before
        # The fleet's heartbeat still makes the transition.
        fleet.service()
        assert health.state == "probation"
        assert [t[2] for t in health.transitions] == [
            "ejected", "probation",
        ]
        assert registry.counter(
            "serving_replica_transitions_total", replica="1",
            from_state="ejected", to_state="probation",
        ).value == 1


class TestReplicaStatesIsReadOnly:
    def test_replica_states_reads_an_elapsed_sit_out_without_ticking(
        self,
    ):
        registry = MetricsRegistry()
        fleet, clock = _fleet(replicas=2, metrics=registry)
        health = fleet.replicas[1].health
        health.force_eject(0.0, "killed")
        clock.advance(1.5)
        before = registry.to_prometheus()
        for _ in range(2):
            assert fleet.replica_states() == {
                "0": "healthy", "1": "probation",
            }
        assert health.state == "ejected"
        assert registry.to_prometheus() == before
        assert 'to_state="probation"' not in before
        # The fleet's heartbeat still makes the transition.
        fleet.service()
        assert health.state == "probation"
        assert fleet.replica_states() == {
            "0": "healthy", "1": "probation",
        }
        assert registry.counter(
            "serving_replica_transitions_total", replica="1",
            from_state="ejected", to_state="probation",
        ).value == 1


class TestTelemetryWiring:
    """The fleet and everything it builds report through the one
    tracer and registry its pipelines share."""

    def test_fleet_exports_every_replica_state(self):
        registry = MetricsRegistry()
        fleet, _ = _fleet(metrics=registry)
        assert fleet.metrics is registry
        for replica in fleet.replicas:
            assert replica.server.metrics is registry
            assert replica.server.queue.metrics is registry
            assert registry.gauge(
                "serving_replica_state", replica=str(replica.index)
            ).value == 0.0
        names = {m["name"] for m in registry.snapshot()["metrics"]}
        assert "serving_replica_state" in names

    def test_chaos_harness_counts_into_the_fleet_registry(self):
        registry = MetricsRegistry()
        fleet, _ = _fleet(metrics=registry)
        harness = ChaosHarness(
            fleet, ChaosSchedule.from_specs(["kill:1:0.0"])
        )
        harness.fire(0.0)
        assert registry.counter(
            "serving_chaos_events_total", action="kill"
        ).value == 1
        assert registry.gauge(
            "serving_replica_state", replica="1"
        ).value == 2.0  # ejected

    @pytest.mark.parametrize(
        "name, make", [("metrics", MetricsRegistry), ("tracer", Tracer)]
    )
    def test_pipelines_must_share_each_sink(self, name, make):
        pipelines = [_pipeline(**{name: make()}) for _ in range(2)]
        with pytest.raises(ValueError, match="share one tracer"):
            ServerFleet(pipelines, clock=FixedClock(0.0))

    def test_a_registry_that_records_nothing_is_refused(self):
        """The registry holds the fleet's only tallies."""
        with pytest.raises(ValueError, match="NULL_METRICS"):
            ServerFleet([_pipeline()], clock=FixedClock(0.0))


class TestRouter:
    def test_same_key_same_route(self):
        assert Router(3).preference("tenant-1")[0] == Router(
            3
        ).preference("tenant-1")[0]

    def test_preference_covers_all_replicas_once(self):
        order = Router(4).preference("tenant-9")
        assert sorted(order) == [0, 1, 2, 3]

    def test_keys_spread_across_replicas(self):
        router = Router(3)
        first = {
            router.preference(f"tenant-{i}")[0] for i in range(32)
        }
        assert len(first) > 1


class TestChaosSchedule:
    def test_parse_event_specs(self):
        event = parse_chaos_event("kill:1:0.8")
        assert (event.action, event.replica, event.at_s) == (
            "kill",
            1,
            0.8,
        )
        slow = parse_chaos_event("slow:0:1.5:8.0")
        assert slow.factor == 8.0
        with pytest.raises(ValueError):
            parse_chaos_event("explode:0:1.0")

    def test_harness_rejects_a_replica_outside_the_fleet(self):
        """An out-of-range target fails at construction, not as an
        ``IndexError`` when the event fires mid-run."""
        fleet, _ = _fleet(replicas=3)
        with pytest.raises(ValueError, match="targets replica 3, .* 3 "):
            ChaosHarness(fleet, ChaosSchedule.from_specs(["kill:3:0.2"]))
        assert ChaosHarness(
            fleet, ChaosSchedule.from_specs(["kill:2:0.2"])
        ).next_event_at == 0.2


class TestFleetVirtual:
    def test_submit_and_complete(self, rng):
        fleet, clock = _fleet()
        request = fleet.submit(
            rng.random((N_POINTS, 3)), tenant="tenant-1"
        )
        _drive(fleet, request)
        result = request.future.result()
        assert result.prediction.shape == (N_POINTS,)
        assert _count(fleet, "completed") == 1

    def test_kill_mid_flight_retries_on_another_replica(self, rng):
        clock = FixedClock(0.0)
        tracer = Tracer(clock=clock)
        fleet, _ = _fleet(clock=clock, tracer=tracer)
        request = fleet.submit(
            rng.random((N_POINTS, 3)),
            tenant="tenant-1",
            deadline_s=2.0,
        )
        primary = fleet.router.preference("tenant-1")[0]
        shed = fleet.kill_replica(primary)
        assert shed == 1
        _drive(fleet, request)
        assert request.future.result() is not None
        assert _count(fleet, "retries") >= 1
        assert _count(fleet, "completed") == 1
        assert request.tried[0] == primary
        assert len(request.tried) >= 2  # the retry ran elsewhere
        attempts = _spans(tracer, "request.attempt")
        assert [a["attrs"]["replica"] for a in attempts] == request.tried
        assert attempts[0]["attrs"]["outcome"] == "ReplicaFaultError"
        assert attempts[-1]["attrs"]["outcome"] == "ok"

    def test_all_replicas_erroring_exhausts_retries_typed(self, rng):
        fleet, clock = _fleet(
            config=FleetConfig(retry=RetryPolicy(max_attempts=2))
        )
        for index in range(len(fleet.replicas)):
            fleet.error_replica(index)
        request = fleet.submit(
            rng.random((N_POINTS, 3)), tenant="tenant-1"
        )
        _drive(fleet, request)
        with pytest.raises(RetryExhaustedError) as err:
            request.future.result()
        assert err.value.reason == "retry_exhausted"
        assert isinstance(err.value.__cause__, ReplicaFaultError)
        assert _count(fleet, "failed", reason="retry_exhausted") == 1

    def test_deadline_expiry_is_typed_and_counted(self, rng):
        fleet, clock = _fleet()
        request = fleet.submit(
            rng.random((N_POINTS, 3)),
            tenant="tenant-1",
            deadline_s=0.005,
        )
        _drive(fleet, request)
        with pytest.raises(DeadlineExceededError):
            request.future.result()
        assert _count(fleet, "expired") == 1

    def test_no_routable_replica_rejects_at_the_door(self, rng):
        fleet, clock = _fleet()
        for index in range(len(fleet.replicas)):
            fleet.kill_replica(index)
        with pytest.raises(NoHealthyReplicaError) as err:
            fleet.submit(rng.random((N_POINTS, 3)))
        assert err.value.reason == "no_healthy_replica"
        assert _count(
            fleet, "rejected", reason="no_healthy_replica"
        ) == 1

    def test_hedge_fires_and_cancels_loser(self, rng):
        clock = FixedClock(0.0)
        tracer = Tracer(clock=clock)
        fleet, _ = _fleet(
            clock=clock,
            config=FleetConfig(
                hedge=HedgePolicy(min_delay_s=0.03)
            ),
            tracer=tracer,
        )
        request = fleet.submit(
            rng.random((N_POINTS, 3)), tenant="tenant-1"
        )
        primary = fleet.router.preference("tenant-1")[0]
        fleet.stall_replica(primary)
        _drive(fleet, request)
        assert request.future.result() is not None
        assert _count(fleet, "hedges") == 1
        assert _count(fleet, "hedge_wins") == 1
        assert _count(fleet, "hedge_cancelled") == 1
        assert request.winner.endswith(".a2")
        # The stalled primary never resolves, so only the winning
        # hedge closes its attempt span.
        (hedge,) = _spans(tracer, "request.attempt")
        assert hedge["attrs"]["hedge"] is True
        assert hedge["attrs"]["outcome"] == "ok"
        (root,) = _spans(tracer, "request")
        assert root["attrs"]["hedges"] == 1


class TestSettlementPaths:
    """Ways a request settles that a load run rarely or never takes."""

    def test_drain_sheds_a_stalled_backlog_without_deadlines(self, rng):
        fleet, clock = _fleet(replicas=1)
        fleet.stall_replica(0)
        requests = [
            fleet.submit(rng.random((N_POINTS, 3))) for _ in range(3)
        ]
        fleet.run()  # nothing can expire: the loop just returns
        assert fleet.replicas[0].server.queue.depth == 3
        fleet.drain()
        assert fleet.replicas[0].server.queue.depth == 0
        lost = sum(1 for r in requests if not r.future.done())
        assert lost == 0
        for request in requests:
            error = request.future.exception()
            assert isinstance(error, RetryExhaustedError)
            assert isinstance(error.__cause__, NoHealthyReplicaError)
        assert _count(fleet, "failed", reason="retry_exhausted") == 3

    def test_a_retry_whose_deadline_passed_expires_unfired(self, rng):
        fleet, clock = _fleet()
        request = fleet.submit(
            rng.random((N_POINTS, 3)), tenant="tenant-1", deadline_s=0.5
        )
        fleet.kill_replica(fleet.router.preference("tenant-1")[0])
        fleet.service()  # the shed attempt schedules a retry
        assert _count(fleet, "retries") == 1
        clock.advance(1.0)  # past the deadline before the retry fires
        fleet.service()
        error = request.future.exception()
        assert isinstance(error, DeadlineExceededError)
        assert "before its retry could dispatch" in str(error)
        assert request.attempts == 1
        assert _count(fleet, "expired") == 1

    def test_a_retry_with_no_replica_uses_up_an_attempt(self, rng):
        fleet, clock = _fleet(
            replicas=1,
            config=FleetConfig(retry=RetryPolicy(max_attempts=3)),
        )
        request = fleet.submit(rng.random((N_POINTS, 3)))
        fleet.kill_replica(0)
        _drive(fleet, request)
        error = request.future.exception()
        assert isinstance(error, RetryExhaustedError)
        # One dispatch, then two placements that found nowhere to go.
        assert request.tried == [0]
        assert request.attempts == 3
        assert isinstance(error.__cause__, NoHealthyReplicaError)
        assert _count(fleet, "retries") == 2
        assert _count(fleet, "failed", reason="retry_exhausted") == 1

    def test_a_non_retryable_replica_error_fails_the_request(
        self, rng, monkeypatch
    ):
        fleet, clock = _fleet()

        def infer(xyz):
            raise ValueError("model exploded")

        for replica in fleet.replicas:
            monkeypatch.setattr(replica.server.pipeline, "infer", infer)
        request = fleet.submit(rng.random((N_POINTS, 3)))
        _drive(fleet, request)
        error = request.future.exception()
        assert isinstance(error, ValueError)
        assert request.attempts == 1
        assert _count(fleet, "retries") == 0
        assert _count(fleet, "failed", reason="ValueError") == 1


class TestVirtualLoop:
    def test_batches_wait_for_a_free_lane_at_the_slowed_rate(self, rng):
        fleet, clock = _fleet(
            replicas=1,
            serving=ServingConfig(
                max_batch_size=1, max_wait_ms=20.0, workers=1
            ),
        )
        fleet.slow_replica(0, factor=2.0)
        for _ in range(2):
            fleet.submit(rng.random((N_POINTS, 3)))
        dispatches = []
        fleet.run(on_dispatch=dispatches.append)
        first, second = dispatches
        assert first.record.dispatched_s == 0.0
        assert first.busy_s == first.record.simulated_s * 2.0
        assert first.done_s == first.busy_s
        # One lane: the second batch dispatches when the first ends.
        assert second.record.dispatched_s == first.done_s
        assert second.done_s == first.done_s + second.busy_s
        assert fleet.replicas[0].lanes == [second.done_s]
        assert fleet.next_event_at is None

    def test_loop_returns_when_a_request_cannot_settle(self, rng):
        fleet, clock = _fleet(replicas=1)
        fleet.stall_replica(0)  # no deadline: nothing ever expires
        request = fleet.submit(rng.random((N_POINTS, 3)))
        fleet.run()
        assert not request.future.done()
        assert fleet.next_event_at is None
        assert clock() == 0.0

    def test_failed_batches_occupy_no_lane(self, rng):
        fleet, clock = _fleet(
            replicas=1,
            config=FleetConfig(retry=RetryPolicy(max_attempts=1)),
        )
        fleet.error_replica(0)
        request = fleet.submit(rng.random((N_POINTS, 3)))
        dispatches = []
        fleet.run(on_dispatch=dispatches.append)
        (failed,) = dispatches
        assert not failed.record.ok
        assert failed.busy_s == 0.0
        assert failed.done_s == failed.record.dispatched_s
        assert fleet.replicas[0].lanes == [0.0]
        assert isinstance(request.future.exception(), RetryExhaustedError)


def _chaos_run(seed=0):
    metrics = MetricsRegistry()
    clock = FixedClock(0.0)
    fleet = ServerFleet(
        [_pipeline(metrics, seed=0) for _ in range(3)],
        config=FleetConfig(retry=RetryPolicy(max_attempts=4)),
        serving_config=ServingConfig(
            max_batch_size=4, max_wait_ms=20.0, workers=1
        ),
        clock=clock,
    )
    schedule = ChaosSchedule.from_specs(["kill:1:0.8", "recover:1:1.4"])
    harness = ChaosHarness(fleet, schedule)
    config = LoadGenConfig(
        duration_s=2.0, rate=40.0, deadline_ms=500.0, seed=seed
    )
    generator = FleetLoadGenerator(fleet, config, chaos=harness)
    report = generator.run()
    return report, fleet, harness


class TestChaosUnderLoad:
    def test_kill_one_of_three_loses_nothing(self):
        report, fleet, harness = _chaos_run()
        assert len(harness.applied) == 2
        assert report.lost == 0
        assert report.submitted > 0
        # Every admitted request reached a terminal state.
        assert report.admitted == (
            report.completed + report.failed + report.expired
        )
        # The kill actually disrupted traffic and the fleet recovered.
        assert report.retries >= 1
        assert report.completed > 0.9 * report.admitted

    def test_ejected_replica_is_readmitted_after_probation(self):
        report, fleet, harness = _chaos_run()
        assert report.replica_states == {
            "0": "healthy",
            "1": "healthy",
            "2": "healthy",
        }
        killed = fleet.replicas[1].health
        states = [t[2] for t in killed.transitions]
        assert "ejected" in states
        assert states[-1] == "healthy"

    def test_same_seed_same_schedule_byte_identical(self):
        report_a, fleet_a, _ = _chaos_run()
        report_b, fleet_b, _ = _chaos_run()
        assert json.dumps(
            report_a.to_dict(), sort_keys=True
        ) == json.dumps(report_b.to_dict(), sort_keys=True)
        assert json.dumps(fleet_a.metrics.snapshot()) == json.dumps(
            fleet_b.metrics.snapshot()
        )
        assert report_a.retries >= 1

    def test_different_seed_changes_the_report(self):
        report_a, _, _ = _chaos_run(seed=0)
        report_b, _, _ = _chaos_run(seed=1)
        assert report_a.to_dict() != report_b.to_dict()


def _traced_chaos_run(seed=7):
    """Virtual-time chaos run with tracing on: an erroring replica
    (forces retries) plus a slowed replica (forces hedges)."""
    metrics = MetricsRegistry()
    clock = FixedClock(0.0)
    tracer = Tracer(clock=clock)
    fleet = ServerFleet(
        [_pipeline(metrics, seed=0, tracer=tracer) for _ in range(3)],
        config=FleetConfig(
            retry=RetryPolicy(max_attempts=4),
            hedge=HedgePolicy(min_delay_s=0.015),
        ),
        serving_config=ServingConfig(
            max_batch_size=4, max_wait_ms=20.0, workers=1
        ),
        clock=clock,
    )
    schedule = ChaosSchedule.from_specs(
        ["error:1:0.05", "slow:2:0.1:8", "recover:1:0.4", "recover:2:0.6"]
    )
    harness = ChaosHarness(fleet, schedule)
    config = LoadGenConfig(
        duration_s=0.8, rate=60.0, deadline_ms=500.0, seed=seed
    )
    report = FleetLoadGenerator(fleet, config, chaos=harness).run()
    return report, fleet, tracer


class TestTracePropagation:
    def test_every_result_carries_its_trace_id(self, rng):
        clock = FixedClock(0.0)
        fleet, _ = _fleet(clock=clock, tracer=Tracer(clock=clock))
        requests = [
            fleet.submit(
                rng.random((N_POINTS, 3)), tenant=f"tenant-{i}"
            )
            for i in range(3)
        ]
        for request in requests:
            _drive(fleet, request)
            result = request.future.result()
            assert result.trace_id == f"trace-{request.request_id}"
            assert request.ctx is not None
            assert request.ctx.trace_id == result.trace_id
            assert request.ctx.is_root

    def test_one_stitched_trace_per_request_no_orphans(self):
        report, fleet, tracer = _traced_chaos_run()
        # The scenario must actually exercise the hard paths.
        assert report.retries >= 1
        assert report.hedges >= 1
        records = [span.to_dict() for span in tracer.finished()]
        assert find_orphans(records) == []
        grouped = spans_by_trace(records)
        roots = [
            r
            for r in records
            if r.get("name") == "request" and r.get("trace_id")
        ]
        # One root span per trace, one trace per admitted request.
        assert len(roots) == len(grouped)
        by_id = {r["trace_id"]: r for r in roots}
        assert set(by_id) == set(grouped)
        # Every trace covers the full request lifecycle.
        for trace_id, spans in grouped.items():
            names = {s["name"] for s in spans}
            assert "request" in names
            if by_id[trace_id]["attrs"]["outcome"] == "ok":
                assert "request.queue" in names
                assert "request.batch" in names
                assert "request.sample" in names

    def test_multi_attempt_traces_span_replicas(self):
        report, fleet, tracer = _traced_chaos_run()
        records = [span.to_dict() for span in tracer.finished()]
        grouped = spans_by_trace(records)
        multi = {
            trace_id: spans
            for trace_id, spans in grouped.items()
            if sum(
                1
                for s in spans
                if s["name"] == "request.attempt"
            )
            >= 2
        }
        assert multi, "chaos scenario produced no retried request"
        for spans in multi.values():
            replicas = {
                s["attrs"]["replica"]
                for s in spans
                if s["name"] == "request.attempt"
            }
            assert len(replicas) >= 2

    def test_retries_are_the_roots_extra_attempts(self):
        """Every retry the registry counts is one more attempt on its
        request's root span than its first dispatch and its hedge."""
        report, fleet, tracer = _traced_chaos_run()
        roots = [
            root["attrs"]
            for root in _spans(tracer, "request")
            if "attempts" in root["attrs"]
        ]
        assert len(roots) == report.admitted
        extra = sum(r["attempts"] - r["hedges"] - 1 for r in roots)
        assert report.retries >= 1
        assert extra == report.retries

    def test_same_seed_trace_export_byte_identical(self):
        _, _, tracer_a = _traced_chaos_run()
        _, _, tracer_b = _traced_chaos_run()
        dump_a = json.dumps(
            [s.to_dict() for s in tracer_a.finished()],
            sort_keys=True,
        )
        dump_b = json.dumps(
            [s.to_dict() for s in tracer_b.finished()],
            sort_keys=True,
        )
        assert dump_a == dump_b
