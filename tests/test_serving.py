"""Tests for the serving subsystem (PR 5).

Covers the admission queue and its bucket/trigger logic,
threaded graceful shutdown (zero lost requests), workspace ownership
under threads, fault injection through the guarded server, and the
deterministic virtual-time load generator on a 1-replica fleet (pinned
to the reports of the single-server generator it replaced).
"""

import dataclasses
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from faults import FaultInjector, FaultSpec
from telemetry import spans_by_trace

from repro.core import EdgePCConfig
from repro.nn import PointNet2Segmentation, SAConfig
from repro.observability import Tracer, find_orphans
from repro.observability.clock import FixedClock, wall_clock
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.pipeline import EdgePCPipeline
from repro.serving.server import REQUEST_LATENCY_BUCKETS
from repro.robustness import (
    Guard,
    GuardThresholds,
    InferenceRejectedError,
    ValidationPolicy,
)
from repro.serving import (
    DeadlineExceededError,
    DrainTimeoutError,
    FleetLoadGenerator,
    InferenceServer,
    LoadGenConfig,
    QueueClosedError,
    QueueFullError,
    RequestQueue,
    ServerFleet,
    ServingConfig,
    ServingRequest,
)

N_POINTS = 32


def _pipeline(metrics=None, seed=0, **kwargs):
    model = PointNet2Segmentation(
        num_classes=3,
        sa_configs=(SAConfig(0.5, 4, 1.5, (8, 8)),),
        edgepc=EdgePCConfig.paper_default(),
        head_hidden=8,
        rng=np.random.default_rng(seed),
    )
    return EdgePCPipeline(model, metrics=metrics, **kwargs)


def _request(rng, request_id="r1", n=N_POINTS, arrival=0.0, deadline=None):
    return ServingRequest(
        request_id=request_id,
        cloud=rng.random((n, 3)),
        arrival_s=arrival,
        deadline_s=deadline,
    )


def _held_by_another_thread(lock) -> bool:
    """Whether some thread holds ``lock`` right now, asked from a fresh
    thread (the holder itself could re-enter an ``RLock``)."""
    acquired = []

    def probe():
        got = lock.acquire(blocking=False)
        if got:
            lock.release()
        acquired.append(got)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return not acquired[0]


class TestRequestQueue:
    def test_admits_up_to_depth_then_rejects_typed(self, rng):
        registry = MetricsRegistry()
        queue = RequestQueue(max_depth=2, metrics=registry)
        queue.put(_request(rng, "a"))
        queue.put(_request(rng, "b"))
        with pytest.raises(QueueFullError) as err:
            queue.put(_request(rng, "c"))
        assert err.value.reason == "queue_full"
        assert queue.admitted == 2
        assert queue.rejected == 1
        assert registry.counter("serving_admitted_total").value == 2
        assert (
            registry.counter(
                "serving_rejected_total", reason="queue_full"
            ).value
            == 1
        )
        assert registry.gauge("serving_queue_depth").value == 2.0

    def test_closed_queue_rejects_typed(self, rng):
        queue = RequestQueue(max_depth=4)
        queue.close()
        with pytest.raises(QueueClosedError) as err:
            queue.put(_request(rng))
        assert err.value.reason == "closed"
        assert queue.closed

    def test_batches_are_fifo_within_a_bucket(self, rng):
        registry = MetricsRegistry()
        queue = RequestQueue(max_depth=4, metrics=registry)
        for name in ("a", "b", "c"):
            queue.put(_request(rng, name))
        queue.put(_request(rng, "other", n=16))
        assert queue.depth == 4
        queue.close()
        batch = queue.poll()
        assert [r.request_id for r in batch.requests] == ["a", "b", "c"]
        # Dispatched requests leave the buffer; the other bucket stays.
        assert queue.depth == 1
        assert registry.gauge("serving_queue_depth").value == 1.0

    def test_backlog_bound_covers_bucketed_requests(self, rng):
        # Requests sitting in point-count buckets count against
        # max_depth: admission bounds the whole pre-dispatch backlog.
        clock = FixedClock(0.0)
        queue = RequestQueue(
            max_depth=2, max_batch_size=8, max_wait_s=1.0, clock=clock
        )
        queue.put(_request(rng, "a"))
        queue.put(_request(rng, "b", n=16))
        with pytest.raises(QueueFullError):
            queue.put(_request(rng, "c"))
        clock.advance(1.0)
        assert queue.poll() is not None  # dispatch frees a slot
        queue.put(_request(rng, "d"))


class TestMicroBatcher:
    """The queue's batch formation: buckets, triggers and expiry."""

    def _queue(self, clock, registry=NULL_METRICS, **kwargs):
        defaults = dict(max_batch_size=4, max_wait_s=0.05)
        defaults.update(kwargs)
        return RequestQueue(
            max_depth=64, clock=clock, metrics=registry, **defaults
        )

    def test_full_bucket_flushes_immediately(self, rng):
        clock = FixedClock(0.0)
        queue = self._queue(clock)
        for i in range(4):
            queue.put(_request(rng, f"r{i}"))
        batch = queue.poll()
        assert batch is not None
        assert batch.trigger == "full"
        assert batch.size == 4
        assert batch.xyz.shape == (4, N_POINTS, 3)
        assert queue.poll() is None

    def test_buckets_by_point_count(self, rng):
        clock = FixedClock(0.0)
        queue = self._queue(clock)
        queue.put(_request(rng, "small", n=16))
        queue.put(_request(rng, "large", n=64))
        assert queue.poll() is None  # neither bucket is due yet
        assert queue.depth == 2
        clock.advance(0.06)  # past max_wait: both flush, separately
        first = queue.poll()
        second = queue.poll()
        assert first.trigger == "timeout"
        assert second.trigger == "timeout"
        assert {first.xyz.shape[1], second.xyz.shape[1]} == {16, 64}
        assert first.size == second.size == 1

    def test_timeout_trigger_honors_wait_hint(self, rng):
        clock = FixedClock(0.0)
        queue = self._queue(clock)
        queue.put(_request(rng, "lone"))
        assert queue.poll() is None
        assert queue.next_flush_at == pytest.approx(0.05)
        clock.advance(0.05)
        batch = queue.poll()
        assert batch is not None and batch.trigger == "timeout"

    def test_drain_trigger_flushes_partial_buckets(self, rng):
        clock = FixedClock(0.0)
        queue = self._queue(clock)
        queue.put(_request(rng, "a"))
        queue.put(_request(rng, "b"))
        assert queue.poll() is None
        queue.close()
        batch = queue.poll()
        assert batch.trigger == "drain"
        assert batch.size == 2
        assert queue.depth == 0
        assert queue.next_batch() is None  # fully drained

    def test_expired_request_gets_typed_error(self, rng):
        registry = MetricsRegistry()
        clock = FixedClock(0.0)
        queue = self._queue(clock, registry)
        doomed = _request(rng, "doomed", deadline=0.02)
        queue.put(doomed)
        assert queue.next_expiry_at == 0.02
        clock.advance(0.03)  # past the deadline, before max_wait
        assert queue.poll() is None
        assert doomed.future.done()
        with pytest.raises(DeadlineExceededError):
            doomed.future.result()
        assert queue.expired == 1
        assert queue.depth == 0
        assert registry.counter("serving_expired_total").value == 1

    @pytest.mark.parametrize(
        "path", ["poll", "next_batch", "expire_due", "expire_on_arrival"]
    )
    def test_expired_futures_resolve_outside_the_lock(self, rng, path):
        """Done callbacks of expired requests (the fleet's
        ``_attempt_resolved`` takes its own lock) run after the queue
        lock is released, in expiry order, on every expiry path."""
        clock = FixedClock(0.0)
        queue = self._queue(clock)
        seen = []
        requests = [
            _request(rng, name, deadline=0.01) for name in ("a", "b")
        ]
        for request in requests:
            queue.put(request)
            request.future.add_done_callback(
                lambda fut, rid=request.request_id: seen.append(
                    (rid, _held_by_another_thread(queue.condition))
                )
            )
        clock.advance(0.02)
        if path == "poll":
            assert queue.poll() is None
        elif path == "next_batch":
            queue.close()
            assert queue.next_batch() is None
        elif path == "expire_due":
            assert queue.expire_due() == 2
        else:
            for request in requests:
                queue.expire_on_arrival(request)
        assert seen == [("a", False), ("b", False)]
        assert queue.expired == 2

    def test_oversize_bucket_splits_into_max_batches(self, rng):
        clock = FixedClock(0.0)
        queue = self._queue(clock, max_batch_size=3)
        for i in range(7):
            queue.put(_request(rng, f"r{i}"))
        sizes = []
        queue.close()
        while True:
            batch = queue.poll()
            if batch is None:
                break
            sizes.append(batch.size)
        assert sizes == [3, 3, 1]


#: Every way a request leaves the pre-dispatch buffer.
EXIT_PATHS = (
    "dispatch",
    "expiry",
    "expired_on_arrival",
    "stalled_expire_due",
    "stop_without_drain",
    "shed_replica_backlog",
)


class TestBacklogInvariant:
    """After every exit path, ``queue.depth`` counts exactly the
    admitted requests not yet resolved, and the
    ``serving_queue_depth`` gauge equals it."""

    @pytest.mark.parametrize("exit_path", EXIT_PATHS)
    def test_depth_counts_unresolved_requests(self, rng, exit_path):
        registry = MetricsRegistry()
        clock = FixedClock(0.0)
        fleet = ServerFleet(
            [_pipeline(registry)],
            serving_config=ServingConfig(
                max_batch_size=2, max_wait_ms=50.0, workers=1
            ),
            clock=clock,
        )
        server = fleet.replicas[0].server

        def submit(deadline_s=None, n=N_POINTS):
            return server.submit(
                rng.random((n, 3)), deadline_s=deadline_s
            )

        if exit_path == "dispatch":
            admitted = [submit() for _ in range(3)]
            assert len(server.pump(limit=1)) == 1  # the full bucket
        elif exit_path == "expiry":
            admitted = [submit(deadline_s=0.01), submit(n=16)]
            clock.advance(0.02)  # past the deadline, before max_wait
            assert server.queue.poll() is None
        elif exit_path == "expired_on_arrival":
            admitted = [submit(), submit(deadline_s=0.0)]
        elif exit_path == "stalled_expire_due":
            fleet.stall_replica(0)
            admitted = [submit(deadline_s=0.01), submit()]
            fleet.run()  # wakes only for the deadline expiry
        elif exit_path == "stop_without_drain":
            admitted = [submit(), submit(n=16)]
            server.stop(drain=False)
        else:
            admitted = [submit(), submit(n=16)]
            assert fleet.shed_replica_backlog(0, "test") == 2

        resolved = sum(request.future.done() for request in admitted)
        assert 0 < resolved
        unresolved = len(admitted) - resolved
        assert server.queue.depth == unresolved
        assert server.outstanding == unresolved
        assert registry.gauge("serving_queue_depth").value == float(
            unresolved
        )

    def test_racing_submitters_and_workers_resolve_each_once(self, rng):
        # Submitters, on-arrival expiry and four workers contend for the
        # same buckets; a request taken twice would resolve twice and
        # show up as a worker error and a miscount.
        registry = MetricsRegistry()
        server = InferenceServer(
            _pipeline(registry),
            ServingConfig(
                max_queue_depth=256,
                max_batch_size=4,
                max_wait_ms=1.0,
                workers=4,
            ),
        )
        clouds = rng.random((8, N_POINTS, 3))
        requests = []
        lock = threading.Lock()

        def submitter(offset):
            for i in range(16):
                # Every third request arrives already past its deadline.
                deadline = 0.0 if i % 3 == 0 else None
                request = server.submit(
                    clouds[(offset + i) % 8], deadline_s=deadline
                )
                with lock:
                    requests.append(request)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                threads = [
                    threading.Thread(target=submitter, args=(offset,))
                    for offset in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(requests) == 64
        assert all(request.future.done() for request in requests)
        expired = sum(
            isinstance(request.future.exception(), DeadlineExceededError)
            for request in requests
        )
        assert expired == server.queue.expired == 24
        assert server.completed == 40
        assert server.failed == 0
        assert server.queue.depth == 0
        assert server.outstanding == 0
        assert registry.gauge("serving_queue_depth").value == 0.0


class TestThreadedServer:
    def test_graceful_drain_loses_nothing(self, rng):
        registry = MetricsRegistry()
        server = InferenceServer(
            _pipeline(registry),
            ServingConfig(
                max_batch_size=4, max_wait_ms=5.0, workers=2
            ),
        )
        with server:
            requests = [
                server.submit(rng.random((N_POINTS, 3)))
                for _ in range(20)
            ]
        # The with-block exit drains: every future must be resolved.
        results = [r.future.result(timeout=10.0) for r in requests]
        assert len(results) == 20
        assert server.completed == 20
        assert server.outstanding == 0
        assert server.stats()["failed"] == 0
        assert registry.counter("serving_completed_total").value == 20
        for result in results:
            assert result.logits.shape == (N_POINTS, 3)
            assert result.prediction.shape == (N_POINTS,)
            assert result.batch_size >= 1
            assert result.trigger in ("full", "timeout", "drain")

    def test_non_drain_stop_cancels_with_typed_error(self, rng):
        server = InferenceServer(
            _pipeline(),
            ServingConfig(
                max_batch_size=64,
                max_wait_ms=10_000.0,  # nothing flushes on its own
                workers=1,
            ),
        )
        server.start()
        requests = [
            server.submit(rng.random((N_POINTS, 3))) for _ in range(3)
        ]
        server.stop(drain=False)
        for request in requests:
            assert request.future.done()
            with pytest.raises(QueueClosedError):
                request.future.result()
        assert server.outstanding == 0

    def test_non_drain_stop_releases_the_queue_backlog(self, rng):
        registry = MetricsRegistry()
        server = InferenceServer(
            _pipeline(registry), ServingConfig()
        )
        # No workers: the requests stay buffered in their bucket.
        for _ in range(3):
            server.submit(rng.random((N_POINTS, 3)))
        assert server.queue.depth == 3
        server.stop(drain=False)
        assert server.outstanding == 0
        assert server.queue.depth == 0
        assert registry.gauge("serving_queue_depth").value == 0.0

    def test_submit_validates_shape(self, rng):
        server = InferenceServer(_pipeline())
        with pytest.raises(ValueError):
            server.submit(rng.random((2, N_POINTS, 3)))

    def test_submissions_after_stop_are_rejected(self, rng):
        server = InferenceServer(_pipeline())
        server.start()
        server.stop()
        with pytest.raises(QueueClosedError):
            server.submit(rng.random((N_POINTS, 3)))


class _InFlightProbe:
    """Pipeline stand-in that counts concurrent ``infer`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def infer(self, xyz):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            return self.inner.infer(xyz)
        finally:
            with self._lock:
                self.active -= 1


class TestSharedWorkspace:
    """Threaded workers take turns on the model's own scratch pool."""

    CONFIG = ServingConfig(max_batch_size=2, max_wait_ms=5.0, workers=3)

    def _serve(self, server, rng, count):
        with server:
            requests = [
                server.submit(rng.random((N_POINTS, 3)))
                for _ in range(count)
            ]
        for request in requests:
            request.future.result(timeout=10.0)

    def test_threaded_workers_complete_every_request(self, rng):
        server = InferenceServer(_pipeline(), self.CONFIG)
        self._serve(server, rng, 12)
        assert server.completed == 12

    def test_workspace_counters_match_the_model_pool(self, rng):
        registry = MetricsRegistry()
        pipeline = _pipeline(registry)
        server = InferenceServer(pipeline, self.CONFIG)
        self._serve(server, rng, 40)
        workspace = pipeline.model.workspace
        assert workspace.hits > 0 and workspace.misses > 0
        hits = registry.counter("workspace_buffer_hits_total")
        misses = registry.counter("workspace_buffer_misses_total")
        assert hits.value == workspace.hits
        assert misses.value == workspace.misses

    def test_one_forward_at_a_time(self, rng):
        probe = _InFlightProbe(_pipeline())
        server = InferenceServer(probe, self.CONFIG)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the workers densely
        try:
            self._serve(server, rng, 24)
        finally:
            sys.setswitchinterval(interval)
        assert server.completed == 24
        assert probe.peak == 1


class TestServingUnderFaults:
    TINY_PROBE = dict(probe_points=16, probe_samples=8, probe_k=4)

    def _guarded_server(self, registry, **threshold_overrides):
        params = dict(self.TINY_PROBE)
        params.update(threshold_overrides)
        pipeline = _pipeline(
            registry,
            validation=ValidationPolicy.repair(),
            guard=Guard(GuardThresholds(**params), seed=0),
        )
        return InferenceServer(
            pipeline,
            ServingConfig(
                max_batch_size=4, max_wait_ms=5.0, workers=2
            ),
        )

    def test_faults_trip_breaker_without_losing_requests(self, rng):
        # Impossible thresholds with trip_limit=1: the first dispatch
        # trips every probe and opens the breakers, while every
        # request still completes (degraded, not dropped).
        registry = MetricsRegistry()
        server = self._guarded_server(
            registry,
            max_density_cv=-1.0,
            max_false_neighbor_rate=-1.0,
            trip_limit=1,
        )
        injector = FaultInjector(seed=7)
        spec = FaultSpec("storm", "duplicate_storm", fraction=0.5)
        with server:
            requests = []
            for index in range(12):
                cloud = rng.random((N_POINTS, 3))
                if index % 2 == 0:
                    cloud = injector.apply(cloud, spec)
                requests.append(server.submit(cloud))
        results = [r.future.result(timeout=10.0) for r in requests]
        assert len(results) == 12  # nothing lost, no deadlock
        assert server.outstanding == 0
        guard = server.pipeline.guard
        assert "open" in set(guard.breaker_states.values())
        transitions = sum(
            entry["value"]
            for entry in registry.snapshot()["metrics"]
            if entry["name"] == "guard_breaker_transitions_total"
        )
        assert transitions >= 1
        # Serving metrics carry the trip's visible effects too.
        assert registry.counter("serving_completed_total").value == 12
        assert any(result.degraded_stages for result in results)

    def test_unrepairable_batch_fails_typed_others_survive(self, rng):
        # A reject-policy guarded pipeline turns an all-NaN cloud into
        # a structured rejection; the server surfaces it as a typed
        # failure on that batch only.
        registry = MetricsRegistry()
        pipeline = _pipeline(
            registry,
            validation=ValidationPolicy(),  # strict: reject
            guard=Guard(GuardThresholds(**self.TINY_PROBE), seed=0),
        )
        server = InferenceServer(
            pipeline,
            ServingConfig(
                max_batch_size=1, max_wait_ms=1.0, workers=1
            ),
        )
        bad = np.full((N_POINTS, 3), np.nan)
        with server:
            poisoned = server.submit(bad)
            healthy = server.submit(rng.random((N_POINTS, 3)))
        assert healthy.future.result(timeout=10.0).prediction.shape
        with pytest.raises(
            InferenceRejectedError, match="^guard rejected the batch: "
        ) as rejected:
            poisoned.future.result(timeout=10.0)
        assert "non-finite" in rejected.value.reason
        assert server.outstanding == 0
        assert registry.counter("serving_completed_total").value == 1
        # One batch failed, the poisoned one alone.
        assert registry.counter(
            "serving_failed_total", reason="guard_rejected"
        ).value == 1
        assert server.stats()["batches"] == 2
        assert pipeline.guard.batches_rejected == 1


class _ShortLogits:
    """Pipeline stand-in whose results hold one logits row fewer than
    the batch: the server resolves the first request, then fails."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def infer(self, xyz):
        result = self.inner.infer(xyz)
        return dataclasses.replace(
            result,
            logits=result.logits[:-1],
            predictions=result.predictions[:-1],
        )


class TestWorkerErrorAccounting:
    def test_partly_resolved_batch_balances_the_tally(self, rng):
        registry = MetricsRegistry()
        server = InferenceServer(
            _ShortLogits(_pipeline(registry)),
            ServingConfig(
                max_batch_size=2, max_wait_ms=10_000.0, workers=1
            ),
        )
        requests = [
            server.submit(rng.random((N_POINTS, 3))) for _ in range(2)
        ]
        with server:
            pass
        served, lost = requests
        assert served.future.result(timeout=10.0).logits.shape
        with pytest.raises(RuntimeError, match="serving worker failed"):
            lost.future.result(timeout=10.0)
        stats = server.stats()
        assert server.outstanding == 0
        assert stats["completed"] + stats["failed"] == stats["admitted"]
        assert (stats["completed"], stats["failed"]) == (1.0, 1.0)
        assert registry.counter(
            "serving_failed_total", reason="worker_error"
        ).value == 1
        assert registry.counter("serving_completed_total").value == 1


SINGLE_SERVER_REPORTS = (
    Path(__file__).parent / "data" / "loadgen_single_server.json"
)


def _single_server_reports():
    """``LoadReport.to_dict()`` of the retired single-server load
    generator, per load shape (with the shape's parameters)."""
    with open(SINGLE_SERVER_REPORTS) as fh:
        return json.load(fh)


def _virtual_fleet(registry=None, seed=0, **config_kwargs):
    """A 1-replica virtual-time fleet: how one server is load-tested."""
    defaults = dict(max_batch_size=8, max_wait_ms=50.0, workers=2)
    defaults.update(config_kwargs)
    return ServerFleet(
        [_pipeline(registry, seed=seed)],
        serving_config=ServingConfig(**defaults),
        clock=FixedClock(0.0),
    )


class TestLoadGenerator:
    def _run(self, gen_kwargs=None, **config_kwargs):
        fleet = _virtual_fleet(MetricsRegistry(), **config_kwargs)
        params = dict(
            duration_s=1.0, rate=50.0, seed=11, points=(N_POINTS,)
        )
        params.update(gen_kwargs or {})
        return FleetLoadGenerator(fleet, LoadGenConfig(**params)).run()

    def test_two_runs_are_identical(self):
        first = self._run().to_dict()
        second = self._run().to_dict()
        assert first == second

    @pytest.mark.parametrize(
        "shape", ["default", "overload", "closed"]
    )
    def test_matches_single_server_report(self, shape):
        """A 1-replica fleet reproduces the retired single-server
        generator field for field; only ``replica_states`` is new."""
        recorded = _single_server_reports()[shape]
        got = self._run(
            recorded["loadgen"], **recorded["serving"]
        ).to_dict()
        want = dict(recorded["report"])
        assert got.pop("replica_states") == {"0": "healthy"}
        want.pop("replica_states")
        assert got == want

    def test_deadline_shape_ejects_the_sole_replica(self):
        """The one known divergence from a lone server: the health
        policy counts deadline expiries as replica failures, so with
        a deadline shorter than the batching window the only replica
        is ejected and later arrivals are refused at the door."""
        recorded = _single_server_reports()["deadline"]
        report = self._run(recorded["loadgen"], **recorded["serving"])
        assert report.submitted == recorded["report"]["submitted"]
        assert report.rejection_reasons["no_healthy_replica"] > 0
        assert report.admitted + report.rejected == report.submitted
        assert report.lost == 0

    def test_batching_actually_happens_at_50rps(self):
        report = self._run()
        assert report.mean_batch_size > 1.5
        assert report.lost == 0
        assert report.failed == 0
        assert report.completed == report.admitted
        assert report.latency_ms["p50"] > 0
        assert report.latency_ms["p99"] >= report.latency_ms["p95"]

    def test_closed_loop_self_limits(self):
        report = self._run(
            {"mode": "closed", "concurrency": 4, "duration_s": 0.5}
        )
        assert report.submitted >= 4
        assert report.lost == 0
        assert report.failed == 0

    def test_deadlines_expire_as_typed_outcomes(self):
        # A deadline shorter than the batching window: every admitted
        # request expires before its bucket's timeout flush.
        report = self._run(
            {"deadline_ms": 10.0, "duration_s": 0.3},
            max_batch_size=64,
            max_wait_ms=500.0,
        )
        assert report.expired > 0
        assert report.lost == 0
        assert report.expired + report.completed == report.admitted

    def test_overload_sheds_via_admission_control(self):
        report = self._run(
            {"rate": 2000.0, "duration_s": 0.2},
            max_queue_depth=16,
            max_wait_ms=200.0,
        )
        assert report.rejected > 0
        assert report.lost == 0
        assert (
            report.admitted + report.rejected == report.submitted
        )

    def test_requires_a_fixed_clock(self):
        """The fleet runs only in virtual time: its constructor
        rejects a wall clock, so no load generator ever sees one."""
        with pytest.raises(TypeError, match="FixedClock"):
            ServerFleet([_pipeline()], clock=wall_clock)
        fleet = ServerFleet([_pipeline(MetricsRegistry())])
        assert isinstance(fleet.clock, FixedClock)

    def test_report_roundtrips_to_json(self, tmp_path):
        from repro.observability import NULL_TRACER, write_artifacts
        from repro.observability.dashboard import ARTIFACT_LOADGEN

        report = self._run({"duration_s": 0.2})
        write_artifacts(
            str(tmp_path),
            NULL_TRACER,
            MetricsRegistry(),
            {ARTIFACT_LOADGEN: report.to_dict()},
        )
        path = tmp_path / ARTIFACT_LOADGEN
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(report.to_dict())
        )
        assert "arrival" not in report.to_dict()
        assert "loadgen: open loop, poisson arrivals" in report.summary()

    def test_summary_shows_fleet_lines_for_one_replica(self):
        report = self._run({"duration_s": 0.2})
        assert report.replicas == 1
        lines = report.summary().splitlines()
        assert (
            "  fleet: 1 replicas  retries 0  hedges 0 (wins 0, "
            "cancelled 0)  chaos events 0"
        ) in lines
        assert "  replica states: 0:healthy" in lines

    def test_rejections_are_counted_by_reason(self):
        report = self._run(
            {"rate": 2000.0, "duration_s": 0.2},
            max_queue_depth=16,
            max_wait_ms=200.0,
        )
        assert report.rejected > 0
        assert (
            report.rejection_reasons["queue_full"] == report.rejected
        )
        assert "rejections by reason" in report.summary()
        assert (
            report.to_dict()["rejection_reasons"]
            == report.rejection_reasons
        )

    def test_expiries_surface_as_deadline_reason(self):
        report = self._run(
            {"deadline_ms": 10.0, "duration_s": 0.3},
            max_batch_size=64,
            max_wait_ms=500.0,
        )
        assert report.expired > 0
        assert report.rejection_reasons["deadline"] == report.expired


class TestQueueRejectionReasons:
    def test_queue_tallies_typed_rejections(self, rng):
        queue = RequestQueue(max_depth=1)
        queue.put(_request(rng, "a"))
        with pytest.raises(QueueFullError):
            queue.put(_request(rng, "b"))
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.put(_request(rng, "c"))
        assert queue.rejected_by_reason == {
            "queue_full": 1,
            "closed": 1,
        }


class TestTelemetryWiring:
    def test_server_and_queue_report_to_the_pipeline_registry(self, rng):
        registry = MetricsRegistry()
        clock = FixedClock(0.0)
        server = InferenceServer(
            _pipeline(registry),
            ServingConfig(max_batch_size=4, max_wait_ms=10.0, workers=1),
            clock=clock,
        )
        assert server.metrics is registry
        assert server.queue.metrics is registry
        for _ in range(2):
            server.submit(rng.random((N_POINTS, 3)))
        clock.advance(0.05)
        assert len(server.pump()) == 1
        assert registry.counter("serving_admitted_total").value == 2
        assert registry.gauge("serving_queue_depth").value == 0.0
        assert registry.counter(
            "serving_batches_total", trigger="timeout"
        ).value == 1
        assert registry.histogram(
            "serving_batch_size_clouds"
        ).count == 1
        assert registry.counter("serving_completed_total").value == 2
        assert registry.counter("pipeline_batches_total").value == 1


class TestDrainTimeout:
    def test_stuck_worker_raises_typed_drain_error(self, rng):
        registry = MetricsRegistry()
        server = InferenceServer(
            _pipeline(registry),
            ServingConfig(workers=1, max_wait_ms=1.0),
        )
        server.start()
        release = threading.Event()
        stuck = threading.Thread(
            target=release.wait, name="stuck-worker", daemon=True
        )
        stuck.start()
        server._threads.append(stuck)
        try:
            with pytest.raises(DrainTimeoutError) as err:
                server.stop(timeout_s=0.2)
            assert "stuck-worker" in str(err.value)
            assert (
                registry.counter(
                    "serving_drain_timeouts_total"
                ).value
                == 1
            )
        finally:
            release.set()

    def test_clean_stop_does_not_raise(self, rng):
        server = InferenceServer(
            _pipeline(), ServingConfig(workers=1, max_wait_ms=1.0)
        )
        server.start()
        server.submit(rng.random((N_POINTS, 3)))
        server.stop(timeout_s=10.0)


class TestServerTracing:
    """PR 7: the single-server trace projection and exemplars."""

    def _traced_server(self):
        clock = FixedClock(0.0)
        tracer = Tracer(clock=clock)
        registry = MetricsRegistry()
        server = InferenceServer(
            _pipeline(registry, tracer=tracer),
            ServingConfig(max_batch_size=4, max_wait_ms=10.0, workers=1),
            clock=clock,
        )
        return server, clock, tracer, registry

    def _run(self, server, clock, rng, count=3):
        requests = [
            server.submit(rng.random((N_POINTS, 3)))
            for _ in range(count)
        ]
        clock.advance(0.05)
        server.pump()
        return requests

    def test_submit_mints_a_root_context(self, rng):
        server, clock, tracer, _ = self._traced_server()
        requests = self._run(server, clock, rng)
        for request in requests:
            assert request.ctx is not None
            assert request.ctx.is_root
            result = request.future.result()
            assert result.trace_id == request.ctx.trace_id

    def test_request_trace_covers_all_stages(self, rng):
        server, clock, tracer, _ = self._traced_server()
        requests = self._run(server, clock, rng)
        records = [span.to_dict() for span in tracer.finished()]
        assert find_orphans(records) == []
        grouped = spans_by_trace(records)
        assert len(grouped) == len(requests)
        for spans in grouped.values():
            names = [s["name"] for s in spans]
            for expected in (
                "request",
                "request.queue",
                "request.batch",
                "request.sample",
                "request.neighbor_search",
                "request.grouping",
                "request.feature_compute",
            ):
                assert expected in names, names

    def test_batch_span_links_back_to_dispatch(self, rng):
        server, clock, tracer, _ = self._traced_server()
        self._run(server, clock, rng)
        records = [span.to_dict() for span in tracer.finished()]
        dispatch_ids = {
            r["id"]
            for r in records
            if r["name"] == "serving.dispatch"
        }
        batch_spans = [
            r for r in records if r["name"] == "request.batch"
        ]
        assert batch_spans
        for span in batch_spans:
            links = span.get("links", [])
            assert links, span
            assert any(
                link[1] in dispatch_ids for link in links
            ), (links, dispatch_ids)

    def test_latency_histogram_records_exemplars(self, rng):
        server, clock, tracer, registry = self._traced_server()
        self._run(server, clock, rng)
        hist = registry.histogram(
            "serving_request_latency_seconds",
            buckets=REQUEST_LATENCY_BUCKETS,
        )
        assert hist.count == 3
        assert hist.exemplars
        for trace_id, value in hist.exemplars.values():
            assert trace_id.startswith("trace-r")
            assert value > 0.0

    def test_disabled_tracer_still_sets_no_trace_id(self, rng):
        clock = FixedClock(0.0)
        server = InferenceServer(
            _pipeline(),
            ServingConfig(max_batch_size=4, max_wait_ms=10.0, workers=1),
            clock=clock,
        )
        request = server.submit(rng.random((N_POINTS, 3)))
        assert request.ctx is None
        clock.advance(0.05)
        server.pump()
        assert request.future.result().trace_id == ""
