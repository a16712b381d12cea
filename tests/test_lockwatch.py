"""Tests for the runtime lock-order sanitizer (LockOrderWatchdog).

Unit-level: proxy bookkeeping (order edges, inversions, plain-Lock
re-entry refusal, Condition reentrancy and wait suspension, hold-time
metrics).  Integration-level: a threaded hammer drives a real
``InferenceServer`` — two submitter threads racing two workers, and a
non-draining stop cancelling the backlog mid-burst — under the
watchdog, and the observed acquisition order must neither invert at
runtime nor contradict the static CONC-502 lock-order graph.
"""

import threading

import numpy as np
import pytest

from repro.core import EdgePCConfig
from repro.nn import PointNet2Segmentation, SAConfig
from repro.observability.metrics import MetricsRegistry
from repro.pipeline import EdgePCPipeline
from repro.robustness.lockwatch import (
    LockOrderViolation,
    LockOrderWatchdog,
    static_lock_order,
)
from repro.serving import AdmissionError, InferenceServer, ServingConfig

N_POINTS = 32


def _pipeline(seed=0):
    model = PointNet2Segmentation(
        num_classes=3,
        sa_configs=(SAConfig(0.5, 4, 1.5, (8, 8)),),
        edgepc=EdgePCConfig.paper_default(),
        head_hidden=8,
        rng=np.random.default_rng(seed),
    )
    return EdgePCPipeline(model)


class TestWatchdogUnit:
    def test_consistent_order_is_clean(self):
        wd = LockOrderWatchdog(static_edges=[("A", "B")])
        a = wd.wrap_lock(threading.Lock(), "A")
        b = wd.wrap_lock(threading.Lock(), "B")
        for _ in range(3):
            with a:
                with b:
                    pass
        report = wd.report()
        assert report.edges == [("A", "B", 3)]
        assert report.violations == []
        assert report.contradictions == []
        wd.check()  # does not raise

    def test_inversion_is_a_violation(self):
        wd = LockOrderWatchdog()
        a = wd.wrap_lock(threading.Lock(), "A")
        b = wd.wrap_lock(threading.Lock(), "B")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        report = wd.report()
        assert len(report.violations) == 1
        assert "inversion" in report.violations[0]
        with pytest.raises(LockOrderViolation):
            wd.check()

    def test_contradiction_against_static_graph(self):
        # Static graph: A before B (via a path through M).  Observing
        # B -> A at runtime contradicts it even though the exact
        # reverse edge was never declared.
        wd = LockOrderWatchdog(
            static_edges=[("A", "M"), ("M", "B")]
        )
        a = wd.wrap_lock(threading.Lock(), "A")
        b = wd.wrap_lock(threading.Lock(), "B")
        with b:
            with a:
                pass
        report = wd.report()
        assert len(report.contradictions) == 1
        assert report.violations == []
        with pytest.raises(LockOrderViolation):
            wd.check()

    def test_plain_lock_reentry_refuses_instead_of_deadlocking(self):
        wd = LockOrderWatchdog()
        lock = wd.wrap_lock(threading.Lock(), "L")
        lock.acquire()
        with pytest.raises(LockOrderViolation):
            lock.acquire()
        lock.release()
        assert len(wd.report().violations) == 1

    def test_condition_reentry_and_wait_are_clean(self):
        wd = LockOrderWatchdog()
        cond = wd.wrap_condition(threading.Condition(), "C")
        state = {"ready": False}

        def producer():
            with cond:
                state["ready"] = True
                cond.notify_all()

        with cond:
            with cond:  # reentrant: no violation, no self-edge
                pass
            thread = threading.Thread(target=producer)
            thread.start()
            assert cond.wait_for(
                lambda: state["ready"], timeout=5.0
            )
        thread.join()
        report = wd.report()
        assert report.violations == []
        assert report.edges == []

    def test_metrics_record_acquisitions_and_holds(self):
        registry = MetricsRegistry()
        wd = LockOrderWatchdog(metrics=registry)
        lock = wd.wrap_lock(threading.Lock(), "L")
        with lock:
            pass
        assert (
            registry.counter(
                "lockwatch_acquisitions_total", lock="L"
            ).value
            == 1
        )
        histogram = registry.histogram(
            "lockwatch_hold_seconds", lock="L"
        )
        assert histogram.count == 1

    def test_wrapping_is_idempotent(self):
        wd = LockOrderWatchdog()
        lock = wd.wrap_lock(threading.Lock(), "L")
        assert wd.wrap_lock(lock, "L") is lock
        cond = wd.wrap_condition(threading.Condition(), "C")
        assert wd.wrap_condition(cond, "C") is cond

    def test_second_watchdog_chains_onto_the_first(self):
        first, second = LockOrderWatchdog(), LockOrderWatchdog()
        lock = second.wrap_lock(first.wrap_lock(threading.Lock(), "L"), "L")
        cond = second.wrap_condition(
            first.wrap_condition(threading.Condition(), "C"), "C"
        )
        with cond:
            with lock:
                cond.notify_all()
            cond.wait(timeout=0.0)
        for wd in (first, second):
            report = wd.report()
            assert report.acquisitions == {"C": 1, "L": 1}
            assert report.edges == [("C", "L", 1)]
            assert report.violations == []


class TestStaticGraphExport:
    def test_static_lock_order_covers_the_serving_stack(self):
        edges = static_lock_order()
        before = {a for a, _ in edges}
        assert "RequestQueue.condition" in before
        # The graph the watchdog validates against must be acyclic.
        assert not {(b, a) for a, b in edges} & set(edges)


class TestThreadedHammer:
    """Real threads under the sanitizer: zero violations."""

    def test_server_hammer_has_no_order_violations(self, rng):
        # Under REPRO_LOCKWATCH=1 the session sanitizer already wraps
        # the server's locks at construction; this watchdog wraps its
        # proxies, so both observe every acquire.
        registry = MetricsRegistry()
        watchdog = LockOrderWatchdog(
            static_edges=static_lock_order(), metrics=registry
        )
        server = InferenceServer(
            _pipeline(seed=0),
            ServingConfig(max_batch_size=4, max_wait_ms=5.0, workers=2),
        )
        watchdog.instrument_server(server)
        clouds = [rng.random((N_POINTS, 3)) for _ in range(24)]
        requests = []
        requests_lock = threading.Lock()
        halfway = threading.Event()

        def submitter(offset):
            for index in range(offset, len(clouds), 2):
                if index >= len(clouds) // 2:
                    halfway.set()
                try:
                    request = server.submit(clouds[index])
                except AdmissionError:
                    continue  # closed by the stop mid-burst
                with requests_lock:
                    requests.append(request)

        server.start()
        threads = [
            threading.Thread(target=submitter, args=(offset,))
            for offset in range(2)
        ]
        for thread in threads:
            thread.start()
        halfway.wait(timeout=15.0)
        # Non-draining stop mid-burst: cancel_backlog races the
        # workers' next_batch and the submitters' put.
        server.stop(drain=False)
        for thread in threads:
            thread.join()
        for request in requests:
            try:
                request.future.result(timeout=15.0)
            except Exception:
                pass  # cancellations are fine; order is not
        report = watchdog.report()
        assert report.violations == []
        assert report.contradictions == []
        assert sum(report.acquisitions.values()) > 0
        # Whatever order edges the run produced, none may invert.
        observed = {(a, b) for a, b, _ in report.edges}
        assert not {(b, a) for a, b in observed} & observed
        watchdog.check()  # the loud-failure path stays quiet
