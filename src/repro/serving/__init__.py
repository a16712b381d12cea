"""Serving layer: queue, server, fleet, chaos, load gen.

Turns the repro library into a runnable service.  Requests for single
``(N, 3)`` clouds are admitted by a bounded
:class:`~repro.serving.queue.RequestQueue`, which buckets them by
point count and forms rectangular ``(B, N, 3)`` micro-batches that
ride the batched kernel path, and dispatched by an
:class:`~repro.serving.server.InferenceServer` worker pool.  A
:class:`~repro.serving.fleet.ServerFleet` fronts N replicas (or one)
with consistent-hash routing, per-replica health tracking (eject,
probation, re-admit), deadline-aware retries, and hedging; the
:class:`~repro.serving.chaos.ChaosHarness` breaks replicas on a
deterministic virtual-time schedule to prove it, and the
:class:`~repro.serving.loadgen.FleetLoadGenerator` feeds seeded load
into the fleet's one virtual-time event loop
(:meth:`~repro.serving.fleet.ServerFleet.run`).  The fleet runs only
in virtual time, on one thread; threaded serving is one
:class:`~repro.serving.server.InferenceServer` and its worker pool.  Every layer reports
through the tracer and metrics registry of the pipelines it wraps;
none takes sinks of its own.  See ``docs/serving.md``.
"""

from repro.robustness.guard import InferenceRejectedError
from repro.serving.chaos import (
    CHAOS_ACTIONS,
    ChaosEvent,
    ChaosGate,
    ChaosHarness,
    ChaosSchedule,
    ReplicaFaultError,
    parse_chaos_event,
)
from repro.serving.fleet import (
    Dispatch,
    FleetConfig,
    FleetRequest,
    NoHealthyReplicaError,
    Replica,
    Router,
    ServerFleet,
)
from repro.serving.health import ReplicaHealth
from repro.serving.loadgen import (
    FleetLoadGenerator,
    LoadGenConfig,
    LoadReport,
)
from repro.serving.queue import (
    BATCH_SIZE_BUCKETS,
    AdmissionError,
    DeadlineExceededError,
    MicroBatch,
    QueueClosedError,
    QueueFullError,
    RequestQueue,
    ServingRequest,
)
from repro.serving.retry import (
    HedgePolicy,
    RetryExhaustedError,
    RetryPolicy,
)
from repro.serving.server import (
    DispatchRecord,
    DrainTimeoutError,
    InferenceServer,
    ServedResult,
    ServingConfig,
)

__all__ = [
    "AdmissionError",
    "BATCH_SIZE_BUCKETS",
    "Dispatch",
    "CHAOS_ACTIONS",
    "ChaosEvent",
    "ChaosGate",
    "ChaosHarness",
    "ChaosSchedule",
    "DeadlineExceededError",
    "DispatchRecord",
    "DrainTimeoutError",
    "FleetConfig",
    "FleetLoadGenerator",
    "FleetRequest",
    "HedgePolicy",
    "InferenceRejectedError",
    "InferenceServer",
    "LoadGenConfig",
    "LoadReport",
    "MicroBatch",
    "NoHealthyReplicaError",
    "QueueClosedError",
    "QueueFullError",
    "Replica",
    "ReplicaFaultError",
    "ReplicaHealth",
    "RequestQueue",
    "RetryExhaustedError",
    "RetryPolicy",
    "Router",
    "ServedResult",
    "ServerFleet",
    "ServingConfig",
    "ServingRequest",
    "parse_chaos_event",
]
