"""The benchmark's workloads: inputs, set-up, and the timed loops.

Inputs come from a fixed bank of generated clouds per workload (the
shipped references cover every bank cloud); ``--seed`` picks which bank
clouds each frame or request carries.  ``dgcnn-serve`` repeats one
fixed cycle of arrivals, so runs compare the same traffic.  The program
sees only the generated clouds.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import EdgePCConfig, EdgePCPipeline
from repro.datasets import ModelNetLike, S3DISLike, ScanNetLike
from repro.nn import DGCNNClassifier, PointNet2Segmentation
from repro.serving import AdmissionError, InferenceServer, ServingConfig

import reference

#: Seed of the generated input bank (not the ``--seed`` of a run).
BANK_SEED = 2023
#: Clouds in each workload's bank.
BANK_SIZE = {"pn2-seg-edgepc": 12, "pn2-seg-exact": 8, "dgcnn-serve": 16}
#: Clouds per closed-loop frame.
FRAME_BATCH = {"pn2-seg-edgepc": 4, "pn2-seg-exact": 1}
#: An operation counts towards ``goodput_rps`` when it completes
#: correctly within this limit: 2-4x the p90 measured when the benchmark
#: was added, so a stall counts and host noise does not.
LATENCY_LIMIT_MS = {
    "pn2-seg-edgepc": 1000.0,
    "pn2-seg-exact": 5000.0,
    "dgcnn-serve": 1000.0,
}
#: One cycle of ``dgcnn-serve`` arrivals, repeated for the whole run:
#: ``(offset_s, requests sent together)``.  Three lone requests (batches
#: of 1), a pair sent together (a batch of 2), and a triple sent 50 ms
#: after the pair was dispatched, so it queues behind that forward and
#: then runs as a batch of 3.  The classes hold 3/8, 2/8 and 3/8 of the
#: requests, so p50 is the middle of the pairs (batching window plus a
#: B=2 forward) and p90 lies inside the triples (the rest of the pair's
#: forward plus a B=3 one); the two differ by a B=3 forward less 100 ms.
#: A Poisson sample's p90 was instead set by a few chance overlaps whose
#: latency jumps with host speed.
SERVE_PATTERN = ((0.0, 1), (0.4, 1), (0.8, 1), (1.2, 2), (1.3, 3))
#: Cycle length: the triple is done by 1.25 s + B=2 + B=3 forward, which
#: on a shared 2-core x86-64 host took 0.43-0.82 s as its load varied.
#: So the server is idle before the next cycle, and every batch keeps
#: its size, on forwards up to ~1.7x slower than the slowest of these.
SERVE_CYCLE_S = 2.7
SERVING = ServingConfig(workers=1, max_batch_size=8, max_wait_ms=50.0)
#: How long to wait for the last served requests after the schedule.
DRAIN_TIMEOUT_S = 60.0
WORKLOADS = tuple(BANK_SIZE)


def bank(name: str) -> np.ndarray:
    """The ``(K, N, 3)`` input bank of workload ``name``."""
    size = BANK_SIZE[name]
    if name == "pn2-seg-edgepc":
        dataset = S3DISLike(size, points_per_cloud=4096, seed=BANK_SEED)
    elif name == "pn2-seg-exact":
        dataset = ScanNetLike(size, points_per_cloud=8192, seed=BANK_SEED)
    else:
        dataset = ModelNetLike(size, num_classes=40, seed=BANK_SEED)
    return np.stack([cloud.xyz for cloud in dataset])


def build_pipeline(name: str) -> EdgePCPipeline:
    """The model and pipeline under test, with fixed weights."""
    if name == "pn2-seg-edgepc":
        model = PointNet2Segmentation(
            13, edgepc=EdgePCConfig.paper_default()
        )
    elif name == "pn2-seg-exact":
        model = PointNet2Segmentation(13, edgepc=EdgePCConfig.baseline())
    else:
        model = DGCNNClassifier(40, edgepc=EdgePCConfig.paper_default())
    return EdgePCPipeline(model)


@dataclass
class LoopStats:
    """What one timed loop measured."""

    latencies_ms: List[float] = field(default_factory=list)
    sim_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    clouds: int = 0
    within_limit: int = 0
    wall_s: float = 0.0
    # Open loop only.
    send_late_ms: List[float] = field(default_factory=list)
    queue_wait_ms: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    rejected: int = 0
    backlog_end: int = 0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.latencies_ms, q))


# Closed loop -------------------------------------------------------------


def setup_closed(name: str, clouds: np.ndarray, refs) -> tuple:
    """Build the pipeline and run the first, cold frame.

    Returns ``(pipeline, seconds, output_ok)``.
    """
    batch = FRAME_BATCH[name]
    start = time.perf_counter()
    pipe = build_pipeline(name)
    result = pipe.infer(clouds[:batch])
    seconds = time.perf_counter() - start
    ok = all(refs.matches(i, result.logits[i]) for i in range(batch))
    return pipe, seconds, ok


def run_closed(
    name: str,
    pipe: EdgePCPipeline,
    clouds: np.ndarray,
    refs,
    rng: np.random.Generator,
    seconds: float,
) -> LoopStats:
    """One client: send the next frame when the previous one returns."""
    batch = FRAME_BATCH[name]
    limit_ms = LATENCY_LIMIT_MS[name]
    stats = LoopStats()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        picks = rng.choice(len(clouds), size=batch, replace=False)
        frame = clouds[picks]
        stats.attempted += 1
        sent = time.perf_counter()
        try:
            result = pipe.infer(frame)
        except Exception:
            # A failed frame is counted, not fatal: report it and go on.
            traceback.print_exc(file=sys.stderr)
            stats.failed += 1
            continue
        latency_ms = (time.perf_counter() - sent) * 1e3
        if not all(
            refs.matches(int(c), result.logits[j])
            for j, c in enumerate(picks)
        ):
            stats.failed += 1
            continue
        stats.latencies_ms.append(latency_ms)
        stats.sim_ms.append(result.latency_ms)
        stats.clouds += batch
        stats.within_limit += latency_ms <= limit_ms
    stats.wall_s = time.perf_counter() - start
    return stats


# Open loop ---------------------------------------------------------------


def setup_server(clouds: np.ndarray, refs) -> tuple:
    """Build and start the server and serve one cold, full micro-batch.

    A full batch is the largest forward the server can run, so the
    process's peak memory is set here rather than by whichever burst of
    arrivals a seed happens to draw.  Returns
    ``(server, seconds, output_ok)``.
    """
    size = SERVING.max_batch_size
    start = time.perf_counter()
    served = InferenceServer(build_pipeline("dgcnn-serve"), SERVING)
    served.start()
    requests = [served.submit(cloud) for cloud in clouds[:size]]
    results = [r.future.result(DRAIN_TIMEOUT_S) for r in requests]
    seconds = time.perf_counter() - start
    ok = all(refs.matches(i, r.logits) for i, r in enumerate(results))
    return served, seconds, ok


def run_open(
    served: InferenceServer,
    clouds: np.ndarray,
    refs,
    rng: np.random.Generator,
    seconds: float,
) -> LoopStats:
    """Send ``SERVE_PATTERN`` once per ``SERVE_CYCLE_S`` for ``seconds``.

    At least one cycle is sent.  Each request is timed from when it was
    due, so a stalled generator or a growing queue shows.
    """
    cycles = max(1, int(seconds / SERVE_CYCLE_S))
    offsets = [
        cycle * SERVE_CYCLE_S + offset
        for cycle in range(cycles)
        for offset, together in SERVE_PATTERN
        for _ in range(together)
    ]
    count = len(offsets)
    picks = rng.integers(len(clouds), size=count)
    limit_ms = LATENCY_LIMIT_MS["dgcnn-serve"]
    stats = LoopStats(attempted=count)
    done_at: List[Optional[float]] = [None] * count
    resolved = threading.Semaphore(0)
    futures: Dict[int, Future] = {}

    def on_done(i: int) -> None:
        done_at[i] = time.perf_counter()
        resolved.release()

    start = time.perf_counter()
    for i in range(count):
        due = start + offsets[i]
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        stats.send_late_ms.append((time.perf_counter() - due) * 1e3)
        try:
            request = served.submit(clouds[picks[i]])
        except AdmissionError:
            stats.rejected += 1
            continue
        request.future.add_done_callback(lambda _, i=i: on_done(i))
        futures[i] = request.future
    stats.backlog_end = sum(not f.done() for f in futures.values())
    give_up = time.perf_counter() + DRAIN_TIMEOUT_S
    for _ in futures:
        left = max(0.0, give_up - time.perf_counter())
        if not resolved.acquire(timeout=left):
            break
    last_done = start
    for i, future in futures.items():
        if done_at[i] is None or future.exception() is not None:
            continue
        result = future.result()
        if not refs.matches(int(picks[i]), result.logits):
            continue
        latency_ms = (done_at[i] - (start + offsets[i])) * 1e3
        stats.latencies_ms.append(latency_ms)
        stats.sim_ms.append(result.simulated_batch_s * 1e3
                            / result.batch_size)
        stats.queue_wait_ms.append(result.queue_wait_s * 1e3)
        stats.batch_sizes.append(result.batch_size)
        stats.clouds += 1
        stats.within_limit += latency_ms <= limit_ms
        last_done = max(last_done, done_at[i])
    stats.failed = count - stats.clouds
    stats.wall_s = last_done - start
    return stats
