#!/usr/bin/env python3
"""Host-measured benchmark of the EdgePC reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pn2-seg-edgepc --seed 1 \\
        --seconds 30 --trace 0

Runs one workload in this process against the NumPy models in ``src/``
and prints, as the last line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, from a run whose second
half has span wrappers installed (see ``spans.py``); the spans are also
written to ``.perfbench_out/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

# One compute thread: on a small shared host, BLAS helper threads make
# every forward wait on the busiest core.  Must be set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up is repeated and its median reported, to steady ``setup_s``.
SETUP_REPEATS = 5


def add_source_path() -> None:
    """Put the checkout's ``src`` first on the import path, or exit."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))


def declared_metrics(section: str) -> dict:
    """``{name: unit}`` of one metric list in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Session:
    """One workload's inputs, references and the pipeline or server."""

    def __init__(self, name: str, seed: int, repeats: int) -> None:
        import numpy as np

        import reference
        import workloads

        self.name = name
        self.serving = name == "dgcnn-serve"
        self.clouds = workloads.bank(name)
        self.refs = reference.load(name)
        self.rng = np.random.default_rng(seed)
        self.setup_s = []
        self.setup_ok = True
        self.target = None
        for _ in range(repeats):
            self.close()
            if self.serving:
                self.target, seconds, ok = workloads.setup_server(
                    self.clouds, self.refs
                )
            else:
                self.target, seconds, ok = workloads.setup_closed(
                    name, self.clouds, self.refs
                )
            self.setup_s.append(seconds)
            self.setup_ok &= ok
        if not self.serving:
            # One untimed frame lets the workspace reach its steady sizes.
            batch = workloads.FRAME_BATCH[name]
            self.target.infer(self.clouds[batch:2 * batch])

    def run(self, seconds: float):
        import workloads

        if self.serving:
            return workloads.run_open(
                self.target, self.clouds, self.refs, self.rng, seconds
            )
        return workloads.run_closed(
            self.name, self.target, self.clouds, self.refs, self.rng,
            seconds,
        )

    def close(self) -> None:
        if self.serving and self.target is not None:
            self.target.stop()
        self.target = None


def end_to_end(session: Session, stats) -> dict:
    return {
        "latency_ms_p50": stats.percentile(50),
        "latency_ms_p90": stats.percentile(90),
        "clouds_per_s": stats.clouds / stats.wall_s,
        "goodput_rps": stats.within_limit / stats.wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(session.setup_s),
    }


def per_layer(session: Session, plain, traced, records) -> dict:
    import numpy as np

    import spans

    metrics = spans.layer_metrics(records)
    attempted = plain.attempted + traced.attempted
    metrics["failed_frac"] = (plain.failed + traced.failed) / attempted
    metrics["sim_latency_ms"] = statistics.median(plain.sim_ms + traced.sim_ms)
    dispatch_ms = [s * 1e3 for s in spans.dispatch_durations(records)]
    serving = session.serving
    server_stats = session.target.stats() if serving else {}
    metrics.update({
        "serving.queue_wait_ms_p50": (
            float(np.median(traced.queue_wait_ms)) if serving else 0.0
        ),
        "serving.dispatch_ms_p50": (
            float(np.median(dispatch_ms)) if dispatch_ms else 0.0
        ),
        "serving.batch_size_mean": (
            float(np.mean(traced.batch_sizes)) if serving else 0.0
        ),
        "serving.busy_frac": (
            sum(dispatch_ms) / 1e3 / traced.wall_s if serving else 0.0
        ),
        "serving.rejected": float(plain.rejected + traced.rejected),
        "serving.expired": server_stats.get("expired", 0.0),
        "serving.backlog_end": float(traced.backlog_end),
        "bench.send_late_ms_p50": (
            float(np.median(traced.send_late_ms)) if serving else 0.0
        ),
        "bench.send_late_ms_max": (
            max(traced.send_late_ms) if serving else 0.0
        ),
        "bench.trace_overhead_frac": (
            traced.percentile(50) / plain.percentile(50) - 1.0
        ),
        "bench.ops": float(traced.attempted),
    })
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.observability.tracing import find_orphans

    import spans

    session = Session(name, seed, 1 if trace else SETUP_REPEATS)
    try:
        if not trace:
            stats = session.run(seconds)
            metrics = end_to_end(session, stats)
            attempted, failed = stats.attempted, stats.failed
            correct = session.setup_ok and failed == 0
            section = "end_to_end"
        else:
            plain = session.run(seconds / 2)
            layer_tracer = spans.LayerTracer()
            layer_tracer.install()
            try:
                traced = session.run(seconds / 2)
            finally:
                layer_tracer.uninstall()
            records = layer_tracer.records()
            OUT_DIR.mkdir(exist_ok=True)
            layer_tracer.tracer.export_jsonl(
                str(OUT_DIR / f"trace-{name}-seed{seed}.jsonl")
            )
            orphans = find_orphans(records)
            if orphans:
                print(f"perfbench: {len(orphans)} orphan spans",
                      file=sys.stderr)
            metrics = per_layer(session, plain, traced, records)
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            correct = session.setup_ok and failed == 0 and not orphans
            section = "per_layer"
    finally:
        session.close()
    units = declared_metrics(section)
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"{sorted(mismatch)}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            key: {"value": float(metrics[key]), "unit": unit}
            for key, unit in units.items()
        },
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("pn2-seg-edgepc", "pn2-seg-exact", "dgcnn-serve"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> None:
    args = parse_args(argv)
    add_source_path()
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
