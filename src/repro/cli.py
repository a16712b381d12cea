"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``workloads`` — print the Table 1 workload definitions;
- ``compare``  — baseline-vs-EdgePC speedups and energy for one or all
  workloads (Fig. 13 view);
- ``sample``   — run a real sampler (fps / morton / uniform) on a
  point-cloud file (or a seeded synthetic cloud) and write the
  result; ``--guard`` falls back to exact FPS when the Morton
  sample's density-uniformity probe trips;
- ``sweep``    — the Fig. 15a window-size sensitivity table on a file
  or a synthetic cloud;
- ``report``   — the one-shot headline summary: Fig. 3 breakdown,
  Fig. 13 speedups/energy for all configs, and Table 2;
- ``trace``    — per-stage latency breakdown of the Table 1 workloads
  under a configuration (``--config baseline`` is the Fig. 3 view),
  with a run report of per-stage medians;
- ``serve``    — threaded micro-batching serving demo under the
  runtime lock-order sanitizer: submit a burst of seeded clouds to one
  in-process :class:`InferenceServer`, drain gracefully, print the
  server counters and the watchdog summary, and exit 1 on any
  lock-order violation or contradiction with the static CONC-502
  graph;
- ``loadgen``  — deterministic virtual-time load generation against an
  in-process replica fleet, optionally killing/stalling/slowing
  replicas on a virtual ``--event`` schedule and evaluating an SLO
  spec (``--slo``); reports admission decisions, batch-size
  histogram, latency percentiles, and goodput, and writes the
  dashboard artifact bundle (``--artifacts-dir``; see
  ``docs/serving.md``);
- ``partition`` — scene-scale scatter/gather: Morton-chunk one
  tiled-room scene with a receptive-field halo, run it through the
  partitioned pipeline, verify the stitch, and report;
- ``dashboard`` — render the deterministic text dashboard (fleet
  counters, replica health, SLO budgets, the partitioned scene,
  slowest traces) from a saved artifact bundle;
- ``lint``     — project-aware static analysis.

``compare``, ``trace``, ``partition``, ``serve`` and ``loadgen``
export their telemetry with ``--artifacts-dir DIR``, their one export
flag: one bundle of ``metrics.json``, ``trace.jsonl``, the Chrome
trace ``trace.json`` and the command's own report
(:func:`repro.observability.write_artifacts`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis import format_breakdown_row, format_comparison_row
from repro.core import EdgePCConfig, MortonSampler
from repro.core.dse import explore_window_sizes
from repro.geometry import io as pc_io
from repro.observability import (
    MetricsRegistry,
    NULL_TRACER,
    RunReport,
    Tracer,
    emit_stage_spans,
    write_artifacts,
)
from repro.observability.dashboard import (
    ARTIFACT_LOADGEN,
    ARTIFACT_PARTITION,
    ARTIFACT_RUN_REPORT,
    ARTIFACT_SLO,
)
from repro.pipeline import record_priced_batch
from repro.robustness.guard import GuardThresholds
from repro.runtime import PipelineProfiler, compare
from repro.sampling import farthest_point_sample, uniform_sample
from repro.workloads import standard_workloads, trace

CONFIGS = {
    "baseline": EdgePCConfig.baseline,
    "edgepc": EdgePCConfig.paper_default,
    "tensorcores": EdgePCConfig.paper_with_tensor_cores,
    "insights": EdgePCConfig.with_architectural_insights,
}


def _resolve_workloads(name: str):
    specs = standard_workloads()
    if name == "all":
        return specs
    if name not in specs:
        raise SystemExit(
            f"unknown workload {name!r}; choose from "
            f"{', '.join(specs)} or 'all'"
        )
    return {name: specs[name]}


# Telemetry plumbing ---------------------------------------------------------


def _telemetry(args, clock=None) -> Tuple[Tracer, MetricsRegistry]:
    """Tracer/registry pair for one CLI invocation.

    The tracer is enabled only when the invocation saves a bundle
    (``--artifacts-dir``), so un-instrumented runs stay on the no-op
    path.  Virtual-time commands pass their ``FixedClock`` so span
    timestamps live on the simulated timeline and exports are
    byte-identical per seed.
    """
    if not args.artifacts_dir:
        return NULL_TRACER, MetricsRegistry()
    tracer = Tracer(clock=clock) if clock is not None else Tracer()
    return tracer, MetricsRegistry()


def _save_bundle(args, tracer: Tracer, registry, reports=None) -> None:
    """Write the ``--artifacts-dir`` bundle, if one was asked for."""
    if args.artifacts_dir:
        write_artifacts(args.artifacts_dir, tracer, registry, reports)
        print(f"wrote dashboard artifacts -> {args.artifacts_dir}")


def _add_artifacts_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--artifacts-dir", default=None, metavar="DIR",
        help="write the run's artifact bundle to DIR: metrics.json, "
        "trace.jsonl, the Chrome trace trace.json (chrome://tracing "
        "or Perfetto) and the command's report; `repro dashboard "
        "--from DIR` renders it",
    )


def _smoke_workloads(
    workload: str, config_label: str, tracer: Tracer, registry
):
    """Price the selected Table 1 workloads under one config, emitting
    spans and metrics; returns ``[(name, breakdown, energy)]``."""
    config = CONFIGS[config_label]()
    profiler = PipelineProfiler()
    results = []
    for name, spec in _resolve_workloads(workload).items():
        with tracer.span(f"workload.{name}", "workload") as span:
            recorder = trace(spec, config)
            breakdown = profiler.breakdown(recorder, config)
            energy = profiler.energy(recorder, config)
            span.set("config", config_label)
            span.set("ops", len(recorder))
            span.add_cost(breakdown.total_s)
        emit_stage_spans(tracer, breakdown)
        record_priced_batch(
            registry, spec.batch_size, breakdown, energy, recorder
        )
        results.append((name, breakdown, energy))
    return results


def cmd_workloads(args: argparse.Namespace) -> int:
    print(
        f"{'Workload':<10}{'Model':<12}{'Dataset':<13}"
        f"{'Points':>8}{'Batch':>7}  Task"
    )
    for name, spec in standard_workloads().items():
        print(
            f"{name:<10}{spec.model:<12}{spec.dataset:<13}"
            f"{spec.points_per_batch:>8}{spec.batch_size:>7}  "
            f"{spec.task.replace('_', ' ')}"
        )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    baseline = EdgePCConfig.baseline()
    optimized = CONFIGS[args.config]()
    if optimized.is_baseline:
        raise SystemExit("compare needs a non-baseline --config")
    tracer, registry = _telemetry(args)
    profiler = PipelineProfiler()
    for name, spec in _resolve_workloads(args.workload).items():
        with tracer.span(f"compare.{name}", "workload") as span:
            report = compare(
                profiler,
                trace(spec, baseline), baseline,
                trace(spec, optimized), optimized,
            )
            span.set("config", args.config)
            span.add_cost(report.optimized.total_s)
        emit_stage_spans(tracer, report.optimized)
        registry.gauge(
            "compare_end_to_end_speedup", workload=name
        ).set(report.end_to_end_speedup)
        registry.gauge(
            "compare_energy_saving_fraction", workload=name
        ).set(report.energy_saving_fraction)
        print(format_comparison_row(name, report))
    _save_bundle(args, tracer, registry)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    from repro.geometry.points import PointCloud
    from repro.robustness import (
        CloudValidationError,
        ValidationPolicy,
        sanitize_cloud,
    )

    if args.input:
        cloud = pc_io.load(args.input)
    else:
        rng = np.random.default_rng(args.seed)
        cloud = PointCloud(rng.random((args.points, 3)))
        print(
            f"no input file; sampling a synthetic cloud of "
            f"{len(cloud)} points (seed {args.seed})"
        )
    policy = ValidationPolicy(
        on_invalid=args.validation_policy,
        min_points=args.num_samples,
    )
    try:
        xyz, report = sanitize_cloud(cloud.xyz, policy)
    except CloudValidationError as err:
        raise SystemExit(f"input rejected: {err}")
    if not report.ok:
        print(f"sanitized input: {report.summary()}")
        if report.dropped:
            # Point identities changed; per-point labels no longer line
            # up, so continue with coordinates only.
            cloud = PointCloud(xyz)
        else:
            cloud = PointCloud(xyz, labels=cloud.labels)
    n = args.num_samples
    if not 1 <= n <= len(cloud):
        raise SystemExit(
            f"--num-samples must be in [1, {len(cloud)}]"
        )
    if args.method == "fps":
        indices = farthest_point_sample(cloud.xyz, n, start_index=0)
    elif args.method == "morton":
        indices = MortonSampler().sample_batch(
            cloud.xyz[None], n
        ).indices[0]
        if args.guard:
            from repro.sampling.quality import density_uniformity

            cv = density_uniformity(cloud.xyz, indices)
            threshold = GuardThresholds().max_density_cv
            if cv > threshold:
                print(
                    f"guard: Morton sample density CV {cv:.2f} "
                    f"exceeds {threshold:.2f}; "
                    "falling back to exact FPS"
                )
                indices = farthest_point_sample(
                    cloud.xyz, n, start_index=0
                )
            else:
                print(
                    f"guard: Morton sample density CV {cv:.2f} "
                    f"within {threshold:.2f}"
                )
    else:
        indices = uniform_sample(cloud.xyz, n)
    sampled = cloud.select(indices)
    if args.output:
        pc_io.save(sampled, args.output)
        print(
            f"sampled {n} of {len(cloud)} points with "
            f"{args.method} -> {args.output}"
        )
    else:
        print(
            f"sampled {n} of {len(cloud)} points with "
            f"{args.method} (no output file given; result not saved)"
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.input:
        cloud = pc_io.load(args.input).xyz
    else:
        rng = np.random.default_rng(args.seed)
        cloud = rng.random((args.points, 3))
    rng = np.random.default_rng(args.seed)
    queries = rng.choice(
        len(cloud), min(len(cloud), 512), replace=False
    )
    points = explore_window_sizes(
        cloud, k=args.k,
        multipliers=(1, 2, 4, 8, 16),
        query_indices=queries,
    )
    print(f"{'W':>6}{'FNR':>9}{'speedup':>10}")
    for p in points:
        print(
            f"{p.window:>6}{p.false_neighbor_ratio * 100:>8.1f}%"
            f"{p.search_speedup:>9.1f}x"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    profiler = PipelineProfiler()
    baseline = EdgePCConfig.baseline()
    specs = standard_workloads()

    baselines = {name: trace(spec, baseline) for name, spec in specs.items()}

    print("=== Baseline latency breakdown (Fig. 3) ===")
    for name, recorder in baselines.items():
        breakdown = profiler.breakdown(recorder, baseline)
        print(format_breakdown_row(name, breakdown))

    for label in ("edgepc", "tensorcores", "insights"):
        config = CONFIGS[label]()
        print(f"\n=== {label} vs baseline (Fig. 13) ===")
        sn, e2e, energy = [], [], []
        for name, spec in specs.items():
            report = compare(
                profiler,
                baselines[name], baseline,
                trace(spec, config), config,
            )
            sn.append(report.sample_neighbor_speedup)
            e2e.append(report.end_to_end_speedup)
            energy.append(report.energy_saving_fraction)
            print(format_comparison_row(name, report))
        print(
            f"avg   S+N {sum(sn) / len(sn):5.2f}x | "
            f"E2E {sum(e2e) / len(e2e):5.2f}x | "
            f"energy saved {sum(energy) / len(energy) * 100:5.1f}%"
        )

    from repro.baselines import as_table

    print("\n=== Prior-work comparison (Table 2) ===")
    print(as_table())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Price the selected workloads under one config, print their
    per-stage breakdown rows (``--config baseline`` is the Fig. 3
    view) and medians, and save the run's bundle."""
    tracer = Tracer()
    registry = MetricsRegistry()
    results = _smoke_workloads(
        args.workload, args.config, tracer, registry
    )
    for name, breakdown, _ in results:
        print(format_breakdown_row(f"{name} ({args.config})", breakdown))
    spans = tracer.finished()
    print(
        f"traced {len(results)} workload(s) under {args.config}: "
        f"{len(spans)} spans, {len(registry)} metric series"
    )
    report = RunReport.build(
        breakdowns=[b for _, b, _ in results],
        energies=[e for _, _, e in results],
        command="trace",
        workload=args.workload,
        config=args.config,
    )
    _save_bundle(
        args, tracer, registry, {ARTIFACT_RUN_REPORT: report.to_dict()}
    )
    for stage, seconds in report.stage_medians_s().items():
        print(f"  median {stage:<12} {seconds * 1e3:9.2f} ms")
    return 0


def _serving_pipeline(seed: int, guard: bool, tracer, registry):
    """Demo pipeline for ``serve``/``loadgen``: a small PointNet++
    segmentation model, optionally guarded."""
    from repro.nn import PointNet2Segmentation, SAConfig
    from repro.pipeline import EdgePCPipeline
    from repro.robustness.guard import Guard

    model = PointNet2Segmentation(
        num_classes=4,
        sa_configs=(
            SAConfig(0.5, 4, 1.5, (8, 8)),
            SAConfig(0.5, 4, 3.0, (16, 16)),
        ),
        edgepc=EdgePCConfig.paper_default(),
        head_hidden=8,
        rng=np.random.default_rng(seed),
    )
    return EdgePCPipeline(
        model,
        guard=Guard(seed=seed) if guard else None,
        tracer=tracer,
        metrics=registry,
    )


def _serving_config(args):
    from repro.serving import ServingConfig

    return ServingConfig(
        max_queue_depth=args.queue_depth,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        workers=args.workers,
    )


def _build_fleet(args, tracer, registry, clock):
    """N identical replicas (same seed) behind the fleet router, on
    the virtual ``clock``."""
    from repro.serving import (
        FleetConfig,
        HedgePolicy,
        RetryPolicy,
        ServerFleet,
    )

    pipelines = [
        _serving_pipeline(args.seed, args.guard, tracer, registry)
        for _ in range(args.replicas)
    ]
    config = FleetConfig(
        retry=RetryPolicy(max_attempts=args.retries),
        hedge=(
            None
            if args.hedge_ms is None
            else HedgePolicy(min_delay_s=args.hedge_ms / 1e3)
        ),
    )
    return ServerFleet(
        pipelines,
        config=config,
        serving_config=_serving_config(args),
        clock=clock,
    )


def cmd_partition(args: argparse.Namespace) -> int:
    """Scene-scale scatter/gather demo on a tiled-room scene.

    Partitions one ``--points``-sized scene into Morton chunks with a
    receptive-field halo and runs it end-to-end through
    :class:`~repro.partition.PartitionedPipeline`.  Every run
    re-verifies the stitch identity on a single-chunk control scene,
    checks the trace for orphan spans, and saves a deterministic JSON
    report (``partition.json``) in the ``--artifacts-dir`` bundle
    (FixedClock timeline + seeded scene, so same-seed bundles are
    byte-identical).
    """
    from repro.observability.clock import FixedClock
    from repro.observability.tracing import find_orphans
    from repro.partition import (
        PartitionedPipeline,
        ScenePartitioner,
        price_partition,
        scene_tuned_pipeline,
    )

    clock = FixedClock(0.0)
    tracer = Tracer(clock=clock)
    registry = MetricsRegistry()
    scene = _load_scene(args)
    partitioner = ScenePartitioner(
        chunk_points=args.chunk_points, halo_width=args.halo_width
    )
    pipeline = scene_tuned_pipeline(
        args.seed, args.halo_width, tracer, registry
    )
    partitioned = PartitionedPipeline(
        pipeline,
        partitioner=partitioner,
        max_chunks_per_batch=args.max_chunks_per_batch,
    )

    # Stitch-identity control: a single-chunk scene must be
    # byte-identical to the direct pipeline.
    control = scene.xyz[: min(args.chunk_points, scene.xyz.shape[0])]
    control_direct = pipeline.infer(control)
    control_part = partitioned.infer(control)
    control_ok = bool(
        np.array_equal(control_part.logits, control_direct.logits[0])
    )
    print(
        f"control identity ({control.shape[0]} points): "
        f"{'ok' if control_ok else 'MISMATCH'}"
    )

    plan = partitioner.plan(scene.xyz)
    pricing = price_partition(pipeline, scene.xyz, plan)
    print(
        f"plan: {plan.num_chunks} chunks x {plan.chunk_size} points "
        f"(halo ratio {plan.halo_ratio:.2f})"
    )

    report: dict = {
        "params": {
            "points": int(scene.xyz.shape[0]),
            "chunk_points": args.chunk_points,
            "halo_width": args.halo_width,
            "seed": args.seed,
        },
        "plan": {
            "num_chunks": plan.num_chunks,
            "chunk_size": plan.chunk_size,
            "halo_ratio": plan.halo_ratio,
            "halo_points_total": plan.halo_points_total,
        },
        "pricing": {
            "chunked_s": pricing.chunked_s,
            "monolithic_s": pricing.monolithic_s,
            "speedup": pricing.speedup,
            "per_chunk_s": pricing.per_chunk_s,
        },
        "control": {
            "points": int(control.shape[0]),
            "identical": control_ok,
        },
    }

    result = partitioned.infer(scene.xyz)
    report["result"] = {
        "simulated_s": result.simulated_s,
        "energy_j": result.energy_j,
        "degraded": list(result.degraded_stages),
    }
    print(
        f"partitioned inference: {result.num_points} points, "
        f"{result.simulated_s:.3f} simulated s"
    )

    report["predictions"] = {
        "histogram": np.bincount(
            result.predictions, minlength=13
        ).tolist(),
    }

    rows = [span.to_dict() for span in tracer.finished()]
    orphans = find_orphans(rows)
    roots = [
        row
        for row in rows
        if row.get("name") == "partition.infer"
        and row.get("parent") is None
    ]
    # The scene's root is the last one (the control's comes first).
    batch_chunks = sum(
        row["attrs"]["chunks"]
        for row in rows
        if row.get("name") == "partition.batch"
        and row.get("parent") == roots[-1]["id"]
    )
    report["trace"] = {
        "spans": len(rows),
        "orphan_spans": len(orphans),
        "partition_roots": len(roots),
        "batch_chunks": batch_chunks,
    }
    print(
        f"trace: {len(rows)} spans, {len(orphans)} orphans, "
        f"{len(roots)} partition root(s), {batch_chunks} chunks batched"
    )

    _save_bundle(args, tracer, registry, {ARTIFACT_PARTITION: report})
    if not control_ok:
        print("control identity check failed", file=sys.stderr)
        return 1
    if orphans:
        print("trace contains orphan spans", file=sys.stderr)
        return 1
    return 0


def _load_scene(args):
    """The seeded tiled-room scene for ``repro partition``."""
    from repro.datasets import make_scene

    return make_scene(args.points, seed=args.seed)


def cmd_serve(args: argparse.Namespace) -> int:
    """Threaded serving demo under the runtime lock-order sanitizer.

    Burst-submits seeded clouds to one threaded
    :class:`~repro.serving.server.InferenceServer` whose locks are
    :class:`~repro.robustness.lockwatch.LockOrderWatchdog` proxies,
    drains it gracefully, then prints the server counters and the
    observed lock-order edges.  Exits 1 on any runtime order violation
    or contradiction with the static CONC-502 lock-order graph.
    """
    from repro.robustness.lockwatch import (
        LockOrderWatchdog,
        static_lock_order,
    )
    from repro.serving import AdmissionError, InferenceServer

    tracer, registry = _telemetry(args)
    server = InferenceServer(
        _serving_pipeline(args.seed, args.guard, tracer, registry),
        _serving_config(args),
    )
    watchdog = LockOrderWatchdog(
        static_edges=static_lock_order(), metrics=registry
    )
    watchdog.instrument_server(server)
    rng = np.random.default_rng(args.seed)
    deadline_s = (
        None if args.deadline_ms is None else args.deadline_ms / 1e3
    )
    with server:
        for _ in range(args.requests):
            try:
                server.submit(
                    rng.random((args.points, 3)), deadline_s=deadline_s
                )
            except AdmissionError:
                pass  # counted in the server's ``rejected``
    print(
        f"served {args.requests} requests with {args.workers} "
        f"worker(s), max batch {args.max_batch_size}, window "
        f"{args.max_wait_ms:.0f} ms"
    )
    print(
        "  "
        + "  ".join(
            f"{key} {value:.4g}" for key, value in server.stats().items()
        )
    )
    report = watchdog.report()
    print(
        f"lockwatch: {sum(report.acquisitions.values())} "
        f"acquisition(s) across {len(report.acquisitions)} lock(s), "
        f"{len(report.edges)} observed order edge(s), "
        f"{len(report.static_edges)} static edge(s), "
        f"{len(report.violations)} violation(s), "
        f"{len(report.contradictions)} contradiction(s)"
    )
    for a, b, n in report.edges:
        print(f"  observed: {a} -> {b} (x{n})")
    for line in report.violations:
        print(f"  VIOLATION: {line}", file=sys.stderr)
    for line in report.contradictions:
        print(f"  CONTRADICTION: {line}", file=sys.stderr)
    _save_bundle(args, tracer, registry)
    return 1 if report.violations or report.contradictions else 0


def _loadgen_config(args) -> "object":
    from repro.serving import LoadGenConfig

    return LoadGenConfig(
        duration_s=args.duration_s,
        rate=args.rate,
        mode=args.mode,
        concurrency=args.concurrency,
        points=tuple(args.points),
        deadline_ms=args.deadline_ms,
        seed=args.seed,
    )


def _chaos_event(spec: str):
    """``--event`` parser: a malformed spec is a usage error."""
    from repro.serving import parse_chaos_event

    try:
        return parse_chaos_event(spec)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _load_generator(args, tracer, registry, clock):
    """The fleet, ``--event`` chaos harness, ``--slo`` engine and
    load generator of one ``loadgen`` run, on the virtual ``clock``.

    Raises ``ValueError`` before anything runs when the settings
    cannot make a run (an event aimed at a replica the fleet lacks,
    a non-positive rate or duration).
    """
    from repro.serving import (
        ChaosHarness,
        ChaosSchedule,
        FleetLoadGenerator,
    )

    slo = None
    if args.slo:
        from repro.observability import SloEngine, SloSpec

        slo = SloEngine(SloSpec.load(args.slo), registry, clock=clock)
    fleet = _build_fleet(args, tracer, registry, clock=clock)
    chaos = (
        ChaosHarness(fleet, ChaosSchedule(tuple(args.event)))
        if args.event
        else None
    )
    return FleetLoadGenerator(
        fleet, _loadgen_config(args), chaos=chaos, slo=slo
    )


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Deterministic virtual-time load run against an in-process fleet.

    A :class:`~repro.serving.loadgen.FleetLoadGenerator` drives a
    :class:`~repro.serving.fleet.ServerFleet` of ``--replicas``
    replicas (one by default) through the router/retry/hedge path,
    while a :class:`~repro.serving.chaos.ChaosHarness` replays the
    ``--event`` fault schedule.  The run is fully deterministic
    (FixedClock + seeded RNG); ``tests/test_chaos_golden.py`` pins
    four runs.  Its ``--artifacts-dir`` bundle adds the load report
    and, with ``--slo``, the SLO report (the files ``repro dashboard
    --from`` reads); ``--dashboard`` renders the same data from
    memory.
    """
    from repro.observability.clock import FixedClock

    clock = FixedClock(0.0)
    tracer, registry = _telemetry(args, clock=clock)
    try:
        generator = _load_generator(args, tracer, registry, clock)
    except ValueError as err:
        print(f"repro loadgen: error: {err}", file=sys.stderr)
        return 2
    report = generator.run()
    slo = generator.slo
    print(report.summary())
    if generator.chaos is not None:
        for event in generator.chaos.applied:
            print(f"  chaos: {event.describe()}")
    reports = {ARTIFACT_LOADGEN: report.to_dict()}
    if slo is not None:
        reports[ARTIFACT_SLO] = slo.report(clock())
    _save_bundle(args, tracer, registry, reports)
    status = 0
    if slo is not None:
        exhausted = slo.exhausted()
        print(
            f"slo: {len(slo.spec.objectives)} objective(s), "
            f"{len(slo.alerts)} alert(s), "
            f"{len(exhausted)} budget(s) exhausted"
        )
        if exhausted:
            print(
                "slo gate failed: error budget exhausted for "
                + ", ".join(sorted(exhausted)),
                file=sys.stderr,
            )
            status = 1
    if args.dashboard:
        from repro.observability import (
            bundle_title,
            dashboard_data,
            render_dashboard,
        )

        data = dashboard_data(
            bundle_title(args.artifacts_dir),
            snapshot=registry.snapshot(),
            trace_records=[span.to_dict() for span in tracer.finished()],
            slo_report=reports.get(ARTIFACT_SLO),
            loadgen=reports[ARTIFACT_LOADGEN],
        )
        print(render_dashboard(data))
    if args.fail_on_error and (report.failed or report.lost):
        print(
            f"loadgen gate failed: {report.failed} failed and "
            f"{report.lost} lost requests (admission rejections and "
            "deadline expiries do not count)",
            file=sys.stderr,
        )
        status = 1
    return status


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Render the deterministic text dashboard from saved artifacts.

    Reads an ``--artifacts-dir`` bundle — ``metrics.json``,
    ``trace.jsonl``, ``slo_report.json``, ``loadgen.json`` — and
    prints one snapshot: fleet counters, replica health, SLO error
    budgets, the partitioned scene, and the top-K slowest request
    traces.  Same artifacts, same bytes out.
    """
    from repro.observability import load_artifacts, render_dashboard

    try:
        data = load_artifacts(args.artifacts)
    except FileNotFoundError as err:
        print(f"dashboard: {err}", file=sys.stderr)
        return 2
    print(render_dashboard(data, top_k=args.top))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Project-aware static analysis (see docs/static_analysis.md)."""
    from repro.lint import all_rules, run_lint

    rules = ()
    if args.concurrency:
        rules = tuple(
            rule
            for rule in all_rules()
            if rule.rule_id.startswith("CONC-")
        )
    return run_lint(
        paths=args.paths or ["src"],
        output_format=args.format,
        fail_on=args.fail_on,
        out=args.out,
        rules=rules,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EdgePC reproduction command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "workloads", help="print the Table 1 workloads"
    ).set_defaults(func=cmd_workloads)

    comp = sub.add_parser(
        "compare", help="baseline vs EdgePC (Fig. 13 view)"
    )
    comp.add_argument("--workload", default="all")
    comp.add_argument(
        "--config", default="edgepc", choices=sorted(CONFIGS)
    )
    _add_artifacts_flag(comp)
    comp.set_defaults(func=cmd_compare)

    sample = sub.add_parser(
        "sample", help="down-sample a .ply/.xyz point cloud "
        "(or a synthetic one when no input file is given)"
    )
    sample.add_argument(
        "input", nargs="?", default=None,
        help="input cloud; omit to sample a seeded synthetic cloud",
    )
    sample.add_argument(
        "output", nargs="?", default=None,
        help="output file; omit to skip saving the sampled cloud",
    )
    sample.add_argument(
        "--method", default="morton",
        choices=("fps", "morton", "uniform"),
    )
    sample.add_argument(
        "-n", "--num-samples", type=int, default=1024
    )
    sample.add_argument(
        "--points", type=int, default=2048,
        help="synthetic cloud size when no input file is given",
    )
    sample.add_argument(
        "--seed", type=int, default=0,
        help="seed for the synthetic cloud",
    )
    sample.add_argument(
        "--validation-policy", default="reject",
        choices=("reject", "repair", "clamp"),
        help="how to treat degenerate input clouds",
    )
    sample.add_argument(
        "--guard", action="store_true",
        help="fall back to exact FPS when the Morton sample's "
        "density-uniformity probe trips",
    )
    sample.set_defaults(func=cmd_sample)

    partition_cmd = sub.add_parser(
        "partition",
        help="scene-scale scatter/gather demo: Morton-chunk one "
        "tiled-room scene, run it through the partitioned pipeline, "
        "verify the stitch, report",
    )
    partition_cmd.add_argument(
        "--points", type=int, default=100_000,
        help="scene size in points (default 100000; the scene-scale "
        "scenario spans 100k-1M)",
    )
    partition_cmd.add_argument(
        "--chunk-points", type=int, default=8192,
        help="target core points per chunk (default 8192)",
    )
    partition_cmd.add_argument(
        "--halo-width", type=float, default=0.12,
        help="halo band width; also sizes the demo model's receptive "
        "field (default 0.12)",
    )
    partition_cmd.add_argument(
        "--max-chunks-per-batch", type=int, default=2,
        help="chunks stacked per inner batch dispatch (default 2)",
    )
    partition_cmd.add_argument(
        "--seed", type=int, default=0,
        help="seeds the scene and the model weights (default 0)",
    )
    _add_artifacts_flag(partition_cmd)
    partition_cmd.set_defaults(func=cmd_partition)

    sweep = sub.add_parser(
        "sweep", help="window-size sensitivity (Fig. 15a view)"
    )
    sweep.add_argument("--input", default=None)
    sweep.add_argument("--points", type=int, default=2048)
    sweep.add_argument("--k", type=int, default=16)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(func=cmd_sweep)

    sub.add_parser(
        "report", help="one-shot headline summary of all experiments"
    ).set_defaults(func=cmd_report)

    trace_cmd = sub.add_parser(
        "trace",
        help="per-stage latency breakdown (Fig. 3 view with --config "
        "baseline) and per-stage medians",
    )
    trace_cmd.add_argument("--workload", default="all")
    trace_cmd.add_argument(
        "--config", default="edgepc", choices=sorted(CONFIGS)
    )
    _add_artifacts_flag(trace_cmd)
    trace_cmd.set_defaults(func=cmd_trace)

    def _add_serving_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--max-batch-size", type=int, default=8,
            help="clouds coalesced per dispatched micro-batch",
        )
        cmd.add_argument(
            "--max-wait-ms", type=float, default=50.0,
            help="micro-batching window: how long the oldest queued "
            "request may wait for co-batchable traffic",
        )
        cmd.add_argument(
            "--workers", type=int, default=2,
            help="dispatch workers (threads for serve, modeled lanes "
            "per replica for loadgen)",
        )
        cmd.add_argument(
            "--queue-depth", type=int, default=64,
            help="admission bound; excess requests are rejected",
        )
        cmd.add_argument(
            "--deadline-ms", type=float, default=None,
            help="per-request deadline; expired requests are "
            "cancelled with a typed error",
        )
        cmd.add_argument(
            "--seed", type=int, default=0,
            help="seeds the model weights and the synthetic clouds",
        )
        cmd.add_argument(
            "--guard", action="store_true",
            help="guard the pipeline: quality probes with per-stage "
            "exact-kernel fallback and circuit breakers",
        )

    serve_cmd = sub.add_parser(
        "serve",
        help="threaded micro-batching serving demo with graceful "
        "drain, under the runtime lock-order sanitizer (see "
        "docs/serving.md)",
    )
    serve_cmd.add_argument(
        "--requests", type=int, default=32,
        help="seeded clouds to burst-submit",
    )
    serve_cmd.add_argument(
        "--points", type=int, default=64,
        help="points per submitted cloud",
    )
    _add_serving_flags(serve_cmd)
    _add_artifacts_flag(serve_cmd)
    serve_cmd.set_defaults(func=cmd_serve)

    loadgen_cmd = sub.add_parser(
        "loadgen",
        help="deterministic virtual-time load generation against an "
        "in-process replica fleet, with an optional fault schedule "
        "(see docs/serving.md)",
    )
    loadgen_cmd.add_argument(
        "--duration-s", type=float, default=5.0,
        help="virtual seconds of offered load",
    )
    loadgen_cmd.add_argument(
        "--rate", type=float, default=50.0,
        help="offered requests per second (open loop, Poisson "
        "arrivals)",
    )
    loadgen_cmd.add_argument(
        "--mode", default="open", choices=("open", "closed"),
        help="open loop (rate-driven) or closed loop "
        "(completion-driven)",
    )
    loadgen_cmd.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop in-flight clients",
    )
    loadgen_cmd.add_argument(
        "--points", type=int, nargs="+", default=[64],
        metavar="N",
        help="candidate cloud sizes; mixed sizes exercise the "
        "queue's N-buckets",
    )
    loadgen_cmd.add_argument(
        "--fail-on-error", action="store_true",
        help="exit 1 on any failed or lost request (admission "
        "rejections and deadline expiries do not count)",
    )
    loadgen_cmd.add_argument(
        "--slo", default=None, metavar="SPEC.json",
        help="evaluate this SLO spec during the run; exit 1 if "
        "any error budget is exhausted",
    )
    _add_artifacts_flag(loadgen_cmd)
    loadgen_cmd.add_argument(
        "--dashboard", action="store_true",
        help="print the live text dashboard after the run",
    )
    group = loadgen_cmd.add_argument_group("fleet")
    group.add_argument(
        "--replicas", type=int, default=1,
        help="replicas behind the ServerFleet router (health "
        "tracking, retries, hedging); default 1",
    )
    group.add_argument(
        "--retries", type=int, default=3,
        help="fleet retry budget (max attempts per request, "
        "including the first)",
    )
    group.add_argument(
        "--hedge-ms", type=float, default=None,
        help="enable hedged dispatch with this minimum delay; "
        "unset disables hedging",
    )
    group.add_argument(
        "--event", action="append", default=None, type=_chaos_event,
        metavar="ACTION:REPLICA:AT_S[:FACTOR]",
        help="chaos event, repeatable: kill/stall/slow/error/recover "
        "a replica at a virtual instant (FACTOR: slow's multiplier)",
    )
    _add_serving_flags(loadgen_cmd)
    loadgen_cmd.set_defaults(func=cmd_loadgen)

    dashboard_cmd = sub.add_parser(
        "dashboard",
        help="render the deterministic text dashboard from saved "
        "run artifacts (see docs/observability.md)",
    )
    dashboard_cmd.add_argument(
        "--from", dest="artifacts", required=True, metavar="DIR",
        help="artifact bundle written by a command's "
        "--artifacts-dir (metrics.json / trace.jsonl / "
        "slo_report.json / loadgen.json)",
    )
    dashboard_cmd.add_argument(
        "--top", type=int, default=5,
        help="how many slowest traces to list",
    )
    dashboard_cmd.set_defaults(func=cmd_dashboard)

    lint_cmd = sub.add_parser(
        "lint",
        help="project-aware static analysis: kernel, determinism, "
        "telemetry, and robustness invariants",
    )
    lint_cmd.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: src)",
    )
    lint_cmd.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="stdout rendering",
    )
    lint_cmd.add_argument(
        "--fail-on", default="error",
        choices=("warning", "error"),
        help="exit 1 when a finding reaches this severity",
    )
    lint_cmd.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the machine-readable JSON findings report "
        "(the CI artifact) to FILE",
    )
    lint_cmd.add_argument(
        "--concurrency", action="store_true",
        help="run only the whole-program concurrency rules "
        "(CONC-5xx)",
    )
    lint_cmd.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout was piped into a consumer that exited early
        # (`repro trace | head`); mute the late flush and exit clean.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
