"""Kernel benchmarks with ratio gates: large-N engines and partitioning.

``repro bench`` runs two suites and writes their sections to a JSON
document (committed as ``BENCH_kernels.json`` / ``BENCH_partition.json``):

- ``large-n`` times the exact fast engines (pruning FPS, grid kNN and
  ball query) against the brute kernels they displace above the
  dispatch threshold, asserting bit-identical indices on every run;
- ``partition`` prices chunked scene execution against the monolithic
  projection on the device cost model (simulated seconds).

CI re-runs a suite and fails when a kernel's *speedup ratio* drops
below the committed baseline by more than the tolerance band.  Ratios,
not absolute seconds, are compared: both sides run on the same machine
in the same process, so the ratio cancels host speed and stays
meaningful across CI runners.

Timing uses ``time.perf_counter`` best-of-``repeats`` — the standard
micro-benchmark estimator, robust to one-off scheduler noise.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from repro.core.workspace import Workspace
from repro.neighbors.batched import (
    ball_query_batch,
    ball_query_grid_batch,
    knn_batch,
    knn_grid_batch,
)
from repro.sampling.fps import (
    farthest_point_sample_batch,
    farthest_point_sample_fast_batch,
)
from repro.sampling.uniform import uniform_stride_indices

SCHEMA_VERSION = 1

#: Default fraction a kernel's speedup may fall below the committed
#: baseline before the regression gate fails.  Micro-benchmark ratios
#: on shared CI runners are noisy; half the baseline ratio is a real
#: regression, not jitter.
DEFAULT_TOLERANCE = 0.5


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


#: Default point counts for the large-N exact-engine suite.  The CI
#: ratio gate (``repro bench --suite large-n``) keys off the 40960
#: entry; 8192 sits just above the dispatch threshold and 102400 shows
#: the asymptotic trend.
LARGE_N_SIZES = (8192, 40960, 102400)

#: Query-ball radius for the large-N ball-query pair.  On the suite's
#: unit-Gaussian clouds this yields roughly ``k`` points per ball at
#: N=40960, matching the first SA level's paper-scale workload.
LARGE_N_RADIUS = 0.1


def run_large_n_suite(
    sizes: tuple = LARGE_N_SIZES,
    k: int = 16,
    repeats: int = 2,
    seed: int = 0,
) -> Dict[str, object]:
    """Time the large-N exact fast engines against the brute kernels.

    For each cloud size ``N`` (one unit-Gaussian cloud, ``N // 16``
    FPS picks and kNN / ball queries): the pruning-FPS and grid
    neighbor engines versus the production brute kernels they displace
    above :attr:`~repro.core.pipeline.EdgePCConfig.exact_fast_threshold`.
    Both sides return bit-identical indices (asserted here on every
    run), so the ratio is a pure like-for-like speedup.

    Returns a ``{"params", "kernels"}`` section dict; kernels are keyed
    ``"<op>/<N>"`` with ``brute_s`` / ``fast_s`` / ``speedup``.
    """
    sizes = tuple(int(n) for n in sizes)
    if not sizes or any(n < 64 for n in sizes):
        raise ValueError("sizes must be point counts >= 64")
    if repeats < 1:
        raise ValueError("repeats must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    rng = np.random.default_rng(seed)
    workspace = Workspace()
    kernels: Dict[str, Dict[str, float]] = {}
    for n_points in sizes:
        pts = rng.normal(size=(1, n_points, 3))
        num_fps = max(1, n_points // 16)
        queries = pts[:, uniform_stride_indices(n_points, num_fps)]

        def fps_fast():
            return farthest_point_sample_fast_batch(
                pts, num_fps, start_index=0
            )

        def fps_brute():
            return farthest_point_sample_batch(
                pts, num_fps, start_index=0
            )

        def grid_knn():
            return knn_grid_batch(queries, pts, k, workspace=workspace)

        def brute_knn():
            return knn_batch(queries, pts, k, workspace)

        def grid_ball():
            return ball_query_grid_batch(
                queries, pts, LARGE_N_RADIUS, k, workspace=workspace
            )

        def brute_ball():
            return ball_query_batch(
                queries, pts, LARGE_N_RADIUS, k, workspace
            )

        for op, fast_fn, brute_fn in (
            ("fps_fast", fps_fast, fps_brute),
            ("knn_grid", grid_knn, brute_knn),
            ("ball_query_grid", grid_ball, brute_ball),
        ):
            fast_out = fast_fn()  # warm up pools; keep for identity
            brute_out = brute_fn()
            if not np.array_equal(fast_out, brute_out):
                raise AssertionError(
                    f"{op} diverged from brute at N={n_points}"
                )
            fast_s = _best_of(fast_fn, repeats)
            brute_s = _best_of(brute_fn, repeats)
            kernels[f"{op}/{n_points}"] = {
                "fast_s": fast_s,
                "brute_s": brute_s,
                "speedup": brute_s / fast_s,
            }
    return {
        "params": {
            "sizes": list(sizes),
            "k": k,
            "repeats": repeats,
            "seed": seed,
            "radius": LARGE_N_RADIUS,
        },
        "kernels": kernels,
    }


#: Default scene sizes for the partition suite.  The CI ratio gate
#: (``repro bench --suite partition``) keys off these entries; they
#: are deliberately modest — the suite *prices* the monolithic run
#: instead of executing it, so small scenes already exercise the full
#: scatter/price/project path.
PARTITION_SIZES = (25_000, 50_000)

#: Default chunk core budget for the partition suite (a chunk batch
#: is ``chunk_points`` plus halo and padding context).
PARTITION_CHUNK_POINTS = 4096

#: Default halo width (== the bench model's receptive field, the sum
#: of its SA radii) for the partition suite.
PARTITION_HALO_WIDTH = 0.12


def run_partition_suite(
    sizes: tuple = PARTITION_SIZES,
    chunk_points: int = PARTITION_CHUNK_POINTS,
    halo_width: float = PARTITION_HALO_WIDTH,
    seed: int = 0,
) -> Dict[str, object]:
    """Price chunked scene execution against the monolithic projection.

    For each scene size ``N``: a tiled-room scene is partitioned into
    Morton chunks, one representative chunk batch is *recorded*
    through a scene-tuned PointNet++ pipeline, and
    :func:`repro.partition.price_partition` projects both sides on the
    device cost model.  Unlike the wall-clock suites, every number
    here is deterministic **simulated seconds** — the ratio gate is
    machine-independent by construction.

    The bench model's SA radii sum to ``halo_width``, so the plan's
    halo covers exactly the model receptive field, and its config
    drops ``exact_fast_threshold`` below the chunk size so chunk
    batches record the same fast engines the monolithic run would
    dispatch — keeping the projection like-for-like.

    Returns a ``{"params", "kernels"}`` section dict; kernels are
    keyed ``"scene/<N>"`` with ``chunked_s`` / ``monolithic_s`` /
    ``speedup`` plus the plan's shape.
    """
    from repro.datasets import make_scene
    from repro.partition import (
        ScenePartitioner,
        price_partition,
        scene_tuned_pipeline,
    )

    sizes = tuple(int(n) for n in sizes)
    if not sizes or any(n <= chunk_points for n in sizes):
        raise ValueError(
            "sizes must be scene point counts above chunk_points"
        )
    if chunk_points < 64:
        raise ValueError("chunk_points must be at least 64")
    if halo_width <= 0:
        raise ValueError("halo_width must be positive")
    pipeline = scene_tuned_pipeline(seed, halo_width)
    partitioner = ScenePartitioner(
        chunk_points=chunk_points, halo_width=halo_width
    )
    kernels: Dict[str, Dict[str, float]] = {}
    for n_points in sizes:
        scene = make_scene(n_points, seed=seed)
        plan = partitioner.plan(scene.xyz)
        report = price_partition(pipeline, scene.xyz, plan)
        kernels[f"scene/{n_points}"] = {
            "chunked_s": report.chunked_s,
            "monolithic_s": report.monolithic_s,
            "speedup": report.speedup,
            "per_chunk_s": report.per_chunk_s,
            "num_chunks": float(report.num_chunks),
            "chunk_size": float(report.chunk_size),
            "halo_ratio": report.halo_ratio,
        }
    return {
        "params": {
            "sizes": list(sizes),
            "chunk_points": chunk_points,
            "halo_width": halo_width,
            "seed": seed,
        },
        "kernels": kernels,
    }


def format_partition_results(section: Dict[str, object]) -> str:
    """Human-readable table of one partition suite section."""
    params = section["params"]
    lines = [
        "scene partition suite "
        f"(sizes={params['sizes']}, "
        f"chunk_points={params['chunk_points']}, "
        f"halo_width={params['halo_width']}; simulated seconds)",
        f"{'scene':<16}{'chunked':>12}{'monolithic':>12}"
        f"{'speedup':>10}{'halo':>8}",
    ]
    for name, entry in section["kernels"].items():
        lines.append(
            f"{name:<16}"
            f"{entry['chunked_s']:>11.3f}s"
            f"{entry['monolithic_s']:>11.3f}s"
            f"{entry['speedup']:>9.1f}x"
            f"{entry['halo_ratio']:>8.2f}"
        )
    return "\n".join(lines)


def format_large_n_results(section: Dict[str, object]) -> str:
    """Human-readable table of one large-N suite section."""
    params = section["params"]
    lines = [
        "large-N exact-engine suite "
        f"(sizes={params['sizes']}, k={params['k']}, "
        f"best of {params['repeats']})",
        f"{'kernel':<24}{'fast':>12}{'brute':>12}{'speedup':>10}",
    ]
    for name, entry in section["kernels"].items():
        lines.append(
            f"{name:<24}"
            f"{entry['fast_s'] * 1e3:>10.2f}ms"
            f"{entry['brute_s'] * 1e3:>10.2f}ms"
            f"{entry['speedup']:>9.1f}x"
        )
    return "\n".join(lines)


def format_results(results: Dict[str, object]) -> str:
    """Human-readable tables of one suite run (every section)."""
    tables: List[str] = []
    if "large_n" in results:
        tables.append(format_large_n_results(results["large_n"]))
    if "partition" in results:
        tables.append(format_partition_results(results["partition"]))
    return "\n\n".join(tables)


def compare_with_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regressions of ``current`` against a committed ``baseline``.

    A kernel regresses when its speedup ratio falls below
    ``baseline_speedup * (1 - tolerance)``, or when it disappears from
    the suite.  Returns one message per regression; empty means the
    gate passes.

    Each section (``large_n``, ``partition``) is gated only when the
    current run produced it, so a ``--suite large-n`` smoke run can be
    checked against the full committed baseline.  Baseline entries for
    sizes the current run did not request (its ``params.sizes``) are
    skipped — both suites are size-parameterized and CI gates a
    subset.
    """
    if not 0 <= tolerance < 1:
        raise ValueError("tolerance must be in [0, 1)")

    problems: List[str] = []
    for key in ("large_n", "partition"):
        if key not in current:
            continue
        section = current[key]
        sizes = {int(n) for n in section["params"]["sizes"]}
        current_kernels = section.get("kernels", {})
        for name, entry in baseline.get(key, {}).get("kernels", {}).items():
            if int(name.rsplit("/", 1)[1]) not in sizes:
                continue
            if name not in current_kernels:
                problems.append(f"{key}/{name}: missing from current suite")
                continue
            floor = entry["speedup"] * (1.0 - tolerance)
            got = current_kernels[name]["speedup"]
            if got < floor:
                problems.append(
                    f"{key}/{name}: speedup {got:.2f}x fell below "
                    f"{floor:.2f}x (baseline {entry['speedup']:.2f}x "
                    f"- {tolerance:.0%} tolerance)"
                )
    return problems
