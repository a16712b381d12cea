"""Callers of the Morton kernels give the same outputs as before the
per-cloud order type and wrappers were folded into the batched ones.

``tests/data/caller_golden.npz`` holds outputs captured from the
per-cloud implementation: ``repro sample --method morton`` indices,
the design-space sweeps, a scene partition plan, the guard probe
scores and ``ZOrderApproxNN`` queries on Morton and Hilbert orders.
Every comparison is exact.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.dse import explore_code_bits, explore_window_sizes
from repro.core.hilbert import hilbert_structurize
from repro.core.structurize import structurize_batch
from repro.datasets.scene import make_scene
from repro.geometry import io as pc_io
from repro.geometry.points import PointCloud
from repro.neighbors.zorder_ann import ZOrderApproxNN
from repro.partition.partitioner import ScenePartitioner
from repro.robustness.guard import (
    probe_false_neighbor_rate,
    probe_sampling_uniformity,
)

GOLDEN = Path(__file__).parent / "data" / "caller_golden.npz"


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


def test_cli_morton_sample_indices(golden, tmp_path):
    cloud = np.random.default_rng(3).random((1000, 3))
    src, out = str(tmp_path / "in.xyz"), str(tmp_path / "out.xyz")
    pc_io.save(PointCloud(cloud), src)
    assert main(["sample", src, out, "--method", "morton", "-n", "100"]) == 0
    sampled = pc_io.load(out).xyz
    # The .xyz text round-trips float64 exactly, so each output row
    # matches exactly one input row.
    match = (sampled[:, None, :] == cloud[None, :, :]).all(axis=2)
    assert (match.sum(axis=1) == 1).all()
    assert np.array_equal(match.argmax(axis=1), golden["cli_sample_indices"])


def test_design_space_sweeps(golden):
    pts = np.random.default_rng(7).random((600, 3))
    queries = np.arange(0, 600, 5)
    windows = explore_window_sizes(pts, 8, query_indices=queries)
    got = [
        [p.window, p.window_multiplier, p.false_neighbor_ratio,
         p.search_speedup]
        for p in windows
    ]
    assert np.array_equal(np.array(got), golden["dse_window"])
    widths = explore_code_bits(pts, 8, query_indices=queries)
    got = [
        [p.code_bits, p.bits_per_axis, p.memory_bytes,
         p.false_neighbor_ratio]
        for p in widths
    ]
    assert np.array_equal(np.array(got), golden["dse_code_bits"])


def test_partition_plan(golden):
    scene = make_scene(20000, seed=5).xyz
    plan = ScenePartitioner(4096, halo_width=0.4).plan(scene)
    cores = [c.core_indices for c in plan.chunks]
    halos = [c.halo_indices for c in plan.chunks]
    assert np.array_equal(np.concatenate(cores), golden["plan_cores"])
    assert np.array_equal(np.concatenate(halos), golden["plan_halos"])
    assert [c.size for c in cores] == golden["plan_core_sizes"].tolist()
    assert [h.size for h in halos] == golden["plan_halo_sizes"].tolist()


def test_guard_probe_scores(golden):
    pts = np.random.default_rng(11).random((512, 3))
    scores = [
        probe_sampling_uniformity(pts, 64, 32),
        probe_sampling_uniformity(pts, 100, 18),
        probe_false_neighbor_rate(pts, 8, 16, 32),
        probe_false_neighbor_rate(pts, 8, 8, 24),
    ]
    assert np.array_equal(np.array(scores), golden["guard_scores"])


def test_zorder_ann_queries(golden):
    pts = np.random.default_rng(13).random((400, 3))
    queries = np.random.default_rng(17).random((20, 3))
    morton = ZOrderApproxNN(pts, eps=0.5)
    assert np.array_equal(
        morton.query_batch(queries, 5), golden["ann_morton"]
    )
    morton_24 = ZOrderApproxNN(
        pts, eps=0.0, order=structurize_batch(pts[None], 24)
    )
    assert np.array_equal(
        morton_24.query_batch(queries, 5), golden["ann_morton_eps0"]
    )
    hilbert = ZOrderApproxNN(pts, eps=0.5, order=hilbert_structurize(pts))
    assert np.array_equal(
        hilbert.query_batch(queries, 5), golden["ann_hilbert"]
    )
