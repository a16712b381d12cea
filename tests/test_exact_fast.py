"""Large-N exact fast engines: identity, dispatch, pricing.

The pruning FPS and grid neighbor engines promise *bit-identical*
results to the brute kernels they displace above
``EdgePCConfig.exact_fast_threshold``.  These tests pin that promise
property-style (duplicated points, integer lattices, Morton-sorted
clouds, block-width boundaries), check the dispatch wiring end to end
(models, guard breaker, metrics, cost model), and bound the grid
path's memory to a workspace-sized footprint at 40k points.

The grid interpolation engine is the one exception: it is byte-identical
to a dense *direct-form* oracle (:func:`_direct_interp_oracle`), and
holds a tolerance contract against the BLAS-form dense kernel.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sampler
from repro.core.pipeline import EdgePCConfig
from repro.core.sampler import (
    exact_interpolation_weights_batch,
    exact_interpolation_weights_grid_batch,
)
from repro.core.structurize import structurize_batch
from repro.core.workspace import Workspace
from repro.neighbors.batched import (
    ball_query_batch,
    ball_query_grid_batch,
    knn_batch,
    knn_grid_batch,
)
from repro.neighbors.grid import GridQueryStats, suggest_cell_size
from repro.nn.pointnet2 import (
    PointNet2Classifier,
    PointNet2Segmentation,
    SAConfig,
)
from repro.nn.recorder import StageEvent, StageRecorder
from repro.observability.metrics import MetricsRegistry
from repro.pipeline import EdgePCPipeline
from repro.robustness.guard import Guard, GuardThresholds
from repro.runtime.cost import EXACT_OPS, CostModel
from repro.runtime.device import xavier
from repro.sampling.fps import (
    FastFpsStats,
    farthest_point_sample,
    farthest_point_sample_fast,
    farthest_point_sample_fast_batch,
)


def _cloud(seed: int, n: int, mode: str) -> np.ndarray:
    """Adversarial clouds: ties and degeneracy on purpose."""
    rng = np.random.default_rng(seed)
    if mode == "random":
        return rng.normal(size=(n, 3))
    if mode == "duplicated":
        base = rng.normal(size=(max(2, n // 4), 3))
        return base[rng.integers(base.shape[0], size=n)]
    if mode == "lattice":
        return rng.integers(0, 8, size=(n, 3)).astype(np.float64)
    if mode == "morton_sorted":
        pts = rng.normal(size=(n, 3))
        return pts[structurize_batch(pts[None]).permutation[0]]
    if mode == "planar":
        pts = rng.normal(size=(n, 3))
        pts[:, 2] = 0.5
        return pts
    if mode == "outlier":
        pts = rng.normal(size=(n, 3))
        pts[rng.integers(n)] = 1e6
        return pts
    raise AssertionError(mode)


CLOUD_MODES = ("random", "duplicated", "lattice", "morton_sorted")
#: Clouds the grid interpolation engine is checked on.
INTERP_MODES = CLOUD_MODES + ("planar", "outlier")
#: Clouds on which no two distances of a row lie within rounding of
#: each other, so the BLAS-form and direct-form kernels pick the same
#: anchors.
TIE_FREE_MODES = ("random", "morton_sorted", "planar")


def _direct_interp_oracle(points, sampled_indices):
    """Dense exact interpolation with the direct-form distance
    ``((px−sx)² + (py−sy)²) + (pz−sz)²`` over every (point, sample)
    pair, kept by a stable argsort."""
    samples = np.take_along_axis(
        points, sampled_indices[:, :, None], axis=1
    )
    sq = (points[:, :, None, :] - samples[:, None, :, :]) ** 2
    d2 = (sq[..., 0] + sq[..., 1]) + sq[..., 2]
    k = min(3, samples.shape[1])
    pick = np.argsort(d2, axis=2, kind="stable")[:, :, :k]
    inv = 1.0 / np.maximum(np.take_along_axis(d2, pick, axis=2), 1e-10)
    return pick, inv / inv.sum(axis=2, keepdims=True)


def _interp_case(seed, n, n_samples, batch, mode):
    """``(points, sampled_indices)``: ``batch`` clouds of ``n`` points,
    ``n_samples`` random samples each."""
    rng = np.random.default_rng(seed)
    points = np.stack([_cloud(seed + b, n, mode) for b in range(batch)])
    sampled = np.stack(
        [rng.permutation(n)[:n_samples] for _ in range(batch)]
    )
    return points, sampled


def _assert_same_bytes(got, want):
    assert got[0].dtype == want[0].dtype
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


class TestFastFpsIdentity:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(17, 400),
        mode=st.sampled_from(CLOUD_MODES),
    )
    @settings(max_examples=40, deadline=None)
    def test_byte_identical_to_reference(self, seed, n, mode):
        pts = _cloud(seed, n, mode)
        num = max(1, n // 3)
        ref = farthest_point_sample(pts, num, start_index=0)
        fast = farthest_point_sample_fast(pts, num, start_index=0)
        assert fast.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [15, 16, 17, 31, 32, 33, 48, 64])
    def test_block_width_boundaries(self, n):
        pts = _cloud(7, n, "duplicated")
        ref = farthest_point_sample(pts, n, start_index=0)
        fast = farthest_point_sample_fast(pts, n, start_index=0)
        assert np.array_equal(fast, ref)

    def test_batch_accumulates_stats(self, rng):
        pts = rng.normal(size=(3, 256, 3))
        stats = FastFpsStats()
        out = farthest_point_sample_fast_batch(
            pts, 64, start_index=0, stats=stats
        )
        assert out.shape == (3, 64)
        assert stats.num_points == 3 * 256
        assert stats.num_samples == 3 * 64
        assert 0 < stats.points_scanned <= stats.worst_case
        assert 0.0 < stats.scan_fraction <= 1.0

    def test_batch_worst_case_sums_per_cloud(self, rng):
        # Sum over clouds of N * n, not (sum N) * (sum n), which would
        # inflate the bound B-fold on a batch.
        stats = FastFpsStats()
        farthest_point_sample_fast_batch(
            rng.normal(size=(4, 256, 3)), 32, start_index=0, stats=stats
        )
        assert stats.worst_case == 4 * 256 * 32


class TestGridIdentity:
    # "duplicated" Gaussian clouds are excluded here: BLAS rounds the
    # d2 expansion differently per candidate column (~1e-16 jitter on
    # exact duplicates), so the brute kernel's own tie order among
    # coincident points is unspecified.  Integer lattices keep the
    # expansion exact, so duplicates tie-break canonically by index in
    # both engines and are covered below.
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(32, 500),
        k=st.integers(1, 24),
        mode=st.sampled_from(("random", "lattice", "morton_sorted")),
    )
    @settings(max_examples=40, deadline=None)
    def test_knn_grid_matches_brute(self, seed, n, k, mode):
        pts = _cloud(seed, n, mode)[None]
        k = min(k, n)
        brute = knn_batch(pts, pts, k)
        grid = knn_grid_batch(pts, pts, k)
        assert grid.tobytes() == brute.tobytes()

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(32, 400),
        k=st.integers(1, 12),
        radius=st.sampled_from([1.0, 2.0, 3.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_ball_grid_matches_brute(self, seed, n, k, radius):
        # Integer lattices make distances exact, so near-tie rounding
        # cannot differ between engines; ties are everywhere instead.
        pts = _cloud(seed, n, "lattice")[None]
        rng = np.random.default_rng(seed + 1)
        queries = pts[:, rng.integers(n, size=max(1, n // 4))]
        brute = ball_query_batch(queries, pts, radius, k)
        grid = ball_query_grid_batch(queries, pts, radius, k)
        assert grid.tobytes() == brute.tobytes()

    @pytest.mark.parametrize("k", [16, 40])
    def test_ball_grid_ring_narrower_than_k(self, k):
        # A sparse lattice: every 27-cell ring holds fewer than k
        # candidates, so the padded rows are narrower than k.
        pts = _cloud(11, 60, "lattice")[None] * 3.0
        brute = ball_query_batch(pts, pts, 3.0, k)
        grid = ball_query_grid_batch(pts, pts, 3.0, k)
        assert grid.tobytes() == brute.tobytes()

    def test_stats_accounting(self, rng):
        pts = rng.normal(size=(1, 512, 3))
        stats = GridQueryStats()
        knn_grid_batch(pts, pts, 8, stats=stats)
        assert stats.num_queries == 512
        # The grid engine's whole point: scan fewer pairs than Q * N.
        assert 0 < stats.pairs_scanned < 512 * 512
        assert stats.rounds >= 1

    def test_suggest_cell_size_degenerate(self):
        coincident = np.zeros((64, 3))
        assert suggest_cell_size(coincident, 8) == 1.0
        flat = np.zeros((64, 3))
        flat[:, 0] = np.linspace(0.0, 4.0, 64)
        assert suggest_cell_size(flat, 8) > 0.0


class TestGridInterpolation:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(8, 300),
        n_samples=st.sampled_from((1, 2, 3, 0)),
        batch=st.sampled_from((1, 3)),
        mode=st.sampled_from(INTERP_MODES),
        cell_scale=st.sampled_from((None, 0.5, 2.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_byte_identical_to_direct_oracle(
        self, seed, n, n_samples, batch, mode, cell_scale
    ):
        # n_samples 0 stands for "large": a quarter of the cloud.
        n_samples = n_samples or max(4, n // 4)
        points, sampled = _interp_case(seed, n, n_samples, batch, mode)
        cell_size = None
        if cell_scale is not None:
            samples = points[0, sampled[0]]
            cell_size = cell_scale * suggest_cell_size(samples, 3)
        got = exact_interpolation_weights_grid_batch(
            points, sampled, cell_size=cell_size
        )
        _assert_same_bytes(got, _direct_interp_oracle(points, sampled))

    @pytest.mark.parametrize("tile_rows", [1, 3, 8])
    @pytest.mark.parametrize("cell_size", [0.5, 1.0, 2.0])
    def test_queries_on_ring_boundaries(
        self, monkeypatch, tile_rows, cell_size
    ):
        # Integer lattices put every point on a cell face, so ring
        # membership and the ring bound are decided at equality.
        monkeypatch.setattr(sampler, "GRID_TILE_ROWS", tile_rows)
        points, sampled = _interp_case(3, 400, 60, 3, "lattice")
        got = exact_interpolation_weights_grid_batch(
            points, sampled, cell_size=cell_size
        )
        _assert_same_bytes(got, _direct_interp_oracle(points, sampled))

    def test_overflowing_cloud_scans_every_sample(self):
        # Two clusters 1e155 apart: distances across them overflow to
        # +inf, so the ring bound proves nothing and every row is
        # scored against every sample, even inside a cluster.
        points, sampled = _interp_case(5, 200, 40, 1, "random")
        points[:, 100:] += 1e155
        stats = GridQueryStats()
        with np.errstate(over="ignore", invalid="ignore"):
            got = exact_interpolation_weights_grid_batch(
                points, sampled, stats=stats
            )
            want = _direct_interp_oracle(points, sampled)
        _assert_same_bytes(got, want)
        assert stats.pairs_scanned == 200 * 40

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(16, 300),
        batch=st.sampled_from((1, 3)),
        mode=st.sampled_from(INTERP_MODES),
    )
    @settings(max_examples=40, deadline=None)
    def test_contract_with_dense_kernel(self, seed, n, batch, mode):
        points, sampled = _interp_case(seed, n, max(4, n // 4), batch, mode)
        anchors, weights = exact_interpolation_weights_grid_batch(
            points, sampled
        )
        dense_anchors, dense_weights = exact_interpolation_weights_batch(
            points, sampled
        )
        assert np.abs(weights - dense_weights).max() <= 1e-10
        if mode in TIE_FREE_MODES:
            assert np.array_equal(anchors, dense_anchors)

    def test_stats_count_distinct_pairs(self, rng):
        points = rng.normal(size=(2, 2048, 3))
        sampled = np.stack([rng.permutation(2048)[:512] for _ in range(2)])
        stats = GridQueryStats()
        exact_interpolation_weights_grid_batch(points, sampled, stats=stats)
        assert stats.num_queries == 2 * 2048
        assert stats.rounds == 2
        # Each row scores its ring, or every sample once when it falls
        # back: never more than the dense N·n per cloud.
        assert 0 < stats.pairs_scanned < 2 * 2048 * 512


class TestGridMemoryBudget:
    def test_40k_knn_stays_workspace_sized(self, rng):
        # Brute would materialize 2560 x 40960 float64 tiles chunked
        # by the workspace; the grid path must also stay bounded — far
        # under the ~840 MB an unchunked (Q, N) matrix would take.
        pts = rng.normal(size=(1, 40960, 3))
        queries = pts[:, ::16]
        workspace = Workspace()
        knn_grid_batch(queries, pts, 16, workspace=workspace)  # warm
        tracemalloc.start()
        knn_grid_batch(queries, pts, 16, workspace=workspace)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 64 * 1024 * 1024


class TestConfigDispatch:
    def test_exact_engine_for(self):
        config = EdgePCConfig(exact_fast_threshold=1000)
        assert config.exact_engine_for(999) == "brute"
        assert config.exact_engine_for(1000) == "fast"
        assert config.exact_engine_for(0) == "brute"
        with pytest.raises(ValueError):
            config.exact_engine_for(-1)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            EdgePCConfig(exact_fast_threshold=0)

    def test_default_threshold_keeps_small_inputs_brute(self):
        config = EdgePCConfig.baseline()
        assert config.exact_engine_for(1024) == "brute"
        assert config.exact_engine_for(40960) == "fast"


class TestModelWiring:
    def test_fast_engines_bit_identical_logits(self, rng):
        xyz = rng.normal(size=(2, 1024, 3))
        fast_cfg = replace(
            EdgePCConfig.baseline(), exact_fast_threshold=64
        )
        sa = (SAConfig(0.25, 16, 0.2, (8, 8)),)
        fast_model = PointNet2Classifier(
            num_classes=4, sa_configs=sa, edgepc=fast_cfg
        )
        brute_model = PointNet2Classifier(
            num_classes=4, sa_configs=sa, edgepc=EdgePCConfig.baseline()
        )
        brute_model.load_state_dict(fast_model.state_dict())
        fast_res = EdgePCPipeline(fast_model).infer(xyz)
        brute_res = EdgePCPipeline(brute_model).infer(xyz)
        assert "fps_fast" in fast_res.stage_ops
        assert "ball_query_grid" in fast_res.stage_ops
        assert "fps" in brute_res.stage_ops
        assert fast_res.logits.tobytes() == brute_res.logits.tobytes()

    def test_grid_interpolation_logits_within_contract(self, rng):
        xyz = rng.normal(size=(2, 512, 3))
        sa = (SAConfig(0.25, 8, 0.3, (8, 8)), SAConfig(0.25, 8, 0.6, (8,)))
        fast_cfg = replace(
            EdgePCConfig.baseline(), exact_fast_threshold=64
        )
        fast_model = PointNet2Segmentation(
            num_classes=4, sa_configs=sa, edgepc=fast_cfg, head_hidden=8
        )
        brute_model = PointNet2Segmentation(
            num_classes=4, sa_configs=sa, edgepc=EdgePCConfig.baseline(),
            head_hidden=8,
        )
        brute_model.load_state_dict(fast_model.state_dict())
        fast_res = EdgePCPipeline(fast_model).infer(xyz)
        brute_res = EdgePCPipeline(brute_model).infer(xyz)
        assert "interp_grid" in fast_res.stage_ops
        assert "interp_exact" in brute_res.stage_ops
        assert "interp_grid" not in brute_res.stage_ops
        brute = brute_res.logits
        assert np.array_equal(
            fast_res.logits.argmax(axis=-1), brute.argmax(axis=-1)
        )
        assert np.all(
            np.abs(fast_res.logits - brute) <= 1e-9 * (1 + np.abs(brute))
        )

    def test_fps_fast_event_bound_per_element_at_batch(self, rng):
        batch, n_points, ratio = 4, 256, 0.25
        cfg = replace(EdgePCConfig.baseline(), exact_fast_threshold=64)
        model = PointNet2Classifier(
            num_classes=4,
            sa_configs=(SAConfig(ratio, 8, 0.2, (8,)),),
            edgepc=cfg,
        )
        recorder = StageRecorder()
        model(rng.normal(size=(batch, n_points, 3)), recorder=recorder)
        (event,) = [e for e in recorder if e.op == "fps_fast"]
        worst = n_points * int(n_points * ratio)
        assert event.counts["worst_case"] == worst
        assert 0 < event.counts["points_scanned"] <= worst

    def test_exact_fast_metrics_emitted(self, rng):
        xyz = rng.normal(size=(1, 512, 3))
        cfg = replace(EdgePCConfig.baseline(), exact_fast_threshold=64)
        model = PointNet2Classifier(
            num_classes=4,
            sa_configs=(SAConfig(0.25, 8, 0.2, (8,)),),
            edgepc=cfg,
        )
        registry = MetricsRegistry()
        EdgePCPipeline(model, metrics=registry).infer(xyz)
        rendered = registry.to_prometheus()
        assert "exact_fast_blocks_pruned_total" in rendered
        assert 'exact_fast_scan_ratio_bucket{op="fps_fast"' in rendered
        assert (
            'exact_fast_scan_ratio_bucket{op="ball_query_grid"'
            in rendered
        )


class TestGuardRoutesThroughFastEngine:
    def test_breaker_trip_at_40k_uses_fast_exact_kernels(self, rng):
        # A 40960-point stream whose probes always trip: the guard
        # degrades sampling + neighbor search to exact kernels, and
        # those exact kernels must be the fast engines — the breaker
        # being pinned open no longer implies brute O(N^2) latency.
        xyz = rng.normal(size=(1, 40960, 3))
        model = PointNet2Classifier(
            num_classes=4,
            sa_configs=(SAConfig(0.0625, 16, 0.1, (8,)),),
            edgepc=EdgePCConfig.paper_default(),
        )
        registry = MetricsRegistry()
        pipeline = EdgePCPipeline(
            model,
            guard=Guard(
                GuardThresholds(
                    max_density_cv=1e-9,
                    max_false_neighbor_rate=1e-9,
                    trip_limit=1,
                )
            ),
            metrics=registry,
        )
        # A rejection would raise InferenceRejectedError here.
        first = pipeline.infer(xyz)
        assert first.degradations
        ops = first.stage_ops
        assert "fps_fast" in ops and "fps" not in ops
        assert "ball_query_grid" in ops and "ball_query" not in ops
        second = pipeline.infer(xyz)
        assert "fps_fast" in second.stage_ops
        assert "open" in pipeline.guard.breaker_states.values()
        rendered = registry.to_prometheus()
        assert "exact_fast_blocks_pruned_total" in rendered
        assert "exact_fast_scan_ratio" in rendered


class TestCostModelPricing:
    def _model(self):
        return CostModel(xavier())

    def test_new_ops_are_exact_family(self):
        assert {
            "fps_fast", "knn_grid", "ball_query_grid", "interp_grid",
        } <= EXACT_OPS

    def test_fps_fast_cheaper_when_pruned(self):
        model = self._model()
        brute = StageEvent(
            "sample", "fps", 0,
            {"n_points": 40960, "n_samples": 2560, "batch": 1},
        )
        pruned = StageEvent(
            "sample", "fps_fast", 0,
            {
                "n_points": 40960,
                "n_samples": 2560,
                "batch": 1,
                # ~3% of the worst case, as measured at 40k.
                "points_scanned": 0.03 * 40960 * 2560,
            },
        )
        assert model.price(pruned) < model.price(brute)

    def test_grid_query_scales_with_pairs_scanned(self):
        model = self._model()

        def event(pairs):
            return StageEvent(
                "neighbor_search", "knn_grid", 0,
                {
                    "n_queries": 2560,
                    "n_candidates": 40960,
                    "k": 16,
                    "batch": 2,
                    "pairs_scanned": pairs,
                },
            )

        cheap = model.price(event(1e5))
        costly = model.price(event(1e7))
        assert 0 < cheap < costly
        brute = StageEvent(
            "neighbor_search", "knn", 0,
            {
                "n_queries": 2560,
                "n_candidates": 40960,
                "k": 16,
                "batch": 2,
            },
        )
        # At the measured ~3% scan fraction the grid op must price
        # below the all-pairs kernel it displaces.
        grid = model.price(event(0.03 * 2560 * 40960))
        assert grid < model.price(brute)

    def test_ball_query_grid_priced(self):
        model = self._model()
        event = StageEvent(
            "neighbor_search", "ball_query_grid", 0,
            {
                "n_queries": 2560,
                "n_candidates": 40960,
                "k": 16,
                "batch": 1,
                "pairs_scanned": 3e6,
            },
        )
        assert model.price(event) > 0

    def test_unknown_op_still_raises(self):
        with pytest.raises(ValueError):
            self._model().price(
                StageEvent("sample", "warp_drive", 0, {})
            )
