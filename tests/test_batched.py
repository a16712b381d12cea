"""The batched kernel engine: identity, memory bounds, and goldens.

Three invariants guard the batched layer:

1. **Identity** — every ``*_batch`` kernel, also on a ``B=1`` batch of
   one cloud, is bit-identical to the pre-batching per-cloud reference
   implementation preserved below.
2. **Bounded scratch** — the chunked exact kernels never materialize a
   full ``(B, Q, N)`` distance block; peak transient memory tracks the
   workspace budget (measured with ``tracemalloc``).
3. **Goldens** — full model forwards reproduce outputs captured from
   the pre-batching per-cloud implementation
   (``tests/data/model_forward_golden.npz``), in grad mode and on the
   in-place, query-blocked inference path.
"""

import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import morton, sampler
from repro.core.neighbor import MortonNeighborSearch, window_ranks
from repro.core.pipeline import EdgePCConfig
from repro.core.sampler import (
    MortonSampler,
    MortonUpsampler,
    exact_interpolation_weights_batch,
)
from repro.core.structurize import structurize_batch
from repro.core.workspace import Workspace
from repro.geometry.bbox import BoundingBox
from repro.geometry.voxel import VoxelGrid
from repro.neighbors import ball_query, ball_query_batch, knn, knn_batch
from repro.nn import functional
from repro.nn.autograd import no_grad
from repro.sampling.fps import (
    farthest_point_sample,
    farthest_point_sample_batch,
)
from repro.sampling.uniform import uniform_stride_indices

GOLDEN = Path(__file__).parent / "data" / "model_forward_golden.npz"


def make_batch(seed, batch, n, duplicates=False):
    """Random ``(B, n, 3)`` batch; optionally with exact duplicates."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(batch, n, 3))
    if duplicates:
        m = max(1, n // 3)
        pts[:, n - m :] = pts[:, :m]  # exact ties exercise stable sorts
    return pts


# Pre-batching reference implementations ------------------------------
#
# The per-cloud algorithms the repo shipped before the batched kernel
# layer, kept verbatim as identity oracles for the batched kernels,
# with the per-cloud containers they return and read.


@dataclass(frozen=True)
class MortonOrder:
    """The per-cloud Morton order the oracles build and read."""

    codes: np.ndarray
    permutation: np.ndarray
    ranks: np.ndarray
    grid: VoxelGrid
    code_bits: int

    def __len__(self) -> int:
        return self.codes.shape[0]

    def sorted_points(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points)[self.permutation]

    def original_index_of(self, sorted_ranks: np.ndarray) -> np.ndarray:
        return self.permutation[np.asarray(sorted_ranks)]


@dataclass(frozen=True)
class MortonSampleResult:
    """The per-cloud sample result the oracles read."""

    indices: np.ndarray
    order: MortonOrder
    sampled_ranks: np.ndarray

    def __len__(self) -> int:
        return self.indices.shape[0]


def _cloud(order, b: int) -> MortonOrder:
    """Row ``b`` of a batched order as the oracles' container."""
    return MortonOrder(
        codes=order.codes[b],
        permutation=order.permutation[b],
        ranks=order.ranks[b],
        grid=VoxelGrid(
            origin=order.origins[b],
            cell_size=float(order.cell_sizes[b]),
            cells_per_axis=order.cells_per_axis,
        ),
        code_bits=order.code_bits,
    )


def _sample_cloud(result, b: int) -> MortonSampleResult:
    """Row ``b`` of a batched sample result as the oracles' container."""
    return MortonSampleResult(
        indices=result.indices[b],
        order=_cloud(result.order, b),
        sampled_ranks=result.sampled_ranks,
    )


def _reference_structurize(
    points: np.ndarray,
    code_bits: int = morton.DEFAULT_CODE_BITS,
    bounding_box=None,
) -> MortonOrder:
    points = np.asarray(points, dtype=np.float64)
    per_axis = morton.bits_per_axis(code_bits)
    box = bounding_box or BoundingBox.of_points(points)
    grid = VoxelGrid.for_box(box, per_axis)
    codes = morton.encode(grid.voxelize(points))
    permutation = np.argsort(codes, kind="stable")
    ranks = np.empty_like(permutation)
    ranks[permutation] = np.arange(len(permutation))
    return MortonOrder(
        codes=codes,
        permutation=permutation,
        ranks=ranks,
        grid=grid,
        code_bits=code_bits,
    )


def _reference_interpolation_weights(
    points: np.ndarray, sample_result: MortonSampleResult
) -> tuple:
    points = np.asarray(points, dtype=np.float64)
    order = sample_result.order
    n_points = points.shape[0]
    slots = MortonUpsampler().candidate_sample_slots(
        n_points, sample_result
    )
    sorted_points = order.sorted_points(points)
    sampled_xyz = points[sample_result.indices]  # (n, 3) slot order
    candidates = sampled_xyz[slots]  # (N, C, 3)
    d2 = np.sum((candidates - sorted_points[:, None, :]) ** 2, axis=2)
    pick = np.argsort(d2, axis=1, kind="stable")[:, :3]
    rows = np.arange(n_points)[:, None]
    anchor_slots = slots[rows, pick]
    anchor_d2 = d2[rows, pick]
    inv = 1.0 / np.maximum(anchor_d2, 1e-10)
    weights = inv / inv.sum(axis=1, keepdims=True)
    return anchor_slots, weights


def _reference_exact_interpolate(
    points: np.ndarray,
    sampled_indices: np.ndarray,
    sampled_features: np.ndarray,
    num_anchors: int = 3,
) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    sampled_indices = np.asarray(sampled_indices)
    sampled_features = np.asarray(sampled_features, dtype=np.float64)
    sampled_xyz = points[sampled_indices]
    k = min(num_anchors, sampled_xyz.shape[0])
    s_sq = np.sum(sampled_xyz**2, axis=1)[None, :]
    out = np.empty(
        (points.shape[0], sampled_features.shape[1]), dtype=np.float64
    )
    chunk = 4096
    for lo in range(0, points.shape[0], chunk):
        block = points[lo : lo + chunk]
        d2 = (
            np.sum(block**2, axis=1)[:, None]
            - 2.0 * block @ sampled_xyz.T
            + s_sq
        )
        np.maximum(d2, 0.0, out=d2)
        pick = np.argsort(d2, axis=1, kind="stable")[:, :k]
        rows = np.arange(block.shape[0])[:, None]
        inv = 1.0 / np.maximum(d2[rows, pick], 1e-10)
        weights = inv / inv.sum(axis=1, keepdims=True)
        out[lo : lo + chunk] = np.einsum(
            "nac,na->nc", sampled_features[pick], weights
        )
    return out


def _reference_exact_interpolation_weights_batch(
    points: np.ndarray, sampled_indices: np.ndarray
) -> tuple:
    # The full stable sort over (B, N, n) that the row-blocked argmin
    # rounds replaced.
    points = np.asarray(points, dtype=np.float64)
    sampled_xyz = np.take_along_axis(
        points, sampled_indices[:, :, None], axis=1
    )
    d2 = (
        np.sum(points**2, axis=2)[:, :, None]
        - 2.0 * points @ sampled_xyz.transpose(0, 2, 1)
        + np.sum(sampled_xyz**2, axis=2)[:, None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    k = min(3, sampled_xyz.shape[1])
    pick = np.argsort(d2, axis=2, kind="stable")[:, :, :k]
    inv = 1.0 / np.maximum(np.take_along_axis(d2, pick, axis=2), 1e-10)
    weights = inv / inv.sum(axis=2, keepdims=True)
    return pick, weights


def _reference_window_search(
    points: np.ndarray, order: MortonOrder, query_ranks: np.ndarray,
    k: int, window: int,
) -> np.ndarray:
    candidates = window_ranks(query_ranks, window, len(order))
    sorted_xyz = order.sorted_points(points)
    cand_xyz = sorted_xyz[candidates]  # (Q, W, 3)
    query_xyz = sorted_xyz[np.asarray(query_ranks)]
    d2 = np.sum((cand_xyz - query_xyz[:, None, :]) ** 2, axis=2)
    pick = np.argsort(d2, axis=1, kind="stable")[:, :k]
    rows = np.arange(candidates.shape[0])[:, None]
    return order.original_index_of(candidates[rows, pick])


def _reference_fps(
    points: np.ndarray, num_samples: int, start_index: int
) -> np.ndarray:
    selected = np.empty(num_samples, dtype=np.int64)
    selected[0] = start_index
    distance = np.sum((points - points[start_index]) ** 2, axis=1)
    distance[start_index] = -1.0
    for i in range(1, num_samples):
        farthest = int(np.argmax(distance))
        selected[i] = farthest
        delta = np.sum((points - points[farthest]) ** 2, axis=1)
        np.minimum(distance, delta, out=distance)
        distance[selected[: i + 1]] = -1.0
    return selected


def _reference_knn(
    queries: np.ndarray, candidates: np.ndarray, k: int
) -> np.ndarray:
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    c_sq = np.sum(candidates**2, axis=1)[None, :]
    for lo in range(0, queries.shape[0], 2048):
        block = queries[lo : lo + 2048]
        d2 = (
            np.sum(block**2, axis=1)[:, None]
            - 2.0 * block @ candidates.T
            + c_sq
        )
        np.maximum(d2, 0.0, out=d2)
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        row = np.arange(d2.shape[0])[:, None]
        sort = np.argsort(d2[row, part], axis=1, kind="stable")
        out[lo : lo + d2.shape[0]] = part[row, sort]
    return out


batch_params = {
    "seed": st.integers(0, 2**16),
    "batch": st.integers(1, 4),
    "n": st.integers(8, 64),
    "duplicates": st.booleans(),
}


class TestStructurizeIdentity:
    @given(
        **batch_params,
        code_bits=st.sampled_from([30, 32, 63]),
        fixed_box=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_cloud(
        self, seed, batch, n, duplicates, code_bits, fixed_box
    ):
        pts = make_batch(seed, batch, n, duplicates)
        box = BoundingBox(np.full(3, -8.0), np.full(3, 8.0))
        box = box if fixed_box else None
        batched = structurize_batch(pts, code_bits, box)
        for b in range(batch):
            want = _reference_structurize(pts[b], code_bits, box)
            single = structurize_batch(pts[b : b + 1], code_bits, box)
            for got in (_cloud(batched, b), _cloud(single, 0)):
                assert np.array_equal(got.codes, want.codes)
                assert np.array_equal(got.permutation, want.permutation)
                assert np.array_equal(got.ranks, want.ranks)
                assert np.array_equal(got.grid.origin, want.grid.origin)
                assert got.grid.cell_size == want.grid.cell_size

    def test_degenerate_cloud_matches_reference(self):
        pts = np.ones((1, 9, 3))
        want = _reference_structurize(pts[0])
        got = _cloud(structurize_batch(pts), 0)
        assert np.array_equal(got.permutation, want.permutation)
        assert got.grid.cell_size == want.grid.cell_size


class TestSampleIdentity:
    @given(**batch_params, frac=st.sampled_from([2, 4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_matches_per_cloud(self, seed, batch, n, duplicates, frac):
        pts = make_batch(seed, batch, n, duplicates)
        sampler = MortonSampler()
        num_samples = max(1, n // frac)
        batched = sampler.sample_batch(pts, num_samples)
        ranks = uniform_stride_indices(n, num_samples)
        assert np.array_equal(batched.sampled_ranks, ranks)
        for b in range(batch):
            order = _reference_structurize(pts[b])
            want = order.original_index_of(ranks)
            assert np.array_equal(batched.indices[b], want)
            single = sampler.sample_batch(pts[b : b + 1], num_samples)
            assert np.array_equal(single.indices[0], want)


class TestInterpolationIdentity:
    @given(**batch_params, frac=st.sampled_from([2, 4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_morton_weights_match_pre_batching_reference(
        self, seed, batch, n, duplicates, frac
    ):
        pts = make_batch(seed, batch, n, duplicates)
        result = MortonSampler().sample_batch(pts, max(1, n // frac))
        anchors, weights = MortonUpsampler().interpolation_weights_batch(
            pts, result
        )
        for b in range(batch):
            want_anchors, want_weights = _reference_interpolation_weights(
                pts[b], _sample_cloud(result, b)
            )
            assert np.array_equal(anchors[b], want_anchors)
            assert np.array_equal(weights[b], want_weights)

    @given(
        **batch_params,
        num_samples=st.integers(1, 8),
        channels=st.integers(1, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_exact_weights_match_pre_batching_reference(
        self, seed, batch, n, duplicates, num_samples, channels
    ):
        pts = make_batch(seed, batch, n, duplicates)
        rng = np.random.default_rng(seed)
        sampled = np.stack(
            [rng.permutation(n)[:num_samples] for _ in range(batch)]
        )
        feats = rng.normal(size=(batch, num_samples, channels))
        anchors, weights = exact_interpolation_weights_batch(pts, sampled)
        for b in range(batch):
            got = np.einsum("nac,na->nc", feats[b][anchors[b]], weights[b])
            want = _reference_exact_interpolate(pts[b], sampled[b], feats[b])
            assert np.array_equal(got, want)


def _tie_heavy_batch(seed, batch, n_points, num_samples, duplicates):
    """Integer-lattice clouds (many exact distance ties) and samples."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 3, size=(batch, n_points, 3)).astype(np.float64)
    if duplicates:
        m = n_points // 3
        pts[:, n_points - m :] = pts[:, :m]
    sampled = np.stack(
        [rng.permutation(n_points)[:num_samples] for _ in range(batch)]
    )
    return pts, sampled


class TestExactSelectionIdentity:
    """Row-blocked argmin rounds == the stable full sort, bit for bit."""

    @given(
        seed=st.integers(0, 2**16),
        batch=st.integers(1, 3),
        n_points=st.integers(8, 600),
        num_samples=st.sampled_from([1, 2, 3, 4, 40]),
        duplicates=st.booleans(),
        block_rows=st.sampled_from([1, 7, 64, 128, 129]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_stable_sort_across_row_blocks(
        self, seed, batch, n_points, num_samples, duplicates, block_rows
    ):
        pts, sampled = _tie_heavy_batch(
            seed, batch, n_points, min(num_samples, n_points), duplicates
        )
        budget = block_rows * 8 * batch * sampled.shape[1]
        with mock.patch.object(sampler, "EXACT_BLOCK_BYTES", budget):
            anchors, weights = exact_interpolation_weights_batch(pts, sampled)
        want = _reference_exact_interpolation_weights_batch(pts, sampled)
        assert np.array_equal(anchors, want[0])
        assert np.array_equal(weights, want[1])

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_matches_stable_sort_at_default_block(self, duplicates):
        pts, sampled = _tie_heavy_batch(3, 2, 999, 300, duplicates)
        assert 999 > sampler.EXACT_BLOCK_BYTES // (8 * 2 * 300)
        anchors, weights = exact_interpolation_weights_batch(pts, sampled)
        want = _reference_exact_interpolation_weights_batch(pts, sampled)
        assert np.array_equal(anchors, want[0])
        assert np.array_equal(weights, want[1])

    @pytest.mark.parametrize("num_samples", [1, 2, 3, 4, 40])
    def test_non_finite_rows_fall_back_to_stable_sort(self, num_samples):
        pts, sampled = _tie_heavy_batch(5, 2, 300, num_samples, True)
        pts[0, ::7] *= 1e160  # |p|² overflows: inf and NaN distances
        pts[1, sampled[1, 0]] = 1e155
        budget = 64 * 8 * 2 * num_samples
        with np.errstate(over="ignore", invalid="ignore"):
            with mock.patch.object(sampler, "EXACT_BLOCK_BYTES", budget):
                anchors, weights = exact_interpolation_weights_batch(
                    pts, sampled
                )
            want = _reference_exact_interpolation_weights_batch(pts, sampled)
        assert not np.isfinite(weights).all()  # the repair path ran
        assert np.array_equal(anchors, want[0])
        assert np.array_equal(weights, want[1], equal_nan=True)


class TestWindowSearchIdentity:
    @given(
        **batch_params,
        k=st.integers(1, 8),
        window_kind=st.sampled_from(["k", "2k", "n"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_pre_batching_reference(
        self, seed, batch, n, duplicates, k, window_kind
    ):
        pts = make_batch(seed, batch, n, duplicates)
        window = {"k": k, "2k": min(n, 2 * k), "n": n}[window_kind]
        searcher = MortonNeighborSearch(k, window)
        order = structurize_batch(pts)
        query_ranks = uniform_stride_indices(n, max(1, n // 4))
        got = searcher.search_ranks_batch(pts, order, query_ranks)
        for b in range(batch):
            if window == k:
                # Pure index mode: the window ranks verbatim.
                want = _cloud(order, b).original_index_of(
                    window_ranks(query_ranks, k, n)
                )
            else:
                want = _reference_window_search(
                    pts[b], _cloud(order, b), query_ranks, k, window
                )
            assert np.array_equal(got[b], want)

    @given(**batch_params, k=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_search_batch_matches_per_cloud(
        self, seed, batch, n, duplicates, k
    ):
        pts = make_batch(seed, batch, n, duplicates)
        window = min(n, 2 * k)
        searcher = MortonNeighborSearch(k, window)
        got = searcher.search_batch(pts)
        for b in range(batch):
            order = _reference_structurize(pts[b])
            by_rank = _reference_window_search(
                pts[b], order, np.arange(n), k, window
            )
            want = np.empty_like(by_rank)
            want[order.permutation] = by_rank
            assert np.array_equal(got[b], want)
            single = searcher.search_batch(pts[b : b + 1])
            assert np.array_equal(single[0], want)

    def test_per_cloud_ranks_match_shared_ranks(self):
        pts = make_batch(7, 3, 32)
        searcher = MortonNeighborSearch(4, 8)
        order = structurize_batch(pts)
        shared = uniform_stride_indices(32, 8)
        tiled = np.broadcast_to(shared, (3, 8)).copy()
        assert np.array_equal(
            searcher.search_ranks_batch(pts, order, shared),
            searcher.search_ranks_batch(pts, order, tiled),
        )


class TestFpsIdentity:
    @given(**batch_params, frac=st.sampled_from([2, 4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_matches_pre_batching_reference(
        self, seed, batch, n, duplicates, frac
    ):
        pts = make_batch(seed, batch, n, duplicates)
        num_samples = max(1, n // frac)
        got = farthest_point_sample_batch(pts, num_samples, start_index=0)
        for b in range(batch):
            want = _reference_fps(pts[b], num_samples, 0)
            assert np.array_equal(got[b], want)

    def test_wrapper_is_batch_of_one(self):
        pts = make_batch(3, 1, 48)[0]
        got = farthest_point_sample(pts, 12, start_index=5)
        want = farthest_point_sample_batch(pts[None], 12, start_index=5)[0]
        assert np.array_equal(got, want)


class TestExactKernelIdentity:
    @given(
        seed=st.integers(0, 2**16),
        batch=st.integers(1, 3),
        n=st.integers(8, 48),
        dim=st.sampled_from([2, 3, 5]),
        k=st.integers(1, 8),
    )
    @settings(max_examples=20, deadline=None)
    def test_knn_matches_pre_batching_reference(
        self, seed, batch, n, dim, k
    ):
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(batch, n, dim))
        candidates = rng.normal(size=(batch, n + 4, dim))
        got = knn_batch(queries, candidates, k)
        for b in range(batch):
            want = _reference_knn(queries[b], candidates[b], k)
            assert np.array_equal(got[b], want)

    @given(**batch_params, k=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_ball_query_matches_per_cloud(
        self, seed, batch, n, duplicates, k
    ):
        pts = make_batch(seed, batch, n, duplicates)
        got = ball_query_batch(pts, pts, 1.5, k)
        want = np.stack(
            [ball_query(pts[b], pts[b], 1.5, k) for b in range(batch)]
        )
        assert np.array_equal(got, want)

    def test_knn_tiny_budget_still_exact(self):
        # A budget far below one distance row forces 1-row tiles.
        pts = make_batch(11, 2, 64)
        tiny = Workspace(scratch_bytes=64)
        assert np.array_equal(
            knn_batch(pts, pts, 5, tiny), knn_batch(pts, pts, 5)
        )


class TestScratchBudget:
    def test_knn_peak_memory_tracks_budget(self):
        batch, n = 2, 512
        pts = make_batch(0, batch, n)
        full_d2_bytes = batch * n * n * 8  # what (B, Q, N) would cost
        budget = 256 * 1024
        workspace = Workspace(scratch_bytes=budget)
        knn_batch(pts, pts, 16, workspace)  # warm the pool
        tracemalloc.start()
        knn_batch(pts, pts, 16, workspace)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Peak transient = argpartition/argsort temporaries over one
        # budget-sized tile (a few tile-sized int64 blocks), far below
        # the full materialization the chunking exists to avoid.
        assert peak < full_d2_bytes / 2
        assert peak < 8 * budget

    def test_workspace_reuse_across_calls(self):
        pts = make_batch(1, 2, 128)
        workspace = Workspace()
        searcher = MortonNeighborSearch(4, 8, workspace=workspace)
        searcher.search_batch(pts)
        allocated = workspace.bytes_allocated
        hits_before = workspace.hits
        searcher.search_batch(pts)
        assert workspace.bytes_allocated == allocated  # pool stable
        assert workspace.hits > hits_before  # buffers were reused


class TestModelForwardGoldens:
    """Full forwards vs outputs captured before the batched engine."""

    def _models(self):
        from repro.nn.dgcnn import DGCNNClassifier, DGCNNSegmentation
        from repro.nn.pointnet2 import (
            PointNet2Classifier,
            PointNet2Segmentation,
            SAConfig,
        )

        tiny_sa = (
            SAConfig(0.5, 4, 1.5, (8, 8)),
            SAConfig(0.5, 4, 3.0, (16, 16)),
        )
        configs = {
            "base": EdgePCConfig.baseline(),
            "edgepc": EdgePCConfig.paper_default(),
            "all": EdgePCConfig(
                sample_layers={0, 1}, upsample_layers={0, 1},
                neighbor_layers={0, 1},
            ),
            "insights": EdgePCConfig.with_architectural_insights(),
        }
        for tag, cfg in configs.items():
            rng = np.random.default_rng(0)
            yield f"pn2seg_{tag}", PointNet2Segmentation(
                num_classes=3, sa_configs=tiny_sa, edgepc=cfg,
                head_hidden=8, rng=rng,
            )
            rng = np.random.default_rng(0)
            yield f"pn2cls_{tag}", PointNet2Classifier(
                num_classes=5, sa_configs=tiny_sa, edgepc=cfg,
                head_hidden=8, rng=rng,
            )
            rng = np.random.default_rng(0)
            yield f"dgcnncls_{tag}", DGCNNClassifier(
                num_classes=4, k=4, ec_channels=((8,), (8,), (16,)),
                emb_channels=16, head_hidden=8, edgepc=cfg, rng=rng,
            )
            rng = np.random.default_rng(0)
            yield f"dgcnnseg_{tag}", DGCNNSegmentation(
                num_classes=4, k=4, ec_channels=((8,), (8,), (16,)),
                emb_channels=16, head_hidden=8, edgepc=cfg, rng=rng,
            )

    @pytest.mark.skipif(not GOLDEN.exists(), reason="golden npz missing")
    def test_forwards_match_pre_batching_goldens(self):
        golden = np.load(GOLDEN)
        xyz = np.random.default_rng(42).normal(size=(4, 64, 3))
        checked = 0
        for key, model in self._models():
            out = model.eval()(xyz).data
            assert np.array_equal(out, golden[key]), key
            checked += 1
        assert checked == len(golden.files) == 16

    @pytest.mark.skipif(not GOLDEN.exists(), reason="golden npz missing")
    @pytest.mark.parametrize("block_rows", [None, 16, 48, 192])
    def test_inference_path_matches_goldens(self, monkeypatch, block_rows):
        """Under ``no_grad`` the shared MLPs and heads run in place, SA /
        EdgeConv run group -> MLP -> max-pool in query blocks and FP
        runs interpolate -> concat -> MLP in blocks of whole clouds.
        At B=4, k=4, 16 rows is one query per block and 48 is three, a
        non-divisor of every level's 16 / 32 / 64 queries (ragged
        tail); both put one cloud in an FP block.  192 puts three of
        the four 64-point clouds in an FP block (ragged 3 + 1).
        ``tobytes`` also catches a ``-0.0`` / ``0.0`` flip.  The input
        and the parameters stay byte-unchanged."""
        if block_rows is not None:
            monkeypatch.setattr(
                functional, "INFERENCE_BLOCK_ROWS", block_rows
            )
        golden = np.load(GOLDEN)
        xyz = np.random.default_rng(42).normal(size=(4, 64, 3))
        xyz_bytes = xyz.tobytes()
        checked = 0
        for key, model in self._models():
            params = [p.data.tobytes() for p in model.parameters()]
            with no_grad():
                out = model.eval()(xyz).data
            assert out.tobytes() == golden[key].tobytes(), key
            assert xyz.tobytes() == xyz_bytes, key
            assert [p.data.tobytes() for p in model.parameters()] == params
            checked += 1
        assert checked == 16

    def test_paper_config_forward_peak_memory(self):
        """A warm ``no_grad`` PointNet++(s) forward on the paper config
        (B=4 x 4096 points) stays within 16 MiB of transient memory:
        FP streams its interpolation into one block-sized array and the
        head runs in place.  The whole-array FP path peaked at 32.5 MiB
        here, in its ``(B, N, 3, C)`` level-3 gather."""
        from repro.nn.pointnet2 import PointNet2Segmentation

        model = PointNet2Segmentation(
            13, edgepc=EdgePCConfig.paper_default()
        ).eval()
        xyz = np.random.default_rng(0).normal(size=(4, 4096, 3))
        with no_grad():
            model(xyz)  # fill the workspace's scratch pool
            tracemalloc.start()
            try:
                baseline, _ = tracemalloc.get_traced_memory()
                model(xyz)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak - baseline <= 16 * 2**20

    def test_dgcnn_segmentation_forward_peak_memory(self):
        """A warm ``no_grad`` DGCNN(s) forward (B=8 x 1024 points) stays
        within 32 MiB of transient memory: the per-point head runs per
        block of whole clouds.  Building the whole ``(B, N, concat +
        emb)`` merged array peaked at 48 MiB here; per block, 24.8."""
        from repro.nn.dgcnn import DGCNNSegmentation

        model = DGCNNSegmentation(
            13, edgepc=EdgePCConfig.paper_default()
        ).eval()
        xyz = np.random.default_rng(0).normal(size=(8, 1024, 3))
        with no_grad():
            model(xyz)  # fill the workspace's scratch pool
            tracemalloc.start()
            try:
                baseline, _ = tracemalloc.get_traced_memory()
                model(xyz)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak - baseline <= 32 * 2**20


def _relu_features(rng, shape):
    """ReLU'd normals (``-0.0`` where negative) with channel 0 ``-0.0``
    throughout, so every anchor triple of that channel is ``-0.0``."""
    x = rng.normal(size=shape)
    x = x * (x > 0)
    x[..., 0] = -0.0
    return x


class TestStreamedInterpolation:
    """The tape-free FP interpolation vs the tape expression, in bytes."""

    def test_interpolate_into_matches_tape_sum(self):
        from repro.nn.autograd import Tensor

        rng = np.random.default_rng(3)
        coarse = _relu_features(rng, (3, 16, 5))
        anchors = rng.integers(0, 16, size=(3, 40, 3))
        weights = rng.random((3, 40, 3))
        want = (
            functional.group_points(Tensor(coarse), anchors).data
            * weights[:, :, :, None]
        ).sum(axis=2)
        got = functional.interpolate_into(
            np.full((3, 40, 5), np.nan), coarse, anchors, weights
        )
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[..., 0]).any()  # +0.0, as np.sum

    @pytest.mark.parametrize("morton", [False, True])
    def test_fp_in_place_matches_tape(self, monkeypatch, morton):
        """The FP module's whole-cloud blocks (one cloud per block at
        B=3) reproduce ``(group_points(coarse, anchors) * w).sum(2)``,
        the rank gather (Morton) and the skip concat.  An identity MLP
        exposes the merged array itself."""
        from repro.nn.autograd import Tensor
        from repro.nn.layers import Dropout, Sequential
        from repro.nn.pointnet2 import FeaturePropagation, _LevelState
        from repro.nn.recorder import StageRecorder

        n_fine, n_coarse = 64, 16
        monkeypatch.setattr(functional, "INFERENCE_BLOCK_ROWS", n_fine)
        rng = np.random.default_rng(5)
        xyz = make_batch(5, 3, n_fine, duplicates=True)
        if morton:
            cfg = EdgePCConfig(upsample_layers={0})
            result = sampler.MortonSampler(cfg.code_bits).sample_batch(
                xyz, n_coarse
            )
            state = _LevelState(
                xyz=xyz, features=None, sample_result=result,
                sampled_indices=result.indices,
            )
        else:
            cfg = EdgePCConfig.baseline()
            state = _LevelState(
                xyz=xyz, features=None,
                sampled_indices=np.stack([
                    rng.choice(n_fine, n_coarse, replace=False)
                    for _ in range(3)
                ]),
            )
        fp = FeaturePropagation(0, 6, 2, (8,), cfg)
        fp.mlp = Sequential(Dropout(0.0)).eval()
        coarse = Tensor(_relu_features(rng, (3, n_coarse, 6)))
        skip = Tensor(rng.normal(size=(3, n_fine, 2)))
        recorder = StageRecorder()
        want = fp(xyz, skip, coarse, state, recorder).data
        with no_grad():
            got = fp(xyz, skip, coarse, state).data
        assert recorder.events[0].op == (
            "interp_morton" if morton else "interp_exact"
        )
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[..., 0]).any()
