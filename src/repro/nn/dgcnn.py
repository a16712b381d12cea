"""DGCNN (Wang et al.) over the NumPy substrate.

Architecture per the paper's Fig. 2b: a chain of EdgeConv (EC) modules.
Each EC finds k nearest neighbors — the *first* module in coordinate
space, later modules in *feature* space — builds edge features
``[x_i, x_j - x_i]``, applies a shared MLP, and max-pools over
neighbors.  The point count never changes, so DGCNN has no sampling
stage (paper Sec. 3.1).

EdgePC integration (Sec. 5.2.3):

- EC module 0 queries in 3-D coordinate space, so its kNN can be
  replaced by the Morton index-window search.
- Later modules measure distance between high-dimensional features,
  which Morton codes cannot index; EdgePC instead interleaves *reuse*
  of the previous module's neighbor indices with exact recomputation,
  governed by :class:`~repro.core.reuse.NeighborReusePolicy`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.neighbor import MortonNeighborSearch
from repro.core.pipeline import EdgePCConfig
from repro.core.reuse import NeighborCache
from repro.core.workspace import Workspace
from repro.neighbors.batched import knn_batch, knn_grid_batch
from repro.neighbors.grid import GridQueryStats
from repro.nn.autograd import Tensor, concatenate
from repro.nn.functional import (
    cloud_blocks,
    edge_features,
    edge_features_into,
    max_pool_neighbors,
    query_blocks,
)
from repro.nn.layers import (
    Dropout,
    LeakyReLU,
    Linear,
    Module,
    chain_runs_in_place,
    run_chain,
    shared_mlp,
)
from repro.nn.plan import (
    edgeconv_plan,
    linear_widths,
    matmul_plan,
    stage_kernels,
    with_measured,
)
from repro.nn.recorder import (
    STAGE_NEIGHBOR,
    NullRecorder,
    StageEvent,
    StageRecorder,
)


class EdgeConv(Module):
    """One EdgeConv module: kNN graph -> edge features -> MLP -> max."""

    def __init__(
        self,
        layer_index: int,
        in_channels: int,
        out_channels: Tuple[int, ...],
        k: int,
        edgepc: EdgePCConfig,
        rng: Optional[np.random.Generator] = None,
        workspace: Optional[Workspace] = None,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("k must be positive")
        self.layer_index = layer_index
        self.k = k
        self.edgepc = edgepc
        channels = (2 * in_channels,) + tuple(out_channels)
        self.mlp_channels = channels
        self.mlp = shared_mlp(channels, rng=rng, activation="leaky_relu")
        self.out_channels = channels[-1]
        self.workspace = workspace or Workspace()

    def _graph(
        self,
        xyz: np.ndarray,
        features: Tensor,
        cache: NeighborCache,
        kernel: StageEvent,
    ) -> Tuple[np.ndarray, Dict]:
        """Run (or reuse) the plan's neighbor kernel; returns the
        ``(B, N, k)`` neighbor graph and the measured scan counts."""
        if kernel.op == "reuse":
            return cache.load(), {}
        measured: Dict = {}
        if kernel.op == "morton_window":
            searcher = MortonNeighborSearch(
                self.k, int(kernel.counts["window"]),
                self.edgepc.code_bits, self.workspace,
            )
            out = searcher.search_batch(xyz)
        else:
            space = xyz if self.layer_index == 0 else features.data
            if kernel.op == "knn_grid":
                # Large-N exact path: grid cell-list kNN (xyz space
                # only — feature-space graphs are high-dimensional).
                stats = GridQueryStats()
                out = knn_grid_batch(
                    space, space, self.k,
                    workspace=self.workspace, stats=stats,
                )
                measured = dict(
                    pairs_scanned=stats.pairs_scanned / space.shape[0],
                    rounds=stats.rounds,
                )
            else:
                out = knn_batch(space, space, self.k, self.workspace)
        cache.store(out)
        return out, measured

    def forward(
        self,
        xyz: np.ndarray,
        features: Tensor,
        cache: NeighborCache,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        recorder = NullRecorder() if recorder is None else recorder
        batch, n_points = features.shape[0], features.shape[1]
        plan = edgeconv_plan(
            self.layer_index, (n_points, self.k), self.mlp_channels,
            batch, self.edgepc,
        )
        kernel = stage_kernels(plan)[STAGE_NEIGHBOR]
        neighbor_idx, scanned = self._graph(xyz, features, cache, kernel)
        plan = with_measured(plan, kernel.op, **scanned)
        if self.edgepc.sorted_grouping:
            # Sec. 5.4.2: order within a neighborhood is irrelevant to
            # the max-pooled edge aggregation.
            neighbor_idx = np.sort(neighbor_idx, axis=-1)
        if self.mlp.runs_in_place():
            pooled = self._pool_in_place(features.data, neighbor_idx)
        else:
            edges = edge_features(features, neighbor_idx)
            pooled = max_pool_neighbors(self.mlp(edges))
        recorder.record_plan(plan)
        return pooled

    def _pool_in_place(
        self, features: np.ndarray, neighbor_idx: np.ndarray
    ) -> Tensor:
        """Edges -> MLP -> max-pool per query block, tape-free: each
        block's edges go into one workspace buffer and its pooled rows
        into the ``(B, N, C_out)`` output."""
        batch, n_points, k = neighbor_idx.shape
        width = 2 * features.shape[2]
        out = np.empty((batch, n_points, self.out_channels))
        for rows in query_blocks(batch, n_points, k):
            edges = self.workspace.buffer(
                "edgeconv.edges", (batch, rows.stop - rows.start, k, width)
            )
            edge_features_into(
                edges, features, neighbor_idx[:, rows], start=rows.start
            )
            out[:, rows] = self.mlp(Tensor(edges), pool_axis=2).data
        return Tensor(out)


class _DGCNNBackbone(Module):
    """The shared EC chain + per-point concat used by every variant."""

    def __init__(
        self,
        in_channels: int,
        ec_channels: Sequence[Tuple[int, ...]],
        k: int,
        edgepc: EdgePCConfig,
        rng: np.random.Generator,
        workspace: Optional[Workspace] = None,
    ) -> None:
        super().__init__()
        self.ec_modules: List[EdgeConv] = []
        workspace = workspace or Workspace()
        channels = in_channels
        for i, out_channels in enumerate(ec_channels):
            module = EdgeConv(
                i, channels, out_channels, k, edgepc, rng, workspace
            )
            setattr(self, f"ec{i}", module)
            self.ec_modules.append(module)
            channels = module.out_channels
        self.concat_channels = sum(m.out_channels for m in self.ec_modules)

    def forward(
        self,
        xyz: np.ndarray,
        features: Tensor,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        cache = NeighborCache()
        outputs: List[Tensor] = []
        current = features
        for module in self.ec_modules:
            current = module(xyz, current, cache, recorder)
            outputs.append(current)
        return concatenate(outputs, axis=2)  # (B, N, sum C)


class DGCNNClassifier(Module):
    """DGCNN(c): EC chain -> global max pool -> MLP head."""

    def __init__(
        self,
        num_classes: int,
        k: int = 16,
        ec_channels: Sequence[Tuple[int, ...]] = ((32,), (32,), (64,)),
        emb_channels: int = 128,
        head_hidden: int = 64,
        dropout: float = 0.4,
        edgepc: Optional[EdgePCConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.edgepc = edgepc or EdgePCConfig.baseline()
        self.num_classes = num_classes
        self.workspace = Workspace()
        self.backbone = _DGCNNBackbone(
            3, ec_channels, k, self.edgepc, rng, self.workspace
        )
        self.embedding = Linear(
            self.backbone.concat_channels, emb_channels, rng=rng
        )
        self.embedding_act = LeakyReLU(0.2)
        self.head_hidden = Linear(emb_channels, head_hidden, rng=rng)
        self.head_act = LeakyReLU(0.2)
        self.head_dropout = Dropout(dropout, rng=rng)
        self.head_out = Linear(head_hidden, num_classes, rng=rng)

    def forward(
        self,
        xyz: np.ndarray,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        """Per-cloud logits ``(B, num_classes)``."""
        xyz = np.asarray(xyz, dtype=np.float64)
        if xyz.ndim != 3 or xyz.shape[2] != 3:
            raise ValueError(f"xyz must be (B, N, 3), got {xyz.shape}")
        recorder = NullRecorder() if recorder is None else recorder
        features = Tensor(xyz)
        per_point = self.backbone(xyz, features, recorder)
        pooled = run_chain(
            (self.embedding, self.embedding_act), per_point, pool_axis=1
        )
        layer = len(self.backbone.ec_modules)
        recorder.record_plan(matmul_plan(
            layer, linear_widths(self.embedding),
            xyz.shape[0] * xyz.shape[1],
        ))
        logits = run_chain((
            self.head_hidden, self.head_act, self.head_dropout,
            self.head_out,
        ), pooled)
        recorder.record_plan(matmul_plan(
            layer + 1, linear_widths(self.head_hidden, self.head_out),
            xyz.shape[0],
        ))
        return logits


class DGCNNSegmentation(Module):
    """DGCNN(s) / DGCNN(p): EC chain -> global context -> per-point head.

    The part-segmentation and semantic-segmentation variants share this
    structure; they differ only in dataset and class count.
    """

    def __init__(
        self,
        num_classes: int,
        k: int = 16,
        ec_channels: Sequence[Tuple[int, ...]] = ((32,), (32,), (64,)),
        emb_channels: int = 128,
        head_hidden: int = 64,
        dropout: float = 0.4,
        edgepc: Optional[EdgePCConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.edgepc = edgepc or EdgePCConfig.baseline()
        self.num_classes = num_classes
        self.workspace = Workspace()
        self.backbone = _DGCNNBackbone(
            3, ec_channels, k, self.edgepc, rng, self.workspace
        )
        self.embedding = Linear(
            self.backbone.concat_channels, emb_channels, rng=rng
        )
        self.embedding_act = LeakyReLU(0.2)
        head_in = self.backbone.concat_channels + emb_channels
        self.head_hidden = Linear(head_in, head_hidden, rng=rng)
        self.head_act = LeakyReLU(0.2)
        self.head_dropout = Dropout(dropout, rng=rng)
        self.head_out = Linear(head_hidden, num_classes, rng=rng)

    def forward(
        self,
        xyz: np.ndarray,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        """Per-point logits ``(B, N, num_classes)``."""
        xyz = np.asarray(xyz, dtype=np.float64)
        if xyz.ndim != 3 or xyz.shape[2] != 3:
            raise ValueError(f"xyz must be (B, N, 3), got {xyz.shape}")
        recorder = NullRecorder() if recorder is None else recorder
        n_points = xyz.shape[1]
        features = Tensor(xyz)
        per_point = self.backbone(xyz, features, recorder)
        global_context = run_chain(
            (self.embedding, self.embedding_act), per_point, pool_axis=1
        )
        layer = len(self.backbone.ec_modules)
        rows = xyz.shape[0] * n_points
        recorder.record_plan(
            matmul_plan(layer, linear_widths(self.embedding), rows)
        )
        head = (
            self.head_hidden, self.head_act, self.head_dropout,
            self.head_out,
        )
        if chain_runs_in_place(head):
            logits = self._head_in_place(
                head, per_point.data, global_context.data
            )
        else:
            tiled = global_context.expand_dims(1).broadcast_to(
                (xyz.shape[0], n_points, global_context.shape[1])
            )
            merged = concatenate([per_point, tiled], axis=2)
            logits = run_chain(head, merged)
        recorder.record_plan(matmul_plan(
            layer + 1, linear_widths(self.head_hidden, self.head_out), rows
        ))
        return logits

    def _head_in_place(
        self,
        head: Tuple[Module, ...],
        per_point: np.ndarray,
        global_context: np.ndarray,
    ) -> Tensor:
        """The per-point head over blocks of whole clouds
        (:func:`~repro.nn.functional.cloud_blocks`), each
        ``per_point ‖ global_context`` block built in one array;
        byte-identical to the whole-batch tape expression."""
        batch, n_points, c_point = per_point.shape
        out = np.empty((batch, n_points, self.num_classes))
        for clouds in cloud_blocks(batch, n_points):
            merged = np.empty((
                clouds.stop - clouds.start, n_points,
                c_point + global_context.shape[1],
            ))
            merged[:, :, :c_point] = per_point[clouds]
            merged[:, :, c_point:] = global_context[clouds, None, :]
            out[clouds] = run_chain(head, Tensor(merged)).data
        return Tensor(out)
