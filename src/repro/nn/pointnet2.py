"""PointNet++ (Qi et al., NeurIPS 2017) over the NumPy substrate.

The architecture follows the paper's Fig. 2a: a stack of SetAbstraction
(SA) modules that down-sample and aggregate local neighborhoods,
mirrored by FeaturePropagation (FP) modules that interpolate features
back up, with skip connections between matching levels, and a per-point
segmentation head (or a global classification head).

EdgePC integration: each SA/FP module builds its op plan
(:mod:`repro.nn.plan`) from its :class:`~repro.core.pipeline.EdgePCConfig`
on every call; the plan names whether its sampling, neighbor-search,
and interpolation stages run the exact SOTA kernels (FPS / ball query /
full 3-NN interpolation, or their large-N fast engines) or the Morton
approximations.  The forward runs the kernels the plan names and
reports the plan, with measured scan counts, to a
:class:`~repro.nn.recorder.StageRecorder`, which the runtime package
converts into simulated edge-GPU latency/energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.neighbor import MortonNeighborSearch
from repro.core.pipeline import EdgePCConfig
from repro.core.sampler import (
    BatchedSampleResult,
    MortonSampler,
    MortonUpsampler,
    exact_interpolation_weights_batch,
    exact_interpolation_weights_grid_batch,
)
from repro.core.workspace import Workspace
from repro.neighbors.batched import (
    ball_query_batch,
    ball_query_grid_batch,
)
from repro.neighbors.grid import GridQueryStats
from repro.nn.autograd import Tensor, concatenate
from repro.nn.functional import (
    cloud_blocks,
    gather_points,
    group_points,
    interpolate_into,
    max_pool_neighbors,
    query_blocks,
    relative_group_into,
    relative_neighborhoods,
)
from repro.nn.layers import (
    Dropout,
    Linear,
    Module,
    ReLU,
    run_chain,
    shared_mlp,
)
from repro.nn.plan import (
    fp_plan,
    linear_widths,
    matmul_plan,
    sa_plan,
    stage_kernels,
    with_measured,
)
from repro.nn.recorder import (
    STAGE_NEIGHBOR,
    STAGE_SAMPLE,
    NullRecorder,
    StageEvent,
    StageRecorder,
)
from repro.sampling.fps import (
    FastFpsStats,
    farthest_point_sample_batch,
    farthest_point_sample_fast_batch,
)


@dataclass(frozen=True)
class SAConfig:
    """Hyper-parameters of one SetAbstraction module.

    Attributes:
        ratio: down-sampling ratio (``n = max(1, N * ratio)``).
        k: neighbors grouped per sampled point.
        radius: ball-query radius of the exact searcher.
        mlp: shared-MLP output channels (input inferred).
    """

    ratio: float
    k: int
    radius: float
    mlp: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 < self.ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if not self.mlp:
            raise ValueError("mlp must have at least one stage")


#: A compact PointNet++(s) configuration: 4 SA levels that each keep a
#: quarter of the points, as in the original semantic-segmentation net.
DEFAULT_SA_CONFIGS = (
    SAConfig(0.25, 16, 0.1, (16, 16, 32)),
    SAConfig(0.25, 16, 0.2, (32, 32, 64)),
    SAConfig(0.25, 16, 0.4, (64, 64, 128)),
    SAConfig(0.25, 16, 0.8, (128, 128, 256)),
)


@dataclass
class _LevelState:
    """Forward-pass bookkeeping for one resolution level."""

    xyz: np.ndarray  # (B, N_l, 3)
    features: Tensor  # (B, N_l, C_l)
    sample_result: Optional[BatchedSampleResult] = None
    sampled_indices: Optional[np.ndarray] = None  # (B, n) into parent


class SetAbstraction(Module):
    """One SA module: sample -> neighbor search -> group -> MLP -> pool."""

    def __init__(
        self,
        layer_index: int,
        in_channels: int,
        config: SAConfig,
        edgepc: EdgePCConfig,
        rng: Optional[np.random.Generator] = None,
        workspace: Optional[Workspace] = None,
    ) -> None:
        super().__init__()
        self.layer_index = layer_index
        self.config = config
        self.edgepc = edgepc
        # +3 for the relative xyz channel prepended to grouped features.
        channels = (in_channels + 3,) + tuple(config.mlp)
        self.mlp_channels = channels
        self.mlp = shared_mlp(channels, rng=rng)
        self.out_channels = channels[-1]
        self._morton_sampler = MortonSampler(edgepc.code_bits)
        self.workspace = workspace or Workspace()

    # Index computation (NumPy, outside autograd) -----------------------

    def _sample(
        self, xyz: np.ndarray, n_out: int, kernel: StageEvent
    ) -> Tuple[np.ndarray, Optional[BatchedSampleResult], Dict]:
        """Run the plan's sampling kernel; returns the ``(B, n)``
        indices, the Morton sample result (or None) and the measured
        scan counts."""
        if kernel.op == "uniform_pick":
            result = self._morton_sampler.sample_batch(xyz, n_out)
            return result.indices, result, {}
        if kernel.op == "fps_fast":
            # Large-N exact path: pruning FPS, bit-identical picks.
            batch = xyz.shape[0]
            stats = FastFpsStats()
            indices = farthest_point_sample_fast_batch(
                xyz, n_out, start_index=0, stats=stats
            )
            return indices, None, dict(
                points_scanned=stats.points_scanned / batch,
                blocks_applied=stats.block_updates_applied / batch,
                blocks_pruned=stats.block_updates_pruned / batch,
            )
        indices = farthest_point_sample_batch(xyz, n_out, start_index=0)
        return indices, None, {}

    def _neighbors(
        self,
        xyz: np.ndarray,
        sampled: np.ndarray,
        sample_result: Optional[BatchedSampleResult],
        kernel: StageEvent,
    ) -> Tuple[np.ndarray, Dict]:
        """Run the plan's neighbor kernel; returns the ``(B, n, k)``
        neighbor indices and the measured scan counts."""
        k = self.config.k
        if kernel.op == "morton_window":
            searcher = MortonNeighborSearch(
                k, int(kernel.counts["window"]), self.edgepc.code_bits,
                self.workspace,
            )
            if sample_result is not None:
                # Reuse the sampler's Morton codes (Sec. 5.2.3).
                return searcher.search_batch(
                    xyz, sampled, sample_result.order
                ), {}
            return searcher.search_batch(xyz, sampled), {}
        centers = np.take_along_axis(xyz, sampled[:, :, None], axis=1)
        if kernel.op == "ball_query_grid":
            # Large-N exact path: grid cell-list ball query, identical
            # output rows.
            stats = GridQueryStats()
            out = ball_query_grid_batch(
                centers, xyz, self.config.radius, k,
                workspace=self.workspace, stats=stats,
            )
            return out, dict(
                pairs_scanned=stats.pairs_scanned / xyz.shape[0],
                rounds=stats.rounds,
            )
        out = ball_query_batch(
            centers, xyz, self.config.radius, k, self.workspace
        )
        return out, {}

    # Forward ------------------------------------------------------------

    def forward(
        self,
        xyz: np.ndarray,
        features: Tensor,
        recorder: Optional[StageRecorder] = None,
    ) -> Tuple[np.ndarray, Tensor, _LevelState]:
        """Run the module.

        Args:
            xyz: ``(B, N, 3)`` input coordinates (data, not Tensor).
            features: ``(B, N, C)`` input features.
            recorder: optional stage recorder.

        Returns:
            ``(new_xyz, new_features, state)`` where ``state`` carries
            the sample results the matching FP module may reuse.
        """
        recorder = NullRecorder() if recorder is None else recorder
        batch, n_points, _ = xyz.shape
        n_out = max(1, int(round(n_points * self.config.ratio)))
        plan = sa_plan(
            self.layer_index, (n_points, n_out, self.config.k),
            self.mlp_channels, batch, self.edgepc,
        )
        kernels = stage_kernels(plan)
        sample_kernel = kernels[STAGE_SAMPLE]
        sampled, sample_result, scanned = self._sample(
            xyz, n_out, sample_kernel
        )
        plan = with_measured(plan, sample_kernel.op, **scanned)
        neighbor_kernel = kernels[STAGE_NEIGHBOR]
        neighbor_idx, scanned = self._neighbors(
            xyz, sampled, sample_result, neighbor_kernel
        )
        plan = with_measured(plan, neighbor_kernel.op, **scanned)
        if self.edgepc.sorted_grouping:
            # Sec. 5.4.2: row-sorting is a no-op for the max-pooled
            # aggregation but coalesces the gather's memory accesses.
            neighbor_idx = np.sort(neighbor_idx, axis=-1)
        if self.mlp.runs_in_place():
            pooled = self._pool_in_place(
                xyz, features.data, sampled, neighbor_idx
            )
        else:
            rel = relative_neighborhoods(xyz, sampled, neighbor_idx)
            grouped = group_points(features, neighbor_idx)
            grouped = concatenate([Tensor(rel), grouped], axis=3)
            out = self.mlp(grouped)  # (B, n, k, C_out)
            pooled = max_pool_neighbors(out)
        recorder.record_plan(plan)
        new_xyz = np.take_along_axis(xyz, sampled[:, :, None], axis=1)
        state = _LevelState(
            xyz=new_xyz,
            features=pooled,
            sample_result=sample_result,
            sampled_indices=sampled,
        )
        return new_xyz, pooled, state

    def _pool_in_place(
        self,
        xyz: np.ndarray,
        features: np.ndarray,
        sampled: np.ndarray,
        neighbor_idx: np.ndarray,
    ) -> Tensor:
        """Group -> MLP -> max-pool per query block, tape-free: each
        block's ``rel ‖ grouped`` rows go into one workspace buffer and
        its pooled rows into the ``(B, n, C_out)`` output."""
        batch, n_out, k = neighbor_idx.shape
        width = 3 + features.shape[2]
        out = np.empty((batch, n_out, self.out_channels))
        for rows in query_blocks(batch, n_out, k):
            grouped = self.workspace.buffer(
                "sa.grouped", (batch, rows.stop - rows.start, k, width)
            )
            relative_group_into(
                grouped, xyz, features, sampled[:, rows],
                neighbor_idx[:, rows],
            )
            out[:, rows] = self.mlp(Tensor(grouped), pool_axis=2).data
        return Tensor(out)


class FeaturePropagation(Module):
    """One FP module: interpolate coarse features up, concat skip, MLP."""

    def __init__(
        self,
        layer_index: int,
        coarse_channels: int,
        skip_channels: int,
        mlp: Tuple[int, ...],
        edgepc: EdgePCConfig,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.layer_index = layer_index
        self.edgepc = edgepc
        channels = (coarse_channels + skip_channels,) + tuple(mlp)
        self.mlp_channels = channels
        self.mlp = shared_mlp(channels, rng=rng)
        self.out_channels = channels[-1]
        self._upsampler = MortonUpsampler()

    def forward(
        self,
        fine_xyz: np.ndarray,
        fine_features: Tensor,
        coarse_features: Tensor,
        sa_state: _LevelState,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        """Propagate ``coarse_features`` onto the fine level.

        Args:
            fine_xyz: ``(B, N, 3)`` coordinates of the fine level.
            fine_features: ``(B, N, C_skip)`` skip features.
            coarse_features: ``(B, n, C_coarse)`` features to upsample.
            sa_state: the matching SA module's state (sampled indices
                and, if it ran the Morton sampler, the sample results).
        """
        recorder = NullRecorder() if recorder is None else recorder
        batch, n_fine, _ = fine_xyz.shape
        result = sa_state.sample_result
        plan = fp_plan(
            self.layer_index, (n_fine, coarse_features.shape[1]),
            self.mlp_channels, batch, self.edgepc,
            morton_sampled=result is not None,
        )
        op = stage_kernels(plan)[STAGE_SAMPLE].op
        morton = op == "interp_morton"
        if morton:
            anchors, weights = (
                self._upsampler.interpolation_weights_batch(
                    fine_xyz, result
                )
            )
        elif op == "interp_grid":
            # Large-N exact path: 3-NN over each point's 27-cell ring.
            stats = GridQueryStats()
            anchors, weights = exact_interpolation_weights_grid_batch(
                fine_xyz, sa_state.sampled_indices, stats=stats
            )
            plan = with_measured(
                plan, op, pairs_scanned=stats.pairs_scanned / batch
            )
        else:
            anchors, weights = exact_interpolation_weights_batch(
                fine_xyz, sa_state.sampled_indices
            )
        if self.mlp.runs_in_place():
            if morton:
                # Morton anchor rows follow sorted order; gather them by
                # rank to produce the rows in the original order.
                ranks = result.order.ranks[:, :, None]
                anchors = np.take_along_axis(anchors, ranks, axis=1)
                weights = np.take_along_axis(weights, ranks, axis=1)
            out = self._propagate_in_place(
                coarse_features.data, fine_features.data, anchors, weights
            )
        else:
            picked = group_points(coarse_features, anchors)
            upsampled = (picked * Tensor(weights[:, :, :, None])).sum(
                axis=2
            )
            if morton:
                # Morton anchor rows follow sorted order; gather by rank
                # to restore the original order.
                upsampled = gather_points(upsampled, result.order.ranks)
            merged = concatenate([upsampled, fine_features], axis=2)
            out = self.mlp(merged)
        recorder.record_plan(plan)
        return out

    def _propagate_in_place(
        self,
        coarse: np.ndarray,
        skip: np.ndarray,
        anchors: np.ndarray,
        weights: np.ndarray,
    ) -> Tensor:
        """Interpolate -> skip concat -> MLP over blocks of whole clouds
        (:func:`~repro.nn.functional.cloud_blocks`), each built in one
        ``merged`` array; byte-identical to the tape expression."""
        batch, n_fine, _ = anchors.shape
        c_coarse = coarse.shape[2]
        out = np.empty((batch, n_fine, self.out_channels))
        for clouds in cloud_blocks(batch, n_fine):
            merged = np.empty(
                (clouds.stop - clouds.start, n_fine,
                 c_coarse + skip.shape[2])
            )
            interpolate_into(
                merged[:, :, :c_coarse], coarse[clouds],
                anchors[clouds], weights[clouds],
            )
            merged[:, :, c_coarse:] = skip[clouds]
            out[clouds] = self.mlp(Tensor(merged)).data
        return Tensor(out)


class PointNet2Segmentation(Module):
    """PointNet++(s): hierarchical encoder + FP decoder + per-point head.

    Args:
        num_classes: per-point label count.
        in_channels: input feature channels (0 for xyz-only input, in
            which case a constant 1-channel feature is synthesized).
        sa_configs: per-level hyper-parameters.
        edgepc: the approximation configuration.
    """

    def __init__(
        self,
        num_classes: int,
        in_channels: int = 0,
        sa_configs: Sequence[SAConfig] = DEFAULT_SA_CONFIGS,
        edgepc: Optional[EdgePCConfig] = None,
        head_hidden: int = 32,
        dropout: float = 0.3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.edgepc = edgepc or EdgePCConfig.baseline()
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.sa_configs = tuple(sa_configs)
        self.sa_modules: List[SetAbstraction] = []
        self.workspace = Workspace()
        channels = max(in_channels, 1)
        skip_channels = [channels]
        for i, cfg in enumerate(self.sa_configs):
            module = SetAbstraction(
                i, channels, cfg, self.edgepc, rng, self.workspace
            )
            setattr(self, f"sa{i}", module)
            self.sa_modules.append(module)
            channels = module.out_channels
            skip_channels.append(channels)
        self.fp_modules: List[FeaturePropagation] = []
        num_levels = len(self.sa_configs)
        for j in range(num_levels):
            coarse = skip_channels[num_levels - j]
            skip = skip_channels[num_levels - j - 1]
            out = max(skip_channels[num_levels - j - 1], 32)
            module = FeaturePropagation(
                j, coarse, skip, (out, out), self.edgepc, rng
            )
            setattr(self, f"fp{j}", module)
            self.fp_modules.append(module)
            skip_channels[num_levels - j - 1] = module.out_channels
        head_in = self.fp_modules[-1].out_channels
        self.head_hidden = Linear(head_in, head_hidden, rng=rng)
        self.head_act = ReLU()
        self.head_dropout = Dropout(dropout, rng=rng)
        self.head_out = Linear(head_hidden, num_classes, rng=rng)

    def forward(
        self,
        xyz: np.ndarray,
        features: Optional[Tensor] = None,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        """Per-point logits ``(B, N, num_classes)``."""
        xyz = np.asarray(xyz, dtype=np.float64)
        if xyz.ndim != 3 or xyz.shape[2] != 3:
            raise ValueError(f"xyz must be (B, N, 3), got {xyz.shape}")
        recorder = NullRecorder() if recorder is None else recorder
        if features is None:
            if self.in_channels not in (0, 1):
                raise ValueError(
                    "model expects input features but none were given"
                )
            features = Tensor(np.ones(xyz.shape[:2] + (1,)))
        levels: List[_LevelState] = [
            _LevelState(xyz=xyz, features=features)
        ]
        for module in self.sa_modules:
            new_xyz, new_features, state = module(
                levels[-1].xyz, levels[-1].features, recorder
            )
            levels.append(state)
        coarse = levels[-1].features
        num_levels = len(self.sa_modules)
        for j, module in enumerate(self.fp_modules):
            fine_state = levels[num_levels - j - 1]
            sa_state = levels[num_levels - j]
            coarse = module(
                fine_state.xyz,
                fine_state.features,
                coarse,
                sa_state,
                recorder,
            )
        logits = run_chain((
            self.head_hidden, self.head_act, self.head_dropout,
            self.head_out,
        ), coarse)
        recorder.record_plan(matmul_plan(
            len(self.sa_modules) + len(self.fp_modules),
            linear_widths(self.head_hidden, self.head_out),
            xyz.shape[0] * xyz.shape[1],
        ))
        return logits


class PointNet2Classifier(Module):
    """PointNet++ classification variant: SA stack + global pool + MLP."""

    def __init__(
        self,
        num_classes: int,
        in_channels: int = 0,
        sa_configs: Sequence[SAConfig] = DEFAULT_SA_CONFIGS[:3],
        edgepc: Optional[EdgePCConfig] = None,
        head_hidden: int = 64,
        dropout: float = 0.4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.edgepc = edgepc or EdgePCConfig.baseline()
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.sa_modules: List[SetAbstraction] = []
        self.workspace = Workspace()
        channels = max(in_channels, 1)
        for i, cfg in enumerate(sa_configs):
            module = SetAbstraction(
                i, channels, cfg, self.edgepc, rng, self.workspace
            )
            setattr(self, f"sa{i}", module)
            self.sa_modules.append(module)
            channels = module.out_channels
        self.head_hidden = Linear(channels, head_hidden, rng=rng)
        self.head_act = ReLU()
        self.head_dropout = Dropout(dropout, rng=rng)
        self.head_out = Linear(head_hidden, num_classes, rng=rng)

    def forward(
        self,
        xyz: np.ndarray,
        features: Optional[Tensor] = None,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        """Per-cloud logits ``(B, num_classes)``."""
        xyz = np.asarray(xyz, dtype=np.float64)
        recorder = NullRecorder() if recorder is None else recorder
        if features is None:
            features = Tensor(np.ones(xyz.shape[:2] + (1,)))
        current_xyz, current = xyz, features
        for module in self.sa_modules:
            current_xyz, current, _ = module(
                current_xyz, current, recorder
            )
        pooled = current.max(axis=1)  # (B, C)
        logits = run_chain((
            self.head_hidden, self.head_act, self.head_dropout,
            self.head_out,
        ), pooled)
        recorder.record_plan(matmul_plan(
            len(self.sa_modules),
            linear_widths(self.head_hidden, self.head_out),
            xyz.shape[0],
        ))
        return logits
