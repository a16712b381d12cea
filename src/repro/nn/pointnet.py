"""The original PointNet (Qi et al., CVPR 2017 — the paper's [47]).

PointNet is the ancestor of the evaluated pipelines: a per-point
shared MLP followed by a global max pool, with no sampling or neighbor
search at all.  It is included to complete the model family and as the
natural control in experiments — since it has neither bottleneck
stage, EdgePC's approximations are no-ops for it, which the tests
assert (its stage trace contains only feature-compute events).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.autograd import Tensor, concatenate
from repro.nn.layers import Dropout, Linear, Module, shared_mlp
from repro.nn.plan import linear_widths, matmul_plan
from repro.nn.recorder import NullRecorder, StageRecorder


class PointNetClassifier(Module):
    """PointNet classification: shared MLP -> global max -> MLP head."""

    def __init__(
        self,
        num_classes: int,
        mlp_channels: Sequence[int] = (32, 32, 64),
        head_hidden: int = 32,
        dropout: float = 0.3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_classes = num_classes
        channels = (3,) + tuple(mlp_channels)
        self.mlp_channels = channels
        self.mlp = shared_mlp(channels, rng=rng)
        self.head_hidden = Linear(channels[-1], head_hidden, rng=rng)
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
        batch, n_points, _ = xyz.shape
        features = self.mlp(Tensor(xyz))
        recorder.record_plan(
            matmul_plan(0, self.mlp_channels, batch * n_points)
        )
        pooled = features.max(axis=1)
        hidden = self.head_hidden(pooled).relu()
        hidden = self.head_dropout(hidden)
        logits = self.head_out(hidden)
        recorder.record_plan(matmul_plan(
            1, linear_widths(self.head_hidden, self.head_out), batch
        ))
        return logits


class PointNetSegmentation(Module):
    """PointNet segmentation: per-point features concatenated with the
    tiled global feature, then a per-point head (the original paper's
    segmentation network shape)."""

    def __init__(
        self,
        num_classes: int,
        mlp_channels: Sequence[int] = (32, 32, 64),
        head_hidden: int = 32,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_classes = num_classes
        channels = (3,) + tuple(mlp_channels)
        self.mlp_channels = channels
        self.mlp = shared_mlp(channels, rng=rng)
        head_in = 2 * channels[-1]  # per-point + tiled global
        self.head_hidden = Linear(head_in, head_hidden, rng=rng)
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
        batch, n_points, _ = xyz.shape
        per_point = self.mlp(Tensor(xyz))
        recorder.record_plan(
            matmul_plan(0, self.mlp_channels, batch * n_points)
        )
        global_feature = per_point.max(axis=1, keepdims=True)
        tiled = global_feature.broadcast_to(
            (batch, n_points, per_point.shape[2])
        )
        merged = concatenate([per_point, tiled], axis=2)
        hidden = self.head_hidden(merged).relu()
        hidden = self.head_dropout(hidden)
        logits = self.head_out(hidden)
        recorder.record_plan(matmul_plan(
            1, linear_widths(self.head_hidden, self.head_out),
            batch * n_points,
        ))
        return logits
