"""The paper's Table 1 workloads and their pipeline traces.

Each :class:`WorkloadSpec` captures one W1-W6 row of Table 1: model,
dataset, points per batch element, task, and batch size, plus the
full-scale architecture dimensions of the model variant (layer point
counts, neighbor counts, MLP widths of the *original* PointNet++(s) /
DGCNN networks).

:func:`trace` walks that architecture under an
:class:`~repro.core.pipeline.EdgePCConfig` and concatenates the op
plans (:mod:`repro.nn.plan`) the models' own modules execute, without
running any tensors — which is what lets the latency and energy
experiments run at the paper's full 8192-point scale instantly.  Only
channel bookkeeping lives here; which kernel each layer runs is decided
by the plan functions.  Tests check that the event stream of a *real*
(small-scale) forward equals the synthesized one on every count the
plan fixes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple, Union

from repro.core.pipeline import EdgePCConfig
from repro.nn.plan import (
    Plan,
    edgeconv_plan,
    fp_plan,
    matmul_plan,
    sa_plan,
    samples_by_morton,
)
from repro.nn.recorder import StageRecorder


@dataclass(frozen=True)
class PointNet2Arch:
    """Dimensions of a PointNet++(s) variant.

    ``sa_points`` are the per-level sampled counts (from ``num_points``
    inputs); each SA has ``k`` neighbors and an MLP; FP modules mirror
    the SA stack.
    """

    num_points: int
    sa_points: Tuple[int, ...]
    k: int
    sa_mlps: Tuple[Tuple[int, ...], ...]
    fp_mlps: Tuple[Tuple[int, ...], ...]
    head: Tuple[int, ...]
    in_channels: int = 9  # xyz + rgb + normalized xyz, as in S3DIS runs

    def __post_init__(self) -> None:
        if len(self.sa_points) != len(self.sa_mlps):
            raise ValueError("one MLP spec per SA level required")
        if len(self.fp_mlps) != len(self.sa_points):
            raise ValueError("one FP module per SA level required")
        sizes = (self.num_points,) + self.sa_points
        if any(b >= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sa_points must strictly decrease")


@dataclass(frozen=True)
class DGCNNArch:
    """Dimensions of a DGCNN variant (no sampling stage)."""

    num_points: int
    k: int
    ec_mlps: Tuple[Tuple[int, ...], ...]
    emb_channels: int
    head: Tuple[int, ...]
    in_channels: int = 3

    def __post_init__(self) -> None:
        if not self.ec_mlps:
            raise ValueError("need at least one EdgeConv module")


@dataclass(frozen=True)
class WorkloadSpec:
    """One row of Table 1."""

    name: str
    model: str  # "pointnet2" or "dgcnn"
    dataset: str
    task: str
    points_per_batch: int
    batch_size: int
    num_classes: int
    arch: Union[PointNet2Arch, DGCNNArch]

    def __post_init__(self) -> None:
        arch_types = {"pointnet2": PointNet2Arch, "dgcnn": DGCNNArch}
        if self.model not in arch_types:
            raise ValueError(f"unknown model {self.model!r}")
        if not isinstance(self.arch, arch_types[self.model]):
            raise ValueError(
                f"model {self.model!r} needs a "
                f"{arch_types[self.model].__name__}, got "
                f"{type(self.arch).__name__}"
            )
        if self.batch_size < 1 or self.points_per_batch < 1:
            raise ValueError("sizes must be positive")


def _pointnet2_arch(num_points: int) -> PointNet2Arch:
    """The PointNet++(s) semantic-segmentation architecture (Qi et
    al.), scaled to the workload's point count."""
    return PointNet2Arch(
        num_points=num_points,
        sa_points=(
            num_points // 8,
            num_points // 32,
            num_points // 128,
            num_points // 512,
        ),
        k=32,
        sa_mlps=((32, 32, 64), (64, 64, 128), (128, 128, 256),
                 (256, 256, 512)),
        fp_mlps=((256, 256), (256, 256), (256, 128), (128, 128, 128)),
        head=(128, 13),
    )


def _dgcnn_arch(num_points: int, num_classes: int) -> DGCNNArch:
    """A 4-module DGCNN (channel plan 64-64-128-256).

    Sec. 6.2 states that with reuse distance 1 "the NS computation can
    be skipped for the second and fourth EC modules", which pins the
    evaluated DGCNN variants at 4 EdgeConv modules.
    """
    return DGCNNArch(
        num_points=num_points,
        k=20,
        ec_mlps=((64,), (64,), (128,), (256,)),
        emb_channels=1024,
        head=(512, 256, num_classes),
    )


def standard_workloads() -> Dict[str, WorkloadSpec]:
    """W1-W6 exactly as Table 1 defines them.

    W2's batch size varies 4-41 in the paper with mean 14; we use the
    mean.
    """
    return {
        "W1": WorkloadSpec(
            "W1", "pointnet2", "S3DIS", "semantic_segmentation",
            8192, 32, 13, _pointnet2_arch(8192),
        ),
        "W2": WorkloadSpec(
            "W2", "pointnet2", "ScanNet", "semantic_segmentation",
            8192, 14, 21, _pointnet2_arch(8192),
        ),
        "W3": WorkloadSpec(
            "W3", "dgcnn", "ModelNet40", "classification",
            1024, 32, 40, _dgcnn_arch(1024, 40),
        ),
        "W4": WorkloadSpec(
            "W4", "dgcnn", "ShapeNet", "part_segmentation",
            2048, 32, 50, _dgcnn_arch(2048, 50),
        ),
        "W5": WorkloadSpec(
            "W5", "dgcnn", "S3DIS", "semantic_segmentation",
            4096, 32, 13, _dgcnn_arch(4096, 13),
        ),
        "W6": WorkloadSpec(
            "W6", "dgcnn", "ScanNet", "semantic_segmentation",
            8192, 16, 21, _dgcnn_arch(8192, 21),
        ),
    }


def scan_batch_sizes(
    num_frames: int, rng=None, low: int = 4, high: int = 41,
    mean: float = 14.0,
) -> "np.ndarray":
    """Per-frame batch sizes of a ScanNet-style scan (W2).

    Sec. 6.2: W2's batch size "ranges from 4 to 41 depending on the PC
    frame, with an average batch size of 14".  We model that with a
    clipped geometric-ish draw whose mean is tuned to the paper's 14.

    Returns an ``(num_frames,)`` int array in ``[low, high]``.
    """
    import numpy as np

    if num_frames < 1:
        raise ValueError("num_frames must be positive")
    if not low <= mean <= high:
        raise ValueError("mean must lie within [low, high]")
    rng = rng or np.random.default_rng(0)
    # Geometric tail above `low` reproduces the skewed distribution of
    # room sizes; p chosen so E[low + G] = mean.
    p = 1.0 / (mean - low + 1.0)
    sizes = low + rng.geometric(p, size=num_frames) - 1
    return np.clip(sizes, low, high).astype(np.int64)


# Trace synthesis -------------------------------------------------------------


def _pointnet2_plan(spec: WorkloadSpec, config: EdgePCConfig) -> Plan:
    arch: PointNet2Arch = spec.arch
    batch = spec.batch_size
    sizes = (arch.num_points,) + arch.sa_points
    # Output channels per level, input level first (FP skip widths).
    level_channels = [max(arch.in_channels, 1)]
    morton_sampled = []
    plan: Plan = []
    for layer, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        mlp = (level_channels[-1] + 3,) + arch.sa_mlps[layer]
        sa = sa_plan(layer, (n_in, n_out, arch.k), mlp, batch, config)
        plan += sa
        morton_sampled.append(samples_by_morton(sa))
        level_channels.append(mlp[-1])
    # FP decoder (module j upsamples level L-j -> L-j-1).
    num_levels = len(arch.sa_points)
    coarse = level_channels[num_levels]
    for j in range(num_levels):
        fine = num_levels - j - 1
        mlp = (coarse + level_channels[fine],) + arch.fp_mlps[j]
        plan += fp_plan(
            j, (sizes[fine], sizes[fine + 1]), mlp, batch, config,
            morton_sampled[fine],
        )
        coarse = mlp[-1]
    return plan + matmul_plan(
        2 * num_levels, (coarse,) + arch.head, batch * arch.num_points
    )


def _dgcnn_plan(spec: WorkloadSpec, config: EdgePCConfig) -> Plan:
    arch: DGCNNArch = spec.arch
    batch = spec.batch_size
    n = arch.num_points
    channels = arch.in_channels
    concat_channels = 0
    plan: Plan = []
    for layer, mlp_out in enumerate(arch.ec_mlps):
        mlp = (2 * channels,) + mlp_out
        plan += edgeconv_plan(layer, (n, arch.k), mlp, batch, config)
        channels = mlp[-1]
        concat_channels += channels
    num_modules = len(arch.ec_mlps)
    plan += matmul_plan(
        num_modules, (concat_channels, arch.emb_channels), batch * n
    )
    if spec.task == "classification":
        head_in, head_rows = arch.emb_channels, batch
    else:
        head_in, head_rows = arch.emb_channels + concat_channels, batch * n
    return plan + matmul_plan(
        num_modules + 1, (head_in,) + arch.head, head_rows
    )


def trace(spec: WorkloadSpec, config: EdgePCConfig) -> StageRecorder:
    """Synthesize the stage-event trace of one batch of ``spec`` under
    ``config``: the concatenated op plans of its modules."""
    plan = _pointnet2_plan if spec.model == "pointnet2" else _dgcnn_plan
    recorder = StageRecorder()
    recorder.record_plan(plan(spec, config))
    return recorder


def trace_with_batch(
    spec: WorkloadSpec, config: EdgePCConfig, batch_size: int
) -> StageRecorder:
    """Like :func:`trace` but with an overridden batch size — used for
    W2's variable per-frame batches (:func:`scan_batch_sizes`)."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    return trace(replace(spec, batch_size=batch_size), config)
