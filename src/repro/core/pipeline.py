"""EdgePC pipeline configuration (paper Secs. 5.1.3, 5.2.3, 6.1.3).

:class:`EdgePCConfig` is the single knob object the rest of the library
consumes: which sampling / up-sampling / neighbor-search layers are
replaced by the Morton approximations, the Morton code width, the search
window rule, the DGCNN reuse distance, and whether the feature-compute
stage is deployed to tensor cores.

The paper's chosen design point (Sec. 5.1.3 / 5.2.3): optimize only the
first down-sampling layer, the last up-sampling layer, and the first
neighbor-search layer; 32-bit codes; reuse distance 1 for DGCNN's
feature-space modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

from repro.core import morton
from repro.core.reuse import NeighborReusePolicy


def _as_layer_set(layers: Iterable[int]) -> FrozenSet[int]:
    layers = frozenset(int(layer) for layer in layers)
    if any(layer < 0 for layer in layers):
        raise ValueError("layer indices must be non-negative")
    return layers


@dataclass(frozen=True)
class EdgePCConfig:
    """Which approximations are active, and their parameters.

    Layer indices count from the network input: for PointNet++ the
    down-sample layers are the SA modules 0..3 and the up-sample layers
    are the FP modules 0..3 (FP 3 is the *last*, largest one the paper
    optimizes); for DGCNN the neighbor layers are the EdgeConv modules.

    Attributes:
        code_bits: Morton code width ``a``; 32 per the sensitivity study.
        window_multiplier: search window ``W = multiplier * k``.  1 is
            the pure index-pick mode.
        sample_layers: down-sample layer indices using the Morton
            sampler (others keep FPS).
        upsample_layers: FP layer indices using the Morton up-sampler.
        neighbor_layers: neighbor-search layer indices using the index
            window (others keep kNN / ball query).
        reuse_distance: DGCNN feature-space reuse distance (Sec. 5.2.3).
        use_tensor_cores: deploy feature compute to tensor cores
            (the S+N+F configuration of Sec. 6.1.3).
        sorted_grouping: sort each neighbor-index row before the
            grouping gather (Sec. 5.4.2) — semantically a no-op for
            the max-pooled aggregation, but it improves the gather's
            memory coalescing.
        fc_merge_factor: merge this many Morton-adjacent positions
            into the channel dimension of the feature-compute convs
            (Sec. 5.4.1); raises tensor-core utilization at equal
            FLOPs, at a small approximation cost.  Priced only, not
            executed: the cost model charges the merged matmuls, while
            the host forward runs the unmerged shared MLPs (the
            merge/split itself is
            :func:`repro.analysis.tensorcore.merge_split_features`).
        exact_fast_threshold: point count at and above which the exact
            stages (FPS / kNN / ball query, and FP interpolation onto
            that many fine points) run the pruning/grid fast engines
            instead of the brute kernels.  The FPS / kNN / ball-query
            engines return bit-identical results; the interpolation
            engine keeps the same anchors and its weights within
            ``1e-10`` (see
            :func:`~repro.core.sampler.exact_interpolation_weights_grid_batch`),
            because the dense kernel's BLAS distances round with the
            block shape.  It matters most when the guard degrades a
            large-N batch to exact kernels.  Small inputs keep brute:
            its fixed overhead is lower.
    """

    code_bits: int = morton.DEFAULT_CODE_BITS
    window_multiplier: int = 2
    sample_layers: FrozenSet[int] = field(
        default_factory=lambda: frozenset({0})
    )
    upsample_layers: FrozenSet[int] = field(
        default_factory=lambda: frozenset({3})
    )
    neighbor_layers: FrozenSet[int] = field(
        default_factory=lambda: frozenset({0})
    )
    reuse_distance: int = 1
    use_tensor_cores: bool = False
    sorted_grouping: bool = False
    fc_merge_factor: int = 1
    exact_fast_threshold: int = 8192

    def __post_init__(self) -> None:
        morton.bits_per_axis(self.code_bits)
        if self.window_multiplier < 1:
            raise ValueError("window_multiplier must be >= 1")
        if self.reuse_distance < 0:
            raise ValueError("reuse_distance must be non-negative")
        if self.fc_merge_factor < 1:
            raise ValueError("fc_merge_factor must be >= 1")
        if self.exact_fast_threshold < 1:
            raise ValueError("exact_fast_threshold must be >= 1")
        object.__setattr__(
            self, "sample_layers", _as_layer_set(self.sample_layers)
        )
        object.__setattr__(
            self, "upsample_layers", _as_layer_set(self.upsample_layers)
        )
        object.__setattr__(
            self, "neighbor_layers", _as_layer_set(self.neighbor_layers)
        )

    # Factory design points ---------------------------------------------

    @classmethod
    def baseline(cls) -> "EdgePCConfig":
        """The SOTA pipeline: no approximation anywhere."""
        return cls(
            sample_layers=frozenset(),
            upsample_layers=frozenset(),
            neighbor_layers=frozenset(),
            reuse_distance=0,
            use_tensor_cores=False,
        )

    @classmethod
    def paper_default(cls) -> "EdgePCConfig":
        """The S+N configuration evaluated in Sec. 6.2."""
        return cls()

    @classmethod
    def paper_with_tensor_cores(cls) -> "EdgePCConfig":
        """The S+N+F configuration (feature compute on tensor cores)."""
        return cls(use_tensor_cores=True)

    @classmethod
    def with_architectural_insights(cls) -> "EdgePCConfig":
        """S+N+F plus the Sec. 5.4 future-direction optimizations:
        sorted grouping and a 10x channel merge."""
        return cls(
            use_tensor_cores=True,
            sorted_grouping=True,
            fc_merge_factor=10,
        )

    # Queries -------------------------------------------------------------

    def uses_morton_sampling(self, layer: int) -> bool:
        return layer in self.sample_layers

    def uses_morton_upsampling(self, layer: int) -> bool:
        return layer in self.upsample_layers

    def uses_morton_neighbors(self, layer: int) -> bool:
        return layer in self.neighbor_layers

    def window_for(self, k: int) -> int:
        """Search window ``W`` for ``k`` requested neighbors."""
        if k < 1:
            raise ValueError("k must be positive")
        return self.window_multiplier * k

    def exact_engine_for(self, num_points: int) -> str:
        """Which exact engine a stage should run at ``num_points``:
        ``"fast"`` (pruning FPS / grid search and interpolation) at or above
        :attr:`exact_fast_threshold`, else ``"brute"``.  Both engines
        return the same results (bit-identical, except FP
        interpolation's stated tolerance); the choice is about speed."""
        if num_points < 0:
            raise ValueError("num_points must be non-negative")
        if num_points >= self.exact_fast_threshold:
            return "fast"
        return "brute"

    def reuse_policy(self) -> NeighborReusePolicy:
        return NeighborReusePolicy(reuse_distance=self.reuse_distance)

    @property
    def is_baseline(self) -> bool:
        return (
            not self.sample_layers
            and not self.upsample_layers
            and not self.neighbor_layers
            and self.reuse_distance == 0
        )
