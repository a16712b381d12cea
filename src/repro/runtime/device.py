"""Edge-device model: an NVIDIA Jetson AGX Xavier-like specification.

The paper evaluates on a real Xavier board (512-core Volta GPU, 64
tensor cores, 16 GB LPDDR4x).  We replace the board with an analytic
model whose parameters are calibrated against the per-stage numbers the
paper reports:

- FPS sampling 40 256 -> 1 024 points: ~81.7 ms (Sec. 4.2);
- uniform sampling of the same model: ~1 ms (Sec. 4.2);
- Morton code generation for 8 192 points: ~0.1 ms (Sec. 5.1.2);
- compute power 4.5 W baseline vs 4.2 W with approximations; memory
  power 1.35 W -> 1.63 W when neighbor reuse is enabled (Sec. 6.2);
- a 32x1000x12x32 conv takes 40.4 ms with no tensor-core utilization
  and 18.3 ms at 40% utilization after channel merging (Sec. 5.4.1).

All throughput parameters are *effective* (achieved) rates, not peaks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceSpec:
    """Analytic model of an edge GPU.

    Attributes:
        fps_step_overhead_s: per-iteration serial overhead of FPS (the
            dependency chain between picks; dominates for small N).
        fps_distance_rate: distance evaluations/s inside one FPS pass.
        interp_candidate_cost: distance-evaluation-equivalents charged
            per candidate anchor in the Morton up-sampler (dominated by
            gather latency rather than arithmetic).
        brute_distance_rate: distance evaluations/s of the parallel
            brute-force kNN / ball-query kernels.
        morton_rate: Morton codes generated per second.
        sort_rate: sort key-operations (N log2 N) per second.
        sort_latency_floor_s: minimum latency of one sort launch per
            batch element — small-array GPU sorts are latency-bound,
            which is why re-structurizing the deeper (smaller) CNN
            levels barely pays off (Secs. 5.2.3, 6.3).
        gather_rate: gathered elements per second (grouping stage).
        sorted_gather_speedup: grouping-throughput gain when the index
            rows are pre-sorted (Sec. 5.4.2's traffic reduction).
        cuda_flops: effective FP32 FLOP/s on the CUDA cores.
        tensor_core_flops: effective FLOP/s on tensor cores at 100%
            utilization.
        tc_min_channels: below this input-channel count the tensor
            cores are not invoked at all (utilization 0, Sec. 5.4.1).
        tc_saturation_channels: channel count at which tensor-core
            utilization reaches ``tc_max_utilization``.
        tc_max_utilization: peak achievable tensor-core utilization.
        max_parallel_batches: how many batch elements the lightweight
            (approximate) kernels can process concurrently.
        compute_power_baseline_w / compute_power_approx_w: GPU power
            during the sample/neighbor stages, exact vs approximate.
        compute_power_fc_w: GPU power during feature compute.
        memory_power_w / memory_power_reuse_w: DRAM power, without and
            with the neighbor-reuse buffer live.
    """

    fps_step_overhead_s: float = 60e-6
    fps_distance_rate: float = 2.0e9
    brute_distance_rate: float = 4.0e9
    morton_rate: float = 8.0e7
    sort_rate: float = 1.8e7
    sort_latency_floor_s: float = 3.0e-3
    gather_rate: float = 2.0e9
    sorted_gather_speedup: float = 1.4
    cuda_flops: float = 1.0e11
    tensor_core_flops: float = 5.5e11
    tc_min_channels: int = 16
    tc_saturation_channels: int = 150
    tc_max_utilization: float = 0.5
    max_parallel_batches: int = 32
    compute_power_baseline_w: float = 4.5
    compute_power_approx_w: float = 4.2
    compute_power_fc_w: float = 6.0
    memory_power_w: float = 1.35
    memory_power_reuse_w: float = 1.63
    interp_candidate_cost: float = 48.0

    def __post_init__(self) -> None:
        for name in (
            "fps_distance_rate",
            "brute_distance_rate",
            "morton_rate",
            "sort_rate",
            "gather_rate",
            "cuda_flops",
            "tensor_core_flops",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.fps_step_overhead_s < 0:
            raise ValueError("fps_step_overhead_s must be non-negative")
        if self.max_parallel_batches < 1:
            raise ValueError("max_parallel_batches must be >= 1")
        if not 0 < self.tc_max_utilization <= 1:
            raise ValueError("tc_max_utilization must be in (0, 1]")
        if self.tc_min_channels < 1:
            raise ValueError("tc_min_channels must be >= 1")

    def tensor_core_utilization(self, in_channels: float) -> float:
        """Utilization as a function of the conv's input-channel width.

        Zero below ``tc_min_channels`` (the kernels are not dispatched
        to tensor cores at all), then ramping linearly up to
        ``tc_max_utilization`` at ``tc_saturation_channels`` — the
        behaviour the paper measures in Sec. 5.4.1.
        """
        if in_channels < self.tc_min_channels:
            return 0.0
        ramp = min(1.0, in_channels / self.tc_saturation_channels)
        return self.tc_max_utilization * ramp

    def matmul_time(
        self, flops: float, in_channels: float, use_tensor_cores: bool
    ) -> float:
        """Seconds to execute a conv/matmul of ``flops`` total work."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        if use_tensor_cores:
            utilization = self.tensor_core_utilization(in_channels)
            if utilization > 0:
                return flops / (self.tensor_core_flops * utilization)
        return flops / self.cuda_flops


def xavier() -> DeviceSpec:
    """The default Jetson AGX Xavier-like device."""
    return DeviceSpec()
