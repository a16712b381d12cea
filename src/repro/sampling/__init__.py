"""Baseline (exact) samplers and sampling-quality metrics."""

from repro.sampling.fps import (
    FastFpsStats,
    coverage_radius,
    farthest_point_sample,
    farthest_point_sample_batch,
    farthest_point_sample_fast,
    farthest_point_sample_fast_batch,
    fps_operation_count,
)
from repro.sampling.quality import (
    chamfer_distance,
    density_uniformity,
    mean_coverage_distance,
)
from repro.sampling.uniform import (
    uniform_sample,
    uniform_stride_indices,
)

__all__ = [
    "farthest_point_sample",
    "farthest_point_sample_batch",
    "farthest_point_sample_fast",
    "farthest_point_sample_fast_batch",
    "FastFpsStats",
    "fps_operation_count",
    "coverage_radius",
    "uniform_sample",
    "uniform_stride_indices",
    "chamfer_distance",
    "density_uniformity",
    "mean_coverage_distance",
]
