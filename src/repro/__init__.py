"""EdgePC reproduction: Morton-code approximate sampling and neighbor
search for point-cloud CNNs on edge devices (Ying et al., ISCA 2023).

Top-level convenience re-exports cover the public API a downstream user
needs first: the structurizer, the two approximations, the pipeline
config, the models, the workloads, and the edge-device profiler.
"""

from repro.core import (
    EdgePCConfig,
    MortonNeighborSearch,
    MortonSampler,
    MortonUpsampler,
    structurize_batch,
)
from repro.nn import (
    DGCNNClassifier,
    DGCNNSegmentation,
    PointNet2Classifier,
    PointNet2Segmentation,
    StageRecorder,
)
from repro.pipeline import EdgePCPipeline, InferenceResult
from repro.robustness import (
    CloudValidationError,
    Guard,
    GuardThresholds,
    ValidationPolicy,
    sanitize_cloud,
)
from repro.runtime import DeviceSpec, PipelineProfiler, xavier
from repro.workloads import WorkloadSpec, standard_workloads, trace

__version__ = "1.0.0"

__all__ = [
    "structurize_batch",
    "MortonSampler",
    "MortonUpsampler",
    "MortonNeighborSearch",
    "EdgePCConfig",
    "PointNet2Segmentation",
    "PointNet2Classifier",
    "DGCNNClassifier",
    "DGCNNSegmentation",
    "StageRecorder",
    "DeviceSpec",
    "xavier",
    "PipelineProfiler",
    "EdgePCPipeline",
    "InferenceResult",
    "ValidationPolicy",
    "CloudValidationError",
    "sanitize_cloud",
    "Guard",
    "GuardThresholds",
    "WorkloadSpec",
    "standard_workloads",
    "trace",
    "__version__",
]
