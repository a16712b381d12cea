"""NumPy deep-learning substrate: autograd, layers, optimizers, and the
PointNet++ / DGCNN reproductions."""

from repro.nn.autograd import Tensor, concatenate, maximum, no_grad, stack
from repro.nn.dgcnn import DGCNNClassifier, DGCNNSegmentation, EdgeConv
from repro.nn.layers import (
    BatchNorm,
    Dropout,
    LeakyReLU,
    Linear,
    Module,
    ReLU,
    Sequential,
    shared_mlp,
)
from repro.nn.losses import accuracy, cross_entropy, log_softmax, softmax
from repro.nn.optim import Adam
from repro.nn.pointnet2 import (
    DEFAULT_SA_CONFIGS,
    FeaturePropagation,
    PointNet2Classifier,
    PointNet2Segmentation,
    SAConfig,
    SetAbstraction,
)
from repro.nn.recorder import (
    STAGE_FEATURE,
    STAGE_GROUPING,
    STAGE_NEIGHBOR,
    STAGE_SAMPLE,
    NullRecorder,
    StageEvent,
    StageRecorder,
)

__all__ = [
    "Tensor",
    "no_grad",
    "concatenate",
    "stack",
    "maximum",
    "Module",
    "Linear",
    "BatchNorm",
    "ReLU",
    "LeakyReLU",
    "Dropout",
    "Sequential",
    "shared_mlp",
    "cross_entropy",
    "accuracy",
    "log_softmax",
    "softmax",
    "Adam",
    "SAConfig",
    "DEFAULT_SA_CONFIGS",
    "SetAbstraction",
    "FeaturePropagation",
    "PointNet2Segmentation",
    "PointNet2Classifier",
    "EdgeConv",
    "DGCNNClassifier",
    "DGCNNSegmentation",
    "StageRecorder",
    "NullRecorder",
    "StageEvent",
    "STAGE_SAMPLE",
    "STAGE_NEIGHBOR",
    "STAGE_GROUPING",
    "STAGE_FEATURE",
]
