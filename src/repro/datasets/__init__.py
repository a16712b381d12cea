"""Procedural synthetic datasets mirroring the paper's Table 1."""

from repro.datasets.base import (
    Batch,
    SyntheticDataset,
    make_batches,
    train_test_split,
)
from repro.datasets.bunny import BUNNY_POINT_COUNT, bunny_like
from repro.datasets.indoor import (
    NUM_SEMANTIC_CLASSES,
    S3DISLike,
    ScanNetLike,
    room_grid_offsets,
)
from repro.datasets.modelnet import ModelNetLike
from repro.datasets.outdoor import (
    NUM_OUTDOOR_CLASSES,
    KITTILike,
    lidar_sweep,
)
from repro.datasets.scene import DEFAULT_ROOM_SPACING, make_scene
from repro.datasets.shapenet import (
    NUM_CATEGORIES,
    NUM_PARTS,
    ShapeNetPartLike,
)

__all__ = [
    "SyntheticDataset",
    "Batch",
    "make_batches",
    "train_test_split",
    "ModelNetLike",
    "ShapeNetPartLike",
    "S3DISLike",
    "ScanNetLike",
    "make_scene",
    "room_grid_offsets",
    "DEFAULT_ROOM_SPACING",
    "KITTILike",
    "lidar_sweep",
    "NUM_OUTDOOR_CLASSES",
    "bunny_like",
    "BUNNY_POINT_COUNT",
    "NUM_SEMANTIC_CLASSES",
    "NUM_CATEGORIES",
    "NUM_PARTS",
]
