"""Point-cloud transforms: unit-sphere normalization.

This mirrors the standard preprocessing of PointNet++/DGCNN training
pipelines, so the synthetic datasets feed the models clouds on the
same scale as the paper's.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.points import PointCloud


def normalize_unit_sphere(cloud: PointCloud) -> PointCloud:
    """Center the cloud at the origin and scale it into the unit sphere."""
    xyz = cloud.xyz - cloud.xyz.mean(axis=0)
    scale = np.linalg.norm(xyz, axis=1).max()
    if scale > 0:
        xyz = xyz / scale
    return PointCloud(xyz, cloud.features, cloud.labels)
