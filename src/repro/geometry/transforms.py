"""Point-cloud transforms: normalization and training-time augmentation.

These mirror the standard preprocessing used by PointNet++/DGCNN training
pipelines (unit-sphere normalization, random rotation about the gravity
axis, coordinate jitter, random per-point dropout) so the retraining
experiments exercise the same data path as the paper's models.
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


def rotation_matrix_z(angle: float) -> np.ndarray:
    """``(3, 3)`` float64 rotation about the z (gravity) axis by
    ``angle`` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array(
        [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], dtype=np.float64
    )


def rotate_z(cloud: PointCloud, angle: float) -> PointCloud:
    """Rotate the cloud about the z axis; features and labels ride along."""
    xyz = cloud.xyz @ rotation_matrix_z(angle).T
    return PointCloud(xyz, cloud.features, cloud.labels)


def random_rotate_z(
    cloud: PointCloud, rng: np.random.Generator
) -> PointCloud:
    return rotate_z(cloud, rng.uniform(0.0, 2.0 * np.pi))


def jitter(
    cloud: PointCloud,
    rng: np.random.Generator,
    sigma: float = 0.01,
    clip: float = 0.05,
) -> PointCloud:
    """Add clipped Gaussian noise to every coordinate (PointNet-style)."""
    if sigma < 0 or clip < 0:
        raise ValueError("sigma and clip must be non-negative")
    noise = np.clip(rng.normal(0.0, sigma, cloud.xyz.shape), -clip, clip)
    return PointCloud(cloud.xyz + noise, cloud.features, cloud.labels)


def random_scale(
    cloud: PointCloud,
    rng: np.random.Generator,
    low: float = 0.8,
    high: float = 1.25,
) -> PointCloud:
    """Isotropically scale by a factor drawn from ``[low, high]``."""
    if not 0 < low <= high:
        raise ValueError("need 0 < low <= high")
    return PointCloud(
        cloud.xyz * rng.uniform(low, high), cloud.features, cloud.labels
    )


def random_dropout(
    cloud: PointCloud,
    rng: np.random.Generator,
    max_dropout_ratio: float = 0.5,
) -> PointCloud:
    """Replace a random prefix-ratio of points with the first point.

    This is the standard PointNet++ augmentation: dropped points are
    duplicated from point 0 rather than removed, so the cloud keeps its
    fixed size (which the batched CNNs require).
    """
    if not 0 <= max_dropout_ratio < 1:
        raise ValueError("max_dropout_ratio must be in [0, 1)")
    ratio = rng.uniform(0.0, max_dropout_ratio)
    drop = rng.random(len(cloud)) < ratio
    if not drop.any():
        return cloud.copy()
    xyz = cloud.xyz.copy()
    xyz[drop] = xyz[0]
    features = None
    if cloud.features is not None:
        features = cloud.features.copy()
        features[drop] = features[0]
    labels = None
    if cloud.labels is not None:
        labels = cloud.labels.copy()
        labels[drop] = labels[0]
    return PointCloud(xyz, features, labels)
