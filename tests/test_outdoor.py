"""Tests for the KITTI-like LiDAR simulation (repro.datasets.outdoor),
including the ray-casting substrate."""

import numpy as np
import pytest

from repro.datasets import KITTILike, lidar_sweep
from repro.datasets.outdoor import (
    LABEL_BUILDING,
    LABEL_CAR,
    LABEL_GROUND,
    NUM_OUTDOOR_CLASSES,
    _ray_aabb,
    _ray_plane_z0,
    sweep_directions,
)


class TestRayPrimitives:
    def test_plane_hit_distance(self):
        origins = np.array([[0.0, 0.0, 2.0]])
        dirs = np.array([[0.0, 0.0, -1.0]])
        assert _ray_plane_z0(origins, dirs)[0] == pytest.approx(2.0)

    def test_plane_miss_upward(self):
        origins = np.array([[0.0, 0.0, 2.0]])
        dirs = np.array([[0.0, 0.0, 1.0]])
        assert np.isinf(_ray_plane_z0(origins, dirs)[0])

    def test_plane_parallel(self):
        origins = np.array([[0.0, 0.0, 2.0]])
        dirs = np.array([[1.0, 0.0, 0.0]])
        assert np.isinf(_ray_plane_z0(origins, dirs)[0])

    def test_aabb_hit(self):
        origins = np.array([[0.0, 0.0, 0.0]])
        dirs = np.array([[1.0, 0.0, 0.0]])
        t = _ray_aabb(
            origins, dirs,
            np.array([5.0, -1.0, -1.0]), np.array([7.0, 1.0, 1.0]),
        )
        assert t[0] == pytest.approx(5.0)

    def test_aabb_miss(self):
        origins = np.array([[0.0, 0.0, 0.0]])
        dirs = np.array([[0.0, 1.0, 0.0]])
        t = _ray_aabb(
            origins, dirs,
            np.array([5.0, -1.0, -1.0]), np.array([7.0, 1.0, 1.0]),
        )
        assert np.isinf(t[0])

    def test_aabb_from_inside(self):
        origins = np.array([[6.0, 0.0, 0.0]])
        dirs = np.array([[1.0, 0.0, 0.0]])
        t = _ray_aabb(
            origins, dirs,
            np.array([5.0, -1.0, -1.0]), np.array([7.0, 1.0, 1.0]),
        )
        assert t[0] == pytest.approx(1.0)  # exits the far face

    def test_sweep_directions_unit(self):
        dirs = sweep_directions(4, 16)
        assert dirs.shape == (64, 3)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


class TestLidarSweep:
    def test_labels_and_ranges(self, rng):
        sweep = lidar_sweep(rng)
        assert sweep.labels.max() < NUM_OUTDOOR_CLASSES
        ranges = np.linalg.norm(
            sweep.xyz - np.array([0, 0, 1.8]), axis=1
        )
        assert ranges.max() <= 30.0 + 0.5  # max_range + noise

    def test_ground_dominates(self, rng):
        sweep = lidar_sweep(rng)
        counts = np.bincount(
            sweep.labels, minlength=NUM_OUTDOOR_CLASSES
        )
        assert counts[LABEL_GROUND] > counts.sum() / 2

    def test_ground_points_near_z0(self, rng):
        sweep = lidar_sweep(rng, noise_sigma=0.0)
        ground_z = sweep.xyz[sweep.labels == LABEL_GROUND][:, 2]
        assert np.abs(ground_z).max() < 1e-6

    def test_cars_occlude_ground(self, rng):
        """Car points sit above the ground plane at their range."""
        sweep = lidar_sweep(rng, noise_sigma=0.0)
        car_z = sweep.xyz[sweep.labels == LABEL_CAR][:, 2]
        if car_z.size:
            assert car_z.min() > -1e-6
            assert car_z.max() <= 1.5 + 1e-6

    def test_building_vertical_extent(self, rng):
        sweep = lidar_sweep(rng, noise_sigma=0.0)
        building = sweep.xyz[sweep.labels == LABEL_BUILDING]
        if building.shape[0] > 10:
            assert building[:, 2].max() > 1.9  # taller than cars

    def test_radial_density_falloff(self, rng):
        """The signature LiDAR property: more returns close by."""
        sweep = lidar_sweep(rng)
        r = np.hypot(sweep.xyz[:, 0], sweep.xyz[:, 1])
        near = (r < 10).sum()
        far = ((r >= 10) & (r < 20)).sum()
        # The far annulus is 3x the area but has fewer points per m^2.
        assert near / 100 > far / 300

    def test_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            lidar_sweep(rng, num_beams=0)
        with pytest.raises(ValueError):
            lidar_sweep(rng, max_range=-1.0)


class TestKITTILike:
    def test_fixed_size(self):
        ds = KITTILike(num_clouds=2, points_per_cloud=2048)
        assert len(ds[0]) == 2048
        assert len(ds[1]) == 2048

    def test_deterministic(self):
        a = KITTILike(num_clouds=1, points_per_cloud=1024, seed=5)
        b = KITTILike(num_clouds=1, points_per_cloud=1024, seed=5)
        assert np.array_equal(a[0].xyz, b[0].xyz)

    def test_scenes_differ(self):
        ds = KITTILike(num_clouds=2, points_per_cloud=1024)
        assert not np.array_equal(ds[0].xyz, ds[1].xyz)

    def test_morton_locality_strong_on_sweeps(self):
        """Z-ordering works well on the ring-structured geometry too
        (the property EdgePC needs to generalize outdoors)."""
        from repro.core import structuredness, structurize_batch

        cloud = KITTILike(num_clouds=1, points_per_cloud=2048)[0]
        assert structuredness(
            structurize_batch(cloud.xyz[None]), cloud.xyz
        ) < 0.3

    def test_window_search_quality_outdoors(self):
        """The index-window search stays useful on outdoor sweeps."""
        from repro.core import MortonNeighborSearch, structurize_batch
        from repro.neighbors import false_neighbor_ratio, knn

        cloud = KITTILike(num_clouds=1, points_per_cloud=2048)[0].xyz
        order = structurize_batch(cloud[None])
        queries = np.arange(0, 2048, 8)
        approx = MortonNeighborSearch(16, 64).search_batch(
            cloud[None], queries, order
        )[0]
        exact = knn(cloud[queries], cloud, 16)
        assert false_neighbor_ratio(approx, exact) < 0.5
