"""Tests for the geometry substrate: bounding boxes, point clouds,
voxel grids, transforms, and shape samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import BoundingBox, PointCloud, VoxelGrid
from repro.geometry import shapes, transforms


class TestBoundingBox:
    def test_of_points(self):
        pts = np.array([[0, 0, 0], [1, 2, 3], [-1, 1, 1]], dtype=float)
        box = BoundingBox.of_points(pts)
        assert np.array_equal(box.minimum, [-1, 0, 0])
        assert np.array_equal(box.maximum, [1, 2, 3])

    def test_extent_and_longest_side(self):
        box = BoundingBox(np.zeros(3), np.array([2.0, 5.0, 1.0]))
        assert np.array_equal(box.extent, [2, 5, 1])
        assert box.longest_side == 5.0

    def test_center(self):
        box = BoundingBox(np.zeros(3), np.array([2.0, 4.0, 6.0]))
        assert np.array_equal(box.center, [1, 2, 3])

    def test_diagonal(self):
        box = BoundingBox(np.zeros(3), np.array([3.0, 4.0, 0.0]))
        assert box.diagonal == pytest.approx(5.0)

    def test_contains(self):
        box = BoundingBox(np.zeros(3), np.ones(3))
        inside = box.contains(np.array([[0.5, 0.5, 0.5], [2, 0, 0]]))
        assert inside.tolist() == [True, False]

    def test_contains_boundary_inclusive(self):
        box = BoundingBox(np.zeros(3), np.ones(3))
        assert box.contains(np.array([[1.0, 1.0, 1.0]]))[0]

    def test_expanded(self):
        box = BoundingBox(np.zeros(3), np.ones(3)).expanded(0.5)
        assert np.array_equal(box.minimum, [-0.5] * 3)
        assert np.array_equal(box.maximum, [1.5] * 3)

    def test_expanded_rejects_negative(self):
        with pytest.raises(ValueError):
            BoundingBox(np.zeros(3), np.ones(3)).expanded(-1)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BoundingBox(np.ones(3), np.zeros(3))

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError):
            BoundingBox.of_points(np.empty((0, 3)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            BoundingBox.of_points(np.zeros((4, 2)))


class TestPointCloud:
    def test_basic(self, small_cloud):
        cloud = PointCloud(small_cloud)
        assert len(cloud) == 256
        assert cloud.num_feature_channels == 0

    def test_features_and_labels(self, small_cloud, rng):
        cloud = PointCloud(
            small_cloud,
            features=rng.random((256, 4)),
            labels=rng.integers(0, 3, 256),
        )
        assert cloud.num_feature_channels == 4
        assert cloud.labels.dtype == np.int64

    def test_select_keeps_attributes(self, small_cloud, rng):
        cloud = PointCloud(
            small_cloud, labels=rng.integers(0, 3, 256)
        )
        sub = cloud.select(np.array([5, 1, 9]))
        assert len(sub) == 3
        assert np.array_equal(sub.xyz[0], cloud.xyz[5])
        assert sub.labels[1] == cloud.labels[1]

    def test_rejects_nan(self):
        pts = np.zeros((4, 3))
        pts[1, 2] = np.nan
        with pytest.raises(ValueError):
            PointCloud(pts)

    def test_rejects_mismatched_labels(self, small_cloud):
        with pytest.raises(ValueError):
            PointCloud(small_cloud, labels=np.zeros(7, dtype=int))

    def test_copy_is_independent(self, small_cloud):
        cloud = PointCloud(small_cloud)
        clone = cloud.copy()
        clone.xyz[0, 0] = 99.0
        assert cloud.xyz[0, 0] != 99.0

    def test_bounding_box(self, small_cloud):
        cloud = PointCloud(small_cloud)
        box = cloud.bounding_box()
        assert box.contains(cloud.xyz).all()


class TestVoxelGrid:
    def test_voxelize_basic(self):
        grid = VoxelGrid(np.zeros(3), 1.0, 8)
        cells = grid.voxelize(np.array([[0.5, 1.5, 7.9]]))
        assert cells.tolist() == [[0, 1, 7]]

    def test_voxelize_clips_to_range(self):
        grid = VoxelGrid(np.zeros(3), 1.0, 4)
        cells = grid.voxelize(np.array([[9.0, -3.0, 4.0]]))
        assert cells.tolist() == [[3, 0, 3]]

    def test_for_box_covers_all_points(self, small_cloud):
        box = BoundingBox.of_points(small_cloud)
        grid = VoxelGrid.for_box(box, 10)
        cells = grid.voxelize(small_cloud)
        assert cells.max() < grid.cells_per_axis
        assert cells.min() >= 0

    def test_for_box_degenerate_cloud(self):
        pts = np.ones((5, 3))
        grid = VoxelGrid.for_box(BoundingBox.of_points(pts), 10)
        assert np.array_equal(grid.voxelize(pts), np.zeros((5, 3)))

    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            VoxelGrid(np.zeros(3), 0.0, 4)


class TestTransforms:
    def test_normalize_unit_sphere(self, small_cloud):
        cloud = transforms.normalize_unit_sphere(
            PointCloud(small_cloud * 10 + 5)
        )
        norms = np.linalg.norm(cloud.xyz, axis=1)
        assert norms.max() == pytest.approx(1.0)
        assert np.allclose(cloud.xyz.mean(axis=0), 0, atol=1e-9)



class TestShapes:
    @pytest.mark.parametrize(
        "sampler",
        [
            shapes.sample_sphere,
            shapes.sample_torus,
            shapes.sample_cylinder,
            shapes.sample_cone,
            shapes.sample_capsule,
            shapes.sample_helix,
        ],
    )
    def test_shape_and_finiteness(self, sampler, rng):
        pts = sampler(500, rng)
        assert pts.shape == (500, 3)
        assert np.isfinite(pts).all()

    def test_sphere_radius(self, rng):
        pts = shapes.sample_sphere(1000, rng, radius=2.5)
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.5)

    def test_ellipsoid_on_surface(self, rng):
        axes = (1.0, 0.6, 0.4)
        pts = shapes.sample_ellipsoid(500, rng, axes)
        implicit = np.sum((pts / np.array(axes)) ** 2, axis=1)
        assert np.allclose(implicit, 1.0)

    def test_torus_distance_from_ring(self, rng):
        pts = shapes.sample_torus(500, rng, 1.0, 0.3)
        ring_d = np.hypot(
            np.hypot(pts[:, 0], pts[:, 1]) - 1.0, pts[:, 2]
        )
        assert np.allclose(ring_d, 0.3)

    def test_box_on_surface(self, rng):
        pts = shapes.sample_box(500, rng, (2.0, 2.0, 2.0))
        on_face = np.isclose(np.abs(pts), 1.0).any(axis=1)
        assert on_face.all()

    def test_plane_is_flat(self, rng):
        pts = shapes.sample_plane(200, rng)
        assert np.allclose(pts[:, 2], 0)

    def test_density_bias_skews(self, rng):
        uniform = shapes.sample_cylinder(4000, rng, density_bias=0.0)
        biased = shapes.sample_cylinder(4000, rng, density_bias=3.0)
        # The biased cloud concentrates points toward low z.
        assert biased[:, 2].mean() < uniform[:, 2].mean() - 0.1

    def test_density_bias_rejects_negative(self, rng):
        with pytest.raises(ValueError):
            shapes.sample_sphere(10, rng, density_bias=-0.5)

    def test_lumpy_perturbation_bounded(self, rng):
        pts = shapes.sample_sphere(300, rng)
        lumpy = shapes.lumpy_radial_perturbation(pts, rng, amplitude=0.2)
        ratio = np.linalg.norm(lumpy, axis=1) / np.linalg.norm(
            pts, axis=1
        )
        assert (ratio >= 0.8 - 1e-9).all()
        assert (ratio <= 1.2 + 1e-9).all()

    @given(n=st.integers(1, 200), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_gaussian_blob_shape_property(self, n, seed):
        pts = shapes.sample_gaussian_blob(
            n, np.random.default_rng(seed)
        )
        assert pts.shape == (n, 3)
