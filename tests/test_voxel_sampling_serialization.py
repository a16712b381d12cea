"""Tests for the retired voxel-grid sampler baseline
(``tests/retired.py``)."""

import numpy as np
import pytest
from retired import cell_size_for_target_count, voxel_grid_sample

from repro.datasets import bunny_like
from repro.sampling import coverage_radius


class TestVoxelGridSample:
    def test_one_per_occupied_voxel(self, rng):
        # Four pairs of points along x; the grid anchors at the cloud
        # minimum, so each pair sits inside its own unit cell.
        base = np.array(
            [[float(i), 0.0, 0.0] for i in range(4)]
        )
        pts = np.concatenate([base + 0.1, base + 0.3])
        idx = voxel_grid_sample(pts, 1.0)
        assert len(idx) == 4

    def test_indices_valid_and_sorted(self, medium_cloud):
        idx = voxel_grid_sample(medium_cloud, 0.2)
        assert (np.diff(idx) > 0).all()
        assert idx.min() >= 0 and idx.max() < len(medium_cloud)

    def test_representative_near_centroid(self, rng):
        pts = rng.normal(0, 0.01, (30, 3))  # one voxel
        idx = voxel_grid_sample(pts, 1.0)
        assert len(idx) == 1
        centroid = pts.mean(axis=0)
        chosen_d = np.linalg.norm(pts[idx[0]] - centroid)
        assert chosen_d <= np.linalg.norm(pts - centroid, axis=1).min() + (
            1e-12
        )

    def test_smaller_cells_more_samples(self, medium_cloud):
        coarse = voxel_grid_sample(medium_cloud, 0.4)
        fine = voxel_grid_sample(medium_cloud, 0.1)
        assert len(fine) > len(coarse)

    def test_coverage_competitive_with_morton(self, medium_cloud):
        """Voxel sampling is even — its coverage at matched counts is
        in the same league as the Morton stride sampler."""
        from repro.core import MortonSampler

        cell = cell_size_for_target_count(medium_cloud, 128)
        voxel_idx = voxel_grid_sample(medium_cloud, cell)
        morton_idx = MortonSampler().sample_batch(
            medium_cloud[None], len(voxel_idx)
        ).indices[0]
        ratio = coverage_radius(medium_cloud, morton_idx) / (
            coverage_radius(medium_cloud, voxel_idx)
        )
        assert ratio < 2.5

    def test_rejects_bad_cell_size(self, small_cloud):
        with pytest.raises(ValueError):
            voxel_grid_sample(small_cloud, 0.0)

    def test_target_count_search(self):
        cloud = bunny_like(2000).xyz
        cell = cell_size_for_target_count(cloud, 150, tolerance=0.15)
        count = len(voxel_grid_sample(cloud, cell))
        assert abs(count - 150) <= 0.2 * 150

    def test_target_count_rejects_bad_target(self, small_cloud):
        with pytest.raises(ValueError):
            cell_size_for_target_count(small_cloud, 0)

    def test_degenerate_cloud(self):
        pts = np.ones((10, 3))
        idx = voxel_grid_sample(pts, 0.5)
        assert len(idx) == 1

