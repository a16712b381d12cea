"""Tests for the retired voxel-grid sampler baseline
(``tests/retired.py``) and model checkpointing."""

import numpy as np
import pytest
from retired import cell_size_for_target_count, voxel_grid_sample

from repro.datasets import bunny_like
from repro.nn import (
    DGCNNClassifier,
    load_checkpoint,
    save_checkpoint,
)
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


def _tiny_model(seed=0):
    return DGCNNClassifier(
        num_classes=3, k=4, ec_channels=((8,), (8,)),
        emb_channels=8, head_hidden=8,
        rng=np.random.default_rng(seed),
    )


class TestCheckpointing:
    def test_roundtrip_preserves_outputs(self, tmp_path, rng):
        path = str(tmp_path / "model.npz")
        source = _tiny_model(seed=1)
        # Push some data through so BatchNorm stats are non-trivial.
        source(rng.normal(size=(2, 16, 3)))
        save_checkpoint(source, path)
        target = _tiny_model(seed=9)
        meta = load_checkpoint(target, path)
        source.eval()
        target.eval()
        x = rng.normal(size=(1, 16, 3))
        assert np.allclose(source(x).numpy(), target(x).numpy())
        assert meta["num_parameters"] == source.num_parameters()

    def test_restores_running_stats(self, tmp_path, rng):
        path = str(tmp_path / "model.npz")
        source = _tiny_model()
        for _ in range(3):
            source(rng.normal(2.0, 1.0, size=(2, 16, 3)))
        save_checkpoint(source, path)
        target = _tiny_model(seed=5)
        load_checkpoint(target, path)
        from repro.nn.layers import BatchNorm

        source_bns = [
            m for m in source.modules() if isinstance(m, BatchNorm)
        ]
        target_bns = [
            m for m in target.modules() if isinstance(m, BatchNorm)
        ]
        for a, b in zip(source_bns, target_bns):
            assert np.allclose(a.running_mean, b.running_mean)
            assert np.allclose(a.running_var, b.running_var)

    def test_rejects_architecture_mismatch(self, tmp_path):
        path = str(tmp_path / "model.npz")
        save_checkpoint(_tiny_model(), path)
        other = DGCNNClassifier(
            num_classes=3, k=4, ec_channels=((8,),),
            emb_channels=8, head_hidden=8,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(KeyError):
            load_checkpoint(other, path)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = str(tmp_path / "random.npz")
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(ValueError):
            load_checkpoint(_tiny_model(), path)

    def test_meta_records_version(self, tmp_path):
        import repro

        path = str(tmp_path / "model.npz")
        save_checkpoint(_tiny_model(), path)
        meta = load_checkpoint(_tiny_model(seed=3), path)
        assert meta["library_version"] == repro.__version__
