"""Robustness / failure-injection tests.

Degenerate, extreme, and adversarial inputs through the full pipeline:
every component must either produce a valid result or fail loudly with
``ValueError`` — never crash, hang, or return garbage silently.
"""

import numpy as np
import pytest

from repro.core import (
    EdgePCConfig,
    MortonNeighborSearch,
    MortonSampler,
    MortonUpsampler,
    structurize_batch,
)
from repro.neighbors import ball_query, knn
from repro.nn import DGCNNClassifier, PointNet2Segmentation, SAConfig
from repro.sampling import farthest_point_sample


def _degenerate_clouds(rng):
    """Name -> pathological (N, 3) cloud."""
    return {
        "all_identical": np.ones((64, 3)),
        "collinear": np.stack(
            [np.linspace(0, 1, 64), np.zeros(64), np.zeros(64)],
            axis=1,
        ),
        "coplanar": np.concatenate(
            [rng.random((64, 2)), np.zeros((64, 1))], axis=1
        ),
        "two_distant_clusters": np.concatenate(
            [
                rng.normal(0, 0.01, (32, 3)),
                rng.normal(0, 0.01, (32, 3)) + 1e6,
            ]
        ),
        "huge_coordinates": rng.random((64, 3)) * 1e12,
        "tiny_extent": rng.random((64, 3)) * 1e-12,
        "negative_octant": -rng.random((64, 3)) - 5.0,
        "heavy_duplicates": np.repeat(rng.random((8, 3)), 8, axis=0),
    }


class TestStructurizeRobustness:
    @pytest.mark.parametrize(
        "name",
        [
            "all_identical", "collinear", "coplanar",
            "two_distant_clusters", "huge_coordinates",
            "tiny_extent", "negative_octant", "heavy_duplicates",
        ],
    )
    def test_valid_permutation_on_degenerate_input(self, name, rng):
        cloud = _degenerate_clouds(rng)[name]
        order = structurize_batch(cloud[None])
        assert sorted(order.permutation[0].tolist()) == list(
            range(len(cloud))
        )
        sorted_codes = order.codes[0][order.permutation[0]]
        assert (np.diff(sorted_codes) >= 0).all()

    def test_single_point(self):
        order = structurize_batch(np.array([[[1.0, 2.0, 3.0]]]))
        assert len(order) == 1

    def test_rejects_nan(self):
        cloud = np.zeros((4, 3))
        cloud[2, 1] = np.nan
        with pytest.raises(ValueError):
            structurize_batch(cloud[None])

    def test_rejects_inf(self):
        cloud = np.zeros((4, 3))
        cloud[0, 0] = np.inf
        with pytest.raises(ValueError):
            structurize_batch(cloud[None])

    def test_hilbert_rejects_nan(self):
        from repro.core.hilbert import hilbert_structurize

        cloud = np.zeros((4, 3))
        cloud[1, 2] = np.nan
        with pytest.raises(ValueError):
            hilbert_structurize(cloud)


class TestSamplerRobustness:
    @pytest.mark.parametrize(
        "name", ["all_identical", "heavy_duplicates", "tiny_extent"]
    )
    def test_sampler_on_degenerate_input(self, name, rng):
        cloud = _degenerate_clouds(rng)[name]
        result = MortonSampler().sample_batch(cloud[None], 16)
        assert len(set(result.indices[0].tolist())) == 16

    def test_fps_on_identical_points(self):
        cloud = np.ones((32, 3))
        idx = farthest_point_sample(cloud, 8, start_index=0)
        assert len(set(idx.tolist())) == 8  # distinct despite ties

    def test_upsampler_on_identical_points(self, rng):
        cloud = np.ones((1, 64, 3))
        result = MortonSampler().sample_batch(cloud, 8)
        feats = rng.normal(size=(8, 4))
        anchors, weights = MortonUpsampler().interpolation_weights_batch(
            cloud, result
        )
        out = np.einsum("nac,na->nc", feats[anchors[0]], weights[0])
        assert out.shape == (64, 4)
        assert np.isfinite(out).all()

    def test_sample_more_than_half(self, rng):
        cloud = rng.random((10, 3))
        result = MortonSampler().sample_batch(cloud[None], 9)
        assert len(result) == 9


class TestSearchRobustness:
    @pytest.mark.parametrize(
        "name", ["all_identical", "collinear", "two_distant_clusters"]
    )
    def test_window_search_on_degenerate_input(self, name, rng):
        cloud = _degenerate_clouds(rng)[name]
        out = MortonNeighborSearch(4, 8).search_batch(cloud[None])
        assert out.shape == (1, len(cloud), 4)
        assert out.min() >= 0 and out.max() < len(cloud)

    def test_knn_with_identical_points(self):
        cloud = np.ones((16, 3))
        out = knn(cloud, cloud, 4)
        assert out.shape == (16, 4)

    def test_ball_query_all_in_radius(self, rng):
        cloud = rng.normal(0, 0.001, (32, 3))
        out = ball_query(cloud, cloud, 10.0, 8)
        assert out.shape == (32, 8)

    def test_window_equals_cloud_size(self, rng):
        cloud = rng.random((16, 3))
        out = MortonNeighborSearch(4, 16).search_batch(cloud[None])
        assert out.shape == (1, 16, 4)


class TestModelRobustness:
    def test_pointnet2_on_degenerate_cloud(self):
        """A batch containing an all-identical cloud must not produce
        NaNs (BatchNorm sees zero variance on the relative channel)."""
        sa = (SAConfig(0.5, 4, 1.0, (8, 8)),)
        model = PointNet2Segmentation(
            num_classes=3, sa_configs=sa,
            edgepc=EdgePCConfig.paper_default(),
            head_hidden=8, rng=np.random.default_rng(0),
        )
        xyz = np.ones((1, 32, 3))
        logits = model(xyz)
        assert np.isfinite(logits.numpy()).all()

    def test_dgcnn_on_duplicate_points(self, rng):
        model = DGCNNClassifier(
            num_classes=3, k=4, ec_channels=((8,),),
            emb_channels=8, head_hidden=8,
            edgepc=EdgePCConfig.paper_default(),
            rng=np.random.default_rng(0),
        )
        base = rng.random((8, 3))
        xyz = np.repeat(base, 4, axis=0)[None]
        logits = model(xyz)
        assert np.isfinite(logits.numpy()).all()

    def test_model_rejects_nan_input_or_stays_finite(self, rng):
        """NaN inputs must not silently propagate to finite-looking
        logits: either the model raises, or the NaN is visible."""
        model = DGCNNClassifier(
            num_classes=3, k=4, ec_channels=((8,),),
            emb_channels=8, head_hidden=8,
            rng=np.random.default_rng(0),
        )
        xyz = rng.random((1, 16, 3))
        xyz[0, 3, 1] = np.nan
        try:
            logits = model(xyz)
        except (ValueError, FloatingPointError):
            return
        assert not np.isfinite(logits.numpy()).all()

    def test_training_survives_extreme_scale(self, rng):
        """Gradients stay finite on clouds at 1e3 scale."""
        from repro.nn import Adam, cross_entropy

        model = DGCNNClassifier(
            num_classes=2, k=4, ec_channels=((8,),),
            emb_channels=8, head_hidden=8,
            rng=np.random.default_rng(0),
        )
        opt = Adam(model.parameters(), lr=1e-3)
        xyz = rng.random((2, 16, 3)) * 1e3
        loss = cross_entropy(model(xyz), np.array([0, 1]))
        loss.backward()
        opt.step()
        assert all(
            np.isfinite(p.data).all() for p in model.parameters()
        )


class TestConfigMisuseRobustness:
    def test_optimizing_nonexistent_layers_is_harmless(self, rng):
        """Config naming layers the model doesn't have simply leaves
        every real layer exact."""
        sa = (SAConfig(0.5, 4, 1.0, (8, 8)),)
        config = EdgePCConfig(
            sample_layers={7}, upsample_layers={9},
            neighbor_layers={5},
        )
        model = PointNet2Segmentation(
            num_classes=3, sa_configs=sa, edgepc=config,
            head_hidden=8, rng=np.random.default_rng(0),
        )
        from repro.nn import StageRecorder

        recorder = StageRecorder()
        model(rng.random((1, 32, 3)), recorder=recorder)
        assert "fps" in recorder.op_names()
        assert "morton_sort" not in recorder.op_names()

    def test_window_larger_than_every_layer(self, rng):
        """A giant window multiplier degrades to exact search instead
        of erroring (the window clamps to N per layer)."""
        sa = (SAConfig(0.5, 4, 1.0, (8, 8)),)
        config = EdgePCConfig(
            sample_layers={0}, upsample_layers=frozenset(),
            neighbor_layers={0}, window_multiplier=10_000,
        )
        model = PointNet2Segmentation(
            num_classes=3, sa_configs=sa, edgepc=config,
            head_hidden=8, rng=np.random.default_rng(0),
        )
        logits = model(rng.random((1, 32, 3)))
        assert np.isfinite(logits.numpy()).all()
