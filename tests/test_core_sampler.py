"""Tests for the Morton sampler and up-sampler (repro.core.sampler)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampler import (
    MortonSampler,
    MortonUpsampler,
    exact_interpolation_weights_batch,
)
from repro.core.structurize import structurize_batch
from repro.sampling import (
    coverage_radius,
    farthest_point_sample,
    uniform_sample,
)


def _sample(cloud, num_samples):
    """``(n,)`` Morton sample indices of one ``(N, 3)`` cloud."""
    return MortonSampler().sample_batch(cloud[None], num_samples).indices[0]


class TestMortonSampler:
    def test_returns_requested_count(self, medium_cloud):
        result = MortonSampler().sample_batch(medium_cloud[None], 128)
        assert len(result) == 128
        assert result.indices.shape == (1, 128)

    def test_indices_are_distinct(self, medium_cloud):
        result = MortonSampler().sample_batch(medium_cloud[None], 256)
        assert len(set(result.indices[0].tolist())) == 256

    def test_sampled_ranks_are_strided(self, medium_cloud):
        result = MortonSampler().sample_batch(medium_cloud[None], 64)
        expected = np.arange(64) * 1024 // 64
        assert np.array_equal(result.sampled_ranks, expected)

    def test_reuses_precomputed_order(self, medium_cloud):
        order = structurize_batch(medium_cloud[None])
        result = MortonSampler().sample_batch(
            medium_cloud[None], 64, order=order
        )
        # The given order is reused as is; nothing is recomputed.
        assert result.order is order

    def test_rejects_mismatched_order(self, medium_cloud, small_cloud):
        order = structurize_batch(small_cloud[None])
        with pytest.raises(ValueError):
            MortonSampler().sample_batch(
                medium_cloud[None], 64, order=order
            )

    @pytest.mark.parametrize("shape", [(1, 6, 2), (1, 6, 4), (6, 3)])
    def test_rejects_non_xyz_points_with_order(self, shape):
        """A precomputed order skips structurize_batch's shape check,
        so sample_batch must reject non-(B, N, 3) points itself."""
        order = structurize_batch(np.zeros((1, 6, 3)))
        with pytest.raises(ValueError, match=r"\(B, N, 3\)"):
            MortonSampler().sample_batch(np.zeros(shape), 3, order=order)

    def test_sample_all_points(self, small_cloud):
        result = MortonSampler().sample_batch(
            small_cloud[None], len(small_cloud)
        )
        assert sorted(result.indices[0].tolist()) == list(
            range(len(small_cloud))
        )

    def test_sample_one_point(self, small_cloud):
        result = MortonSampler().sample_batch(small_cloud[None], 1)
        assert len(result) == 1

    def test_coverage_beats_raw_uniform(self, medium_cloud):
        """The Fig. 5 claim, quantified: Morton-uniform sampling covers
        an irregular cloud better than raw-uniform sampling."""
        morton_idx = _sample(medium_cloud, 64)
        raw_idx = uniform_sample(medium_cloud, 64)
        assert coverage_radius(
            medium_cloud, morton_idx
        ) < coverage_radius(medium_cloud, raw_idx)

    def test_coverage_within_factor_of_fps(self, medium_cloud):
        """Morton sampling approximates FPS coverage within a small
        constant factor (it is the paper's drop-in replacement)."""
        morton_idx = _sample(medium_cloud, 64)
        fps_idx = farthest_point_sample(medium_cloud, 64, start_index=0)
        ratio = coverage_radius(medium_cloud, morton_idx) / (
            coverage_radius(medium_cloud, fps_idx)
        )
        assert ratio < 3.5

    def test_deterministic(self, medium_cloud):
        a = _sample(medium_cloud, 100)
        b = _sample(medium_cloud, 100)
        assert np.array_equal(a, b)

    def test_invalid_code_bits_rejected(self):
        with pytest.raises(ValueError):
            MortonSampler(code_bits=1)

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(4, 200),
        frac=st.floats(0.05, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_indices_always_valid_property(self, seed, n, frac):
        pts = np.random.default_rng(seed).normal(size=(n, 3))
        count = max(1, int(n * frac))
        result = MortonSampler().sample_batch(pts[None], count)
        assert len(result) == count
        assert result.indices.min() >= 0
        assert result.indices.max() < n
        assert len(set(result.indices[0].tolist())) == count


def _morton_upsample(points, result, feats):
    """The FP module's Morton gather-and-mix on one cloud: anchor rows
    follow sorted order, so the mix is gathered back by rank."""
    anchors, weights = MortonUpsampler().interpolation_weights_batch(
        points[None], result
    )
    mixed = np.einsum("nac,na->nc", feats[anchors[0]], weights[0])
    return mixed[result.order.ranks[0]]


def _exact_upsample(points, sampled_indices, feats):
    """The FP module's exact gather-and-mix on one cloud."""
    anchors, weights = exact_interpolation_weights_batch(
        points[None], np.asarray(sampled_indices)[None]
    )
    return np.einsum("nac,na->nc", feats[anchors[0]], weights[0])


class TestMortonUpsampler:
    def test_candidate_slots_shape(self, medium_cloud):
        result = MortonSampler().sample_batch(medium_cloud[None], 64)
        slots = MortonUpsampler().candidate_sample_slots(
            len(medium_cloud), result
        )
        assert slots.shape == (1024, 4)
        assert slots.min() >= 0
        assert slots.max() < 64

    def test_candidate_offsets_exclude_own_block(self):
        """Per Sec. 5.1.2 the 4 candidates are at strides -2, -1, +1,
        +2 around the owning block (clamped at the edges)."""
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(100, 3))
        result = MortonSampler().sample_batch(pts[None], 10)
        slots = MortonUpsampler().candidate_sample_slots(100, result)
        # Point at sorted rank 55 owns block 5 -> slots {3, 4, 6, 7}.
        assert slots[55].tolist() == [3, 4, 6, 7]

    def test_weights_are_convex(self, medium_cloud):
        result = MortonSampler().sample_batch(medium_cloud[None], 64)
        _, weights = MortonUpsampler().interpolation_weights_batch(
            medium_cloud[None], result
        )
        assert weights.shape == (1, 1024, 3)
        assert np.allclose(weights.sum(axis=2), 1.0)
        assert (weights >= 0).all()

    def test_interpolate_shape_and_order(self, medium_cloud, rng):
        result = MortonSampler().sample_batch(medium_cloud[None], 64)
        feats = rng.normal(size=(64, 8))
        out = _morton_upsample(medium_cloud, result, feats)
        assert out.shape == (1024, 8)

    def test_interpolate_constant_features(self, medium_cloud):
        """Interpolating a constant field must return that constant."""
        result = MortonSampler().sample_batch(medium_cloud[None], 64)
        feats = np.full((64, 2), 7.5)
        out = _morton_upsample(medium_cloud, result, feats)
        assert np.allclose(out, 7.5)

    def test_interpolate_approximates_exact(self, medium_cloud, rng):
        """The approximation tracks exact 3-NN interpolation for a
        smooth feature field (coordinates as features)."""
        result = MortonSampler().sample_batch(medium_cloud[None], 128)
        indices = result.indices[0]
        feats = medium_cloud[indices]  # smooth: xyz itself
        approx = _morton_upsample(medium_cloud, result, feats)
        exact = _exact_upsample(medium_cloud, indices, feats)
        err = np.linalg.norm(approx - exact, axis=1)
        scale = np.linalg.norm(exact, axis=1).mean()
        assert err.mean() / scale < 0.25

    def test_rejects_mismatched_points(self, medium_cloud, small_cloud):
        result = MortonSampler().sample_batch(small_cloud[None], 64)
        with pytest.raises(ValueError):
            MortonUpsampler().interpolation_weights_batch(
                medium_cloud[None], result
            )


class TestExactInterpolate:
    def test_recovers_value_at_sample(self, small_cloud, rng):
        idx = np.arange(0, 256, 4)
        feats = rng.normal(size=(64, 5))
        out = _exact_upsample(small_cloud, idx, feats)
        # At a sampled point, the nearest sample is itself (distance 0)
        # and inverse-distance weighting collapses to that value.
        assert np.allclose(out[idx[0]], feats[0])

    def test_constant_field(self, small_cloud):
        idx = np.arange(0, 256, 8)
        feats = np.full((32, 3), 2.0)
        out = _exact_upsample(small_cloud, idx, feats)
        assert np.allclose(out, 2.0)

    def test_fewer_samples_than_anchors(self, small_cloud, rng):
        idx = np.array([0, 9])
        feats = rng.normal(size=(2, 4))
        out = _exact_upsample(small_cloud, idx, feats)
        assert out.shape == (256, 4)
