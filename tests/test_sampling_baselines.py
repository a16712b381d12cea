"""Tests for the exact samplers and quality metrics (repro.sampling)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import (
    chamfer_distance,
    coverage_radius,
    density_uniformity,
    farthest_point_sample,
    fps_operation_count,
    mean_coverage_distance,
    uniform_sample,
    uniform_stride_indices,
)


class TestFPS:
    def test_count_and_uniqueness(self, medium_cloud):
        idx = farthest_point_sample(medium_cloud, 100, start_index=0)
        assert idx.shape == (100,)
        assert len(set(idx.tolist())) == 100

    def test_starts_at_start_index(self, medium_cloud):
        idx = farthest_point_sample(medium_cloud, 10, start_index=7)
        assert idx[0] == 7

    def test_second_pick_is_farthest(self):
        pts = np.array(
            [[0, 0, 0], [1, 0, 0], [5, 0, 0], [2, 0, 0]], dtype=float
        )
        idx = farthest_point_sample(pts, 2, start_index=0)
        assert idx[1] == 2

    def test_paper_example(self):
        """Fig. 8(a): sampling 3 of 5 points starting at P0 picks
        P0, P3, P4."""
        # Coordinates chosen so the squared-distance arrays match the
        # paper's: after P0, D = {0, 14, 10, 49, 33}; after P3,
        # D = {0, 11, 10, 0, 26}.  (The same five points also satisfy
        # the Fig. 10 ball-query example — see the neighbors tests.)
        pts = np.array(
            [
                [0.0, 0.0, 0.0],    # P0
                [3.0, 2.0, 1.0],    # P1
                [3.0, 0.0, 1.0],    # P2
                [6.0, 3.0, 2.0],    # P3
                [5.0, -2.0, 2.0],   # P4
            ]
        )
        idx = farthest_point_sample(pts, 3, start_index=0)
        assert idx.tolist() == [0, 3, 4]

    def test_greedy_coverage_property(self, medium_cloud):
        """Each added FPS point never increases the coverage radius."""
        idx = farthest_point_sample(medium_cloud, 64, start_index=0)
        r16 = coverage_radius(medium_cloud, idx[:16])
        r64 = coverage_radius(medium_cloud, idx)
        assert r64 <= r16

    def test_sample_all(self, small_cloud):
        idx = farthest_point_sample(
            small_cloud, len(small_cloud), start_index=0
        )
        assert sorted(idx.tolist()) == list(range(len(small_cloud)))

    def test_random_start_deterministic_with_rng(self, small_cloud):
        a = farthest_point_sample(
            small_cloud, 5, rng=np.random.default_rng(3)
        )
        b = farthest_point_sample(
            small_cloud, 5, rng=np.random.default_rng(3)
        )
        assert np.array_equal(a, b)

    def test_rejects_zero_samples(self, small_cloud):
        with pytest.raises(ValueError):
            farthest_point_sample(small_cloud, 0)

    def test_rejects_too_many(self, small_cloud):
        with pytest.raises(ValueError):
            farthest_point_sample(small_cloud, 1000)

    def test_rejects_bad_start(self, small_cloud):
        with pytest.raises(ValueError):
            farthest_point_sample(small_cloud, 5, start_index=500)

    def test_operation_count(self):
        assert fps_operation_count(8192, 1024) == 8192 * 1024


class TestUniformAndRandom:
    def test_stride_indices_spacing(self):
        idx = uniform_stride_indices(100, 10)
        assert idx.tolist() == list(range(0, 100, 10))

    def test_stride_indices_uneven(self):
        idx = uniform_stride_indices(10, 3)
        assert idx.tolist() == [0, 3, 6]

    def test_stride_all(self):
        assert uniform_stride_indices(5, 5).tolist() == [0, 1, 2, 3, 4]

    def test_stride_rejects_zero(self):
        with pytest.raises(ValueError):
            uniform_stride_indices(10, 0)

    def test_uniform_sample_wraps_stride(self, small_cloud):
        assert np.array_equal(
            uniform_sample(small_cloud, 16),
            uniform_stride_indices(256, 16),
        )

    @given(n=st.integers(1, 500), m=st.integers(1, 500))
    @settings(max_examples=100, deadline=None)
    def test_stride_property(self, n, m):
        if m > n:
            with pytest.raises(ValueError):
                uniform_stride_indices(n, m)
            return
        idx = uniform_stride_indices(n, m)
        assert idx.shape == (m,)
        assert idx.min() >= 0
        assert idx.max() < n
        assert len(set(idx.tolist())) == m


class TestQualityMetrics:
    def test_coverage_radius_zero_when_all_sampled(self, small_cloud):
        assert coverage_radius(
            small_cloud, np.arange(len(small_cloud))
        ) == pytest.approx(0.0, abs=1e-6)

    def test_coverage_radius_single_sample(self):
        pts = np.array([[0, 0, 0], [3, 4, 0]], dtype=float)
        assert coverage_radius(pts, np.array([0])) == pytest.approx(5.0)

    def test_mean_coverage_below_max(self, medium_cloud):
        idx = uniform_sample(medium_cloud, 32)
        mean_d = mean_coverage_distance(medium_cloud, idx)
        max_d = coverage_radius(medium_cloud, idx)
        assert 0 < mean_d <= max_d

    def test_chamfer_identity(self, small_cloud):
        assert chamfer_distance(
            small_cloud, small_cloud
        ) == pytest.approx(0.0, abs=1e-6)

    def test_chamfer_symmetric(self, small_cloud, rng):
        other = rng.normal(size=(100, 3))
        assert chamfer_distance(small_cloud, other) == pytest.approx(
            chamfer_distance(other, small_cloud)
        )

    def test_density_uniformity_perfect_grid(self):
        """Samples that tile the cloud evenly give near-zero CV."""
        line = np.zeros((100, 3))
        line[:, 0] = np.arange(100)
        samples = np.arange(5, 100, 10)  # centers of 10-point blocks
        # Boundary ties leave at most a one-point imbalance per cell.
        assert density_uniformity(line, samples) < 0.1

    def test_density_uniformity_detects_clumping(self):
        line = np.zeros((100, 3))
        line[:, 0] = np.arange(100)
        clumped = np.arange(5)  # all samples at one end
        even = np.arange(5, 100, 20)
        assert density_uniformity(line, clumped) > density_uniformity(
            line, even
        )

    def test_fps_beats_random_on_coverage(self, medium_cloud, rng):
        fps_idx = farthest_point_sample(medium_cloud, 32, start_index=0)
        rand_idx = rng.choice(len(medium_cloud), 32, replace=False)
        assert coverage_radius(medium_cloud, fps_idx) <= coverage_radius(
            medium_cloud, rand_idx
        )
