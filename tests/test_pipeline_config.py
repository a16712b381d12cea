"""Tests for EdgePCConfig (repro.core.pipeline) and the DSE helpers
(repro.core.dse)."""

import numpy as np
import pytest

from repro.core.dse import (
    explore_code_bits,
    explore_window_sizes,
    pareto_front,
)
from repro.core.morton import code_memory_bytes
from repro.core.pipeline import EdgePCConfig


class TestEdgePCConfig:
    def test_paper_default_layers(self):
        cfg = EdgePCConfig.paper_default()
        assert cfg.uses_morton_sampling(0)
        assert not cfg.uses_morton_sampling(1)
        assert cfg.uses_morton_upsampling(3)
        assert not cfg.uses_morton_upsampling(0)
        assert cfg.uses_morton_neighbors(0)
        assert not cfg.uses_morton_neighbors(2)

    def test_baseline_is_baseline(self):
        cfg = EdgePCConfig.baseline()
        assert cfg.is_baseline
        assert not cfg.uses_morton_sampling(0)

    def test_paper_default_not_baseline(self):
        assert not EdgePCConfig.paper_default().is_baseline

    def test_tensor_core_variant(self):
        assert EdgePCConfig.paper_with_tensor_cores().use_tensor_cores
        assert not EdgePCConfig.paper_default().use_tensor_cores

    def test_window_rule(self):
        cfg = EdgePCConfig(window_multiplier=4)
        assert cfg.window_for(16) == 64

    def test_window_rejects_bad_k(self):
        with pytest.raises(ValueError):
            EdgePCConfig().window_for(0)

    def test_paper_memory_budget(self):
        """Sec. 5.2.3: the per-batch Morton codes are 'only up to
        32 KB' — exactly 8192 points x 32 bits."""
        cfg = EdgePCConfig.paper_default()
        assert code_memory_bytes(8192, cfg.code_bits) <= 32 * 1024

    def test_reuse_policy(self):
        policy = EdgePCConfig(reuse_distance=2).reuse_policy()
        assert policy.reuse_distance == 2

    def test_rejects_bad_window_multiplier(self):
        with pytest.raises(ValueError):
            EdgePCConfig(window_multiplier=0)

    def test_rejects_negative_layer(self):
        with pytest.raises(ValueError):
            EdgePCConfig(sample_layers={-1})

    def test_rejects_bad_code_bits(self):
        with pytest.raises(ValueError):
            EdgePCConfig(code_bits=2)

    def test_frozen(self):
        with pytest.raises(Exception):
            EdgePCConfig().code_bits = 16

    def test_layer_sets_coerced_to_frozenset(self):
        cfg = EdgePCConfig(sample_layers=[0, 1, 1])
        assert cfg.sample_layers == frozenset({0, 1})


class TestExactEngineBoundary:
    """The partition dispatch leans on this seam: the fast exact
    engines take over exactly at ``exact_fast_threshold``."""

    @pytest.mark.parametrize("threshold", [1, 2, 100, 8192])
    def test_threshold_boundary(self, threshold):
        cfg = EdgePCConfig(exact_fast_threshold=threshold)
        if threshold > 1:
            assert cfg.exact_engine_for(threshold - 1) == "brute"
        assert cfg.exact_engine_for(threshold) == "fast"
        assert cfg.exact_engine_for(threshold + 1) == "fast"

    def test_default_threshold_boundary(self):
        cfg = EdgePCConfig()
        assert cfg.exact_engine_for(8191) == "brute"
        assert cfg.exact_engine_for(8192) == "fast"
        assert cfg.exact_engine_for(8193) == "fast"

    def test_zero_points_is_brute(self):
        assert EdgePCConfig().exact_engine_for(0) == "brute"

    def test_rejects_negative_point_count(self):
        with pytest.raises(ValueError):
            EdgePCConfig().exact_engine_for(-1)


class TestPostInitValidation:
    """Every __post_init__ rejection, one constructor arg at a time."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_multiplier": 0},
            {"window_multiplier": -3},
            {"reuse_distance": -1},
            {"fc_merge_factor": 0},
            {"exact_fast_threshold": 0},
            {"exact_fast_threshold": -8192},
            {"code_bits": 1},
            {"sample_layers": {-1}},
            {"upsample_layers": {-2}},
            {"neighbor_layers": {0, -1}},
        ],
        ids=lambda kw: next(iter(kw.items()))[0]
        + "="
        + str(next(iter(kw.items()))[1]),
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            EdgePCConfig(**kwargs)

    def test_boundary_values_accepted(self):
        cfg = EdgePCConfig(
            window_multiplier=1,
            reuse_distance=0,
            fc_merge_factor=1,
            exact_fast_threshold=1,
        )
        assert cfg.exact_engine_for(1) == "fast"


class TestDSE:
    def test_window_sweep_monotone_fnr(self, medium_cloud):
        points = explore_window_sizes(
            medium_cloud, k=8, multipliers=(1, 4, 16)
        )
        fnrs = [p.false_neighbor_ratio for p in points]
        assert fnrs == sorted(fnrs, reverse=True)

    def test_window_sweep_monotone_speedup(self, medium_cloud):
        points = explore_window_sizes(
            medium_cloud, k=8, multipliers=(1, 4, 16)
        )
        speeds = [p.search_speedup for p in points]
        assert speeds == sorted(speeds, reverse=True)
        assert speeds[0] == pytest.approx(1024 / 8)

    def test_window_sweep_query_subset(self, medium_cloud, rng):
        queries = rng.choice(1024, 64, replace=False)
        points = explore_window_sizes(
            medium_cloud, k=8, multipliers=(2,), query_indices=queries
        )
        assert 0 <= points[0].false_neighbor_ratio <= 1

    def test_code_bits_sweep_memory_linear(self, small_cloud):
        points = explore_code_bits(
            small_cloud, k=8, code_bits_options=(12, 24, 48)
        )
        mems = [p.memory_bytes for p in points]
        assert mems == sorted(mems)
        assert mems[0] == len(small_cloud) * 12 / 8

    def test_code_bits_sweep_fnr_saturates(self, medium_cloud):
        """Sec. 6.1.3: FNR falls with code width and saturates around
        32 bits — 63-bit codes bring little over 32-bit ones."""
        points = explore_code_bits(
            medium_cloud, k=8, code_bits_options=(12, 32, 63)
        )
        fnr = {p.code_bits: p.false_neighbor_ratio for p in points}
        assert fnr[32] <= fnr[12] + 0.02
        assert abs(fnr[63] - fnr[32]) < 0.08

    def test_pareto_front_removes_dominated(self, medium_cloud):
        points = explore_window_sizes(
            medium_cloud, k=8, multipliers=(1, 2, 4, 8)
        )
        front = pareto_front(points)
        # The sweep is monotone on both axes, so nothing dominates.
        assert len(front) == len(points)

    def test_pareto_front_with_dominated_point(self):
        from repro.core.dse import WindowDesignPoint

        good = WindowDesignPoint(8, 1.0, 0.1, 10.0)
        bad = WindowDesignPoint(16, 2.0, 0.2, 5.0)
        front = pareto_front([good, bad])
        assert front == [good]
