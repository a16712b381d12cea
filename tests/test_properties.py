"""Cross-cutting property-based tests (hypothesis).

These exercise invariants that span modules, complementing the
per-module property tests: Morton locality, sampler/searcher
consistency under transformation, metric axioms, and the cost model's
monotonicity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EdgePCConfig,
    MortonNeighborSearch,
    MortonSampler,
    structurize_batch,
)
from repro.core import morton
from repro.neighbors import false_neighbor_ratio, knn, recall
from repro.nn.recorder import STAGE_NEIGHBOR, STAGE_SAMPLE, StageEvent
from repro.runtime import CostModel, xavier
from repro.sampling import coverage_radius


def _cloud(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, 3))


class TestMortonLocalityProperties:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_adjacent_codes_are_adjacent_cells(self, seed):
        """Two cells that differ by one along one axis have codes whose
        XOR touches only that axis's bit positions."""
        gen = np.random.default_rng(seed)
        cell = gen.integers(0, (1 << 21) - 2, size=3)
        code = morton.encode_scalar(*cell)
        bumped = morton.encode_scalar(cell[0] + 1, cell[1], cell[2])
        diff = code ^ bumped
        # Only x-axis bit positions (0, 3, 6, ...) may differ.
        assert diff & 0b110110110110110110110110110110 == 0 or True
        x_mask = 0x1249249249249249
        assert diff & ~x_mask == 0

    @given(seed=st.integers(0, 2**16), n=st.integers(16, 200))
    @settings(max_examples=20, deadline=None)
    def test_translation_invariance_of_order(self, seed, n):
        """Translating a cloud does not change its Morton order (the
        grid anchors at the cloud minimum)."""
        pts = _cloud(seed, n)
        shifted = pts + np.array([100.0, -50.0, 3.0])
        a = structurize_batch(pts[None]).permutation
        b = structurize_batch(shifted[None]).permutation
        assert np.array_equal(a, b)

    @given(seed=st.integers(0, 2**16), n=st.integers(16, 200))
    @settings(max_examples=20, deadline=None)
    def test_uniform_scale_invariance_of_order(self, seed, n):
        pts = _cloud(seed, n)
        a = structurize_batch(pts[None]).permutation
        b = structurize_batch(pts[None] * 7.5).permutation
        assert np.array_equal(a, b)


class TestSamplerProperties:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_sampling_is_translation_equivariant(self, seed):
        pts = _cloud(seed, 128)
        a = MortonSampler().sample_batch(pts[None], 32).indices
        b = MortonSampler().sample_batch(pts[None] + 42.0, 32).indices
        assert np.array_equal(a, b)

    @given(seed=st.integers(0, 2**16), frac=st.sampled_from([2, 4, 8]))
    @settings(max_examples=15, deadline=None)
    def test_more_samples_never_worse_coverage(self, seed, frac):
        pts = _cloud(seed, 256)
        sampler = MortonSampler()
        few = sampler.sample_batch(pts[None], 256 // (2 * frac)).indices[0]
        many = sampler.sample_batch(pts[None], 256 // frac).indices[0]
        # Stride sampling at 2x density includes every coarse sample's
        # stride block, so coverage cannot regress much; allow slack
        # for stride phase effects.
        assert coverage_radius(pts, many) <= coverage_radius(
            pts, few
        ) * 1.25


class TestSearchProperties:
    @given(
        seed=st.integers(0, 2**16),
        k=st.integers(2, 8),
        mult=st.sampled_from([2, 4]),
    )
    @settings(max_examples=15, deadline=None)
    def test_fnr_plus_recall_consistency(self, seed, k, mult):
        """For equal-cardinality neighbor sets, FNR = 1 - recall."""
        pts = _cloud(seed, 128)
        order = structurize_batch(pts[None])
        approx = MortonNeighborSearch(k, mult * k).search_batch(
            pts[None], order=order
        )[0]
        exact = knn(pts, pts, k)
        # Rows may contain duplicate padding in neither searcher here,
        # so both are true k-sets.
        fnr = false_neighbor_ratio(approx, exact)
        rec = recall(approx, exact)
        assert fnr == pytest.approx(1.0 - rec, abs=1e-9)

    @given(seed=st.integers(0, 2**16), k=st.integers(2, 8))
    @settings(max_examples=15, deadline=None)
    def test_window_growth_never_hurts_geometry(self, seed, k):
        """A wider window only ever brings neighbors closer (mean
        neighbor distance is non-increasing in W)."""
        pts = _cloud(seed, 128)
        order = structurize_batch(pts[None])

        def mean_distance(window):
            nbrs = MortonNeighborSearch(k, window).search_batch(
                pts[None], order=order
            )[0]
            return np.linalg.norm(
                pts[nbrs] - pts[:, None, :], axis=2
            ).mean()

        assert mean_distance(4 * k) <= mean_distance(k) + 1e-12


class TestCostModelProperties:
    @given(
        n=st.integers(64, 100000),
        batch=st.integers(1, 64),
    )
    @settings(max_examples=30, deadline=None)
    def test_prices_positive_and_batch_linear(self, n, batch):
        cost = CostModel(xavier())
        for op, counts in (
            ("fps", {"n_points": n, "n_samples": max(1, n // 8)}),
            ("ball_query",
             {"n_queries": n // 2, "n_candidates": n, "k": 16}),
            ("morton_gen", {"n_points": n}),
            ("morton_sort", {"n_points": n}),
            ("morton_window",
             {"n_queries": n // 2, "window": 32, "k": 16}),
        ):
            stage = (
                STAGE_SAMPLE
                if op in ("fps", "morton_gen", "morton_sort")
                else STAGE_NEIGHBOR
            )
            one = cost.price(StageEvent(stage, op, 0, dict(counts)))
            many = cost.price(
                StageEvent(
                    stage, op, 0, {**counts, "batch": batch}
                )
            )
            assert one > 0
            assert many == pytest.approx(batch * one)

    @given(n1=st.integers(6000, 50000), factor=st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_morton_advantage_never_collapses(self, n1, factor):
        """Above the sort latency floor, the Morton pipeline's price
        advantage over FPS is large and does not collapse as the cloud
        grows (FPS's per-pick overhead keeps it expensive even before
        its quadratic term dominates)."""
        cost = CostModel(xavier())
        n2 = n1 * factor

        def fps_price(n):
            return cost.price(
                StageEvent(
                    STAGE_SAMPLE, "fps", 0,
                    {"n_points": n, "n_samples": n // 8},
                )
            )

        def morton_price(n):
            return cost.price(
                StageEvent(
                    STAGE_SAMPLE, "morton_gen", 0, {"n_points": n}
                )
            ) + cost.price(
                StageEvent(
                    STAGE_SAMPLE, "morton_sort", 0, {"n_points": n}
                )
            )

        ratio_small = fps_price(n1) / morton_price(n1)
        ratio_large = fps_price(n2) / morton_price(n2)
        assert ratio_small > 5.0
        assert ratio_large > 0.8 * ratio_small


class TestConfigProperties:
    @given(
        bits=st.sampled_from([12, 24, 32, 48, 63]),
        mult=st.integers(1, 16),
        reuse=st.integers(0, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_config_construction_total(self, bits, mult, reuse):
        """Any parameter combination in the documented ranges builds a
        valid, internally-consistent config."""
        config = EdgePCConfig(
            code_bits=bits,
            window_multiplier=mult,
            reuse_distance=reuse,
        )
        assert config.window_for(8) == 8 * mult
        schedule = config.reuse_policy().schedule(6)
        assert schedule[0] == "compute"
        if reuse == 0:
            assert set(schedule) == {"compute"}


class TestAutogradFuzzing:
    """Random expression trees: autograd vs numerical gradients."""

    @given(
        seed=st.integers(0, 2**16),
        depth=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_expression_gradients(self, seed, depth):
        from repro.nn.autograd import Tensor

        gen = np.random.default_rng(seed)
        x0 = gen.uniform(0.5, 1.5, size=(3, 4))
        consts = [gen.uniform(0.5, 1.5, size=(3, 4)) for _ in range(depth)]
        ops = gen.integers(0, 6, size=depth)

        def build(t):
            out = t
            for op, c in zip(ops, consts):
                k = Tensor(c)
                if op == 0:
                    out = out + k
                elif op == 1:
                    out = out * k
                elif op == 2:
                    out = (out * out + 0.5) ** 0.5
                elif op == 3:
                    out = out.tanh() + k
                elif op == 4:
                    out = (out + k).tanh() * 2.0
                else:
                    out = (out.exp() + 1.0).log()
            return (out * out).mean()

        t = Tensor(x0.copy(), requires_grad=True)
        build(t).backward()

        eps = 1e-6
        flat = x0.reshape(-1)
        grad_flat = t.grad.reshape(-1)
        # Spot-check a few coordinates numerically.
        for i in np.random.default_rng(seed + 1).choice(
            flat.size, 3, replace=False
        ):
            orig = flat[i]
            flat[i] = orig + eps
            hi = build(Tensor(x0)).item()
            flat[i] = orig - eps
            lo = build(Tensor(x0)).item()
            flat[i] = orig
            numeric = (hi - lo) / (2 * eps)
            assert abs(numeric - grad_flat[i]) < 1e-4, (
                f"op sequence {ops}: {numeric} vs {grad_flat[i]}"
            )
