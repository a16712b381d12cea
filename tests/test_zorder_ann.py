"""Tests for the (1+eps) Z-order approximate NN baseline
(repro.neighbors.zorder_ann) — the paper's [12] comparison point."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.structurize import structurize_batch
from repro.neighbors import ZOrderApproxNN, knn


class TestZOrderApproxNN:
    def test_exact_at_eps_zero(self, rng):
        pts = rng.random((400, 3))
        ann = ZOrderApproxNN(pts, eps=0.0)
        for q in rng.random((20, 3)):
            approx = set(ann.query(q, 6).tolist())
            exact = set(knn(q[None], pts, 6)[0].tolist())
            assert approx == exact

    def test_error_bound_respected(self, rng):
        """The k-th returned distance never exceeds (1+eps) times the
        true k-th distance — the guarantee EdgePC trades away."""
        pts = rng.random((500, 3))
        for eps in (0.5, 2.0):
            ann = ZOrderApproxNN(pts, eps=eps)
            for q in rng.random((15, 3)):
                approx = ann.query(q, 8)
                exact = knn(q[None], pts, 8)[0]
                d_approx = np.linalg.norm(pts[approx[-1]] - q)
                d_exact = np.linalg.norm(pts[exact[-1]] - q)
                assert d_approx <= (1 + eps) * d_exact + 1e-9

    def test_results_sorted_by_distance(self, rng):
        pts = rng.random((200, 3))
        ann = ZOrderApproxNN(pts)
        q = rng.random(3)
        out = ann.query(q, 5)
        d = np.linalg.norm(pts[out] - q, axis=1)
        assert (np.diff(d) >= -1e-12).all()

    def test_larger_eps_scans_less(self, rng):
        pts = rng.random((1000, 3))
        tight = ZOrderApproxNN(pts, eps=0.0)
        loose = ZOrderApproxNN(pts, eps=2.0)
        tight_total = loose_total = 0
        for q in rng.random((10, 3)):
            tight.query(q, 8)
            tight_total += tight.last_scanned
            loose.query(q, 8)
            loose_total += loose.last_scanned
        assert loose_total <= tight_total

    def test_self_query(self, rng):
        pts = rng.random((100, 3))
        ann = ZOrderApproxNN(pts, eps=0.0)
        assert ann.query(pts[42], 1)[0] == 42

    def test_query_batch(self, rng):
        pts = rng.random((100, 3))
        ann = ZOrderApproxNN(pts)
        out = ann.query_batch(rng.random((4, 3)), 3)
        assert out.shape == (4, 3)

    def test_reuses_order(self, rng):
        pts = rng.random((100, 3))
        order = structurize_batch(pts[None])
        ann = ZOrderApproxNN(pts, order=order)
        assert ann.order is order

    def test_rejects_bad_eps(self, rng):
        with pytest.raises(ValueError):
            ZOrderApproxNN(rng.random((10, 3)), eps=-0.1)

    def test_rejects_bad_k(self, rng):
        ann = ZOrderApproxNN(rng.random((10, 3)))
        with pytest.raises(ValueError):
            ann.query(np.zeros(3), 0)
        with pytest.raises(ValueError):
            ann.query(np.zeros(3), 11)

    def test_rejects_mismatched_order(self, rng):
        order = structurize_batch(rng.random((1, 50, 3)))
        with pytest.raises(ValueError):
            ZOrderApproxNN(rng.random((60, 3)), order=order)

    def test_rejects_multi_cloud_order(self, rng):
        pts = rng.random((50, 3))
        order = structurize_batch(np.stack([pts, pts]))
        with pytest.raises(ValueError, match="B=1"):
            ZOrderApproxNN(pts, order=order)

    @given(seed=st.integers(0, 2**16), k=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_exactness_property(self, seed, k):
        gen = np.random.default_rng(seed)
        pts = gen.random((80, 3))
        ann = ZOrderApproxNN(pts, eps=0.0)
        q = gen.random(3)
        approx = set(ann.query(q, k).tolist())
        exact = set(knn(q[None], pts, k)[0].tolist())
        assert approx == exact
