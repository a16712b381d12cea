"""Tests for layers, losses, optimizers, and point-cloud functional ops
(repro.nn.layers / losses / optim / functional)."""

import numpy as np
import pytest

from repro.nn import functional
from repro.nn.autograd import Tensor, no_grad
from repro.nn.functional import (
    edge_features,
    gather_points,
    group_points,
    max_pool_neighbors,
    query_blocks,
    relative_neighborhoods,
)
from repro.nn.layers import (
    BatchNorm,
    Dropout,
    LeakyReLU,
    Linear,
    Module,
    ReLU,
    Sequential,
    shared_mlp,
)
from repro.nn.losses import accuracy, cross_entropy, log_softmax, softmax
from repro.nn.optim import Adam


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 7, rng=rng)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 7)

    def test_applies_to_last_axis(self, rng):
        layer = Linear(4, 7, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 3, 6, 4))))
        assert out.shape == (2, 3, 6, 7)

    def test_no_bias(self, rng):
        layer = Linear(4, 2, bias=False, rng=rng)
        assert layer.bias is None
        zero_out = layer(Tensor(np.zeros((1, 4))))
        assert np.allclose(zero_out.data, 0.0)

    def test_rejects_wrong_channels(self, rng):
        with pytest.raises(ValueError):
            Linear(4, 2, rng=rng)(Tensor(np.zeros((5, 3))))

    def test_gradients_flow(self, rng):
        layer = Linear(3, 2, rng=rng)
        loss = (layer(Tensor(rng.normal(size=(4, 3)))) ** 2).sum()
        loss.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestBatchNorm:
    def test_normalizes_in_train_mode(self, rng):
        bn = BatchNorm(4)
        out = bn(Tensor(rng.normal(2.0, 3.0, size=(100, 4))))
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.data.std(axis=0), 1.0, atol=1e-2)

    def test_normalizes_over_all_leading_axes(self, rng):
        bn = BatchNorm(4)
        out = bn(Tensor(rng.normal(5.0, 2.0, size=(8, 16, 4))))
        assert np.allclose(
            out.data.reshape(-1, 4).mean(axis=0), 0.0, atol=1e-7
        )

    def test_running_stats_converge(self, rng):
        bn = BatchNorm(2, momentum=0.5)
        for _ in range(30):
            bn(Tensor(rng.normal(3.0, 1.0, size=(200, 2))))
        assert np.allclose(bn.running_mean, 3.0, atol=0.3)

    def test_eval_mode_uses_running_stats(self, rng):
        bn = BatchNorm(2, momentum=1.0)
        bn(Tensor(rng.normal(2.0, 1.0, size=(500, 2))))
        bn.eval()
        x = Tensor(np.full((4, 2), 2.0))
        out = bn(x)
        assert np.allclose(out.data, 0.0, atol=0.2)

    def test_gamma_beta_trainable(self, rng):
        bn = BatchNorm(3)
        (bn(Tensor(rng.normal(size=(10, 3)))) ** 2).sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None

    def test_rejects_wrong_channels(self, rng):
        with pytest.raises(ValueError):
            BatchNorm(3)(Tensor(np.zeros((5, 4))))


class TestActivationsAndDropout:
    def test_relu_module(self):
        out = ReLU()(Tensor(np.array([-1.0, 2.0])))
        assert out.data.tolist() == [0.0, 2.0]

    def test_leaky_relu_module(self):
        out = LeakyReLU(0.1)(Tensor(np.array([-1.0, 2.0])))
        assert np.allclose(out.data, [-0.1, 2.0])

    def test_dropout_train_scales(self, rng):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((1000, 4)))
        out = drop(x)
        kept = out.data != 0
        assert 0.3 < kept.mean() < 0.7
        assert np.allclose(out.data[kept], 2.0)

    def test_dropout_eval_identity(self, rng):
        drop = Dropout(0.5)
        drop.eval()
        x = Tensor(rng.normal(size=(10, 4)))
        assert np.array_equal(drop(x).data, x.data)

    def test_dropout_zero_p(self, rng):
        x = Tensor(rng.normal(size=(5, 2)))
        assert np.array_equal(Dropout(0.0)(x).data, x.data)

    def test_dropout_rejects_bad_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestModuleInfrastructure:
    def test_parameter_registry(self, rng):
        mlp = shared_mlp([4, 8, 8], rng=rng)
        names = [n for n, _ in mlp.named_parameters()]
        assert len(names) == len(set(names))
        # 2 Linears (w+b) + 2 BatchNorms (gamma+beta) = 8 params.
        assert len(names) == 8

    def test_state_dict_roundtrip(self, rng):
        a = shared_mlp([4, 8], rng=np.random.default_rng(1))
        b = shared_mlp([4, 8], rng=np.random.default_rng(2))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        assert np.allclose(a(x).data, b(x).data)

    def test_state_dict_rejects_missing_keys(self, rng):
        a = shared_mlp([4, 8], rng=rng)
        state = a.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_state_dict_rejects_bad_shape(self, rng):
        a = shared_mlp([4, 8], rng=rng)
        state = a.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_train_eval_propagates(self, rng):
        mlp = shared_mlp([4, 8, 8], rng=rng)
        mlp.eval()
        assert all(not m.training for m in mlp.modules())
        mlp.train()
        assert all(m.training for m in mlp.modules())

    def test_zero_grad(self, rng):
        mlp = shared_mlp([4, 8], rng=rng)
        (mlp(Tensor(rng.normal(size=(5, 4)))) ** 2).sum().backward()
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())

    def test_num_parameters(self, rng):
        layer = Linear(4, 8, rng=rng)
        assert layer.num_parameters() == 4 * 8 + 8

    def test_sequential_indexing(self, rng):
        mlp = shared_mlp([4, 8], rng=rng)
        assert len(mlp) == 3  # Linear, BatchNorm, ReLU
        assert isinstance(mlp[0], Linear)

    def test_shared_mlp_no_final_activation(self, rng):
        mlp = shared_mlp([4, 8, 2], rng=rng, final_activation=False)
        assert isinstance(mlp[-1], Linear)

    def test_shared_mlp_rejects_single_channel(self, rng):
        with pytest.raises(ValueError):
            shared_mlp([4], rng=rng)

    def test_shared_mlp_rejects_bad_activation(self, rng):
        with pytest.raises(ValueError):
            shared_mlp([4, 8], rng=rng, activation="gelu")


def _trained_mlp(activation, rng):
    """A shared MLP whose BN layers hold non-trivial running stats."""
    mlp = shared_mlp([5, 8, 6], rng=rng, activation=activation)
    for _ in range(3):
        mlp(Tensor(rng.normal(1.0, 2.0, size=(4, 16, 5))))
    for layer in mlp.layers:
        if isinstance(layer, BatchNorm):
            layer.gamma.data = rng.normal(size=layer.num_features)
            layer.beta.data = rng.normal(size=layer.num_features)
    return mlp.eval()


class TestInPlaceInference:
    """Path selection for ``Sequential``'s graph-free in-place path."""

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
    def test_matches_layer_chain_and_writes_nothing(self, rng, activation):
        mlp = _trained_mlp(activation, rng)
        x = Tensor(rng.normal(size=(2, 7, 4, 5)))
        x.data[0, 0, 0] = [0.0, -0.0, 0.0, 1.0, -1.0]  # signed zeros
        before = x.data.tobytes()
        params = [p.data.tobytes() for p in mlp.parameters()]
        stats = [
            (layer.running_mean.tobytes(), layer.running_var.tobytes())
            for layer in mlp.layers if isinstance(layer, BatchNorm)
        ]
        with no_grad():
            assert mlp.runs_in_place()
            got = mlp(x)
            want = x
            for layer in mlp.layers:
                want = layer(want)
        assert got.data.tobytes() == want.data.tobytes()
        assert x.data.tobytes() == before
        assert [p.data.tobytes() for p in mlp.parameters()] == params
        assert stats == [
            (layer.running_mean.tobytes(), layer.running_var.tobytes())
            for layer in mlp.layers if isinstance(layer, BatchNorm)
        ]

    @pytest.mark.parametrize("slope", [0.2, 1e-3, 1.0, 0.0, 1.5])
    def test_leaky_relu_bits_on_specials(self, rng, slope):
        tiny = np.finfo(np.float64).smallest_subnormal
        specials = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, -3 * tiny]
        x = np.concatenate([specials, rng.normal(size=64) * 1e3])
        layer = LeakyReLU(slope)
        with np.errstate(invalid="ignore"):  # -inf * 0 at slope 0
            want = layer(Tensor(x)).data
            got = layer.infer_(x.copy())
        assert got.tobytes() == want.tobytes()

    def test_non_linear_first_layer_copies_input(self, rng):
        seq = Sequential(ReLU(), Linear(3, 2, rng=rng)).eval()
        x = Tensor(rng.normal(size=(4, 3)))
        before = x.data.tobytes()
        with no_grad():
            assert seq.runs_in_place()
            got = seq(x)
        assert x.data.tobytes() == before
        assert got.data.tobytes() == seq(x).data.tobytes()

    def test_grad_mode_records_the_graph(self, rng):
        mlp = _trained_mlp("relu", rng)
        assert not mlp.runs_in_place()
        out = mlp(Tensor(rng.normal(size=(3, 5)), requires_grad=True))
        assert out.requires_grad

    def test_train_mode_under_no_grad_uses_batch_stats(self, rng):
        x = Tensor(rng.normal(3.0, 2.0, size=(4, 32, 5)))
        mlps = [
            shared_mlp([5, 8], rng=np.random.default_rng(1))
            for _ in range(2)
        ]
        with no_grad():
            assert not mlps[0].runs_in_place()
            got = mlps[0](x)
        want = mlps[1](x)  # grad mode, same weights and input
        assert got.data.tobytes() == want.data.tobytes()
        bn_got, bn_want = mlps[0].layers[1], mlps[1].layers[1]
        assert not np.array_equal(bn_got.running_mean, np.zeros(8))
        assert bn_got.running_mean.tobytes() == bn_want.running_mean.tobytes()
        assert bn_got.running_var.tobytes() == bn_want.running_var.tobytes()

    def test_training_dropout_disables_the_path(self, rng):
        seq = Sequential(Linear(3, 3, rng=rng), Dropout(0.5))
        with no_grad():
            assert not seq.runs_in_place()
            seq.eval()
            assert seq.runs_in_place()

    def test_query_blocks_cover_the_axis(self, monkeypatch):
        monkeypatch.setattr(functional, "INFERENCE_BLOCK_ROWS", 40)
        blocks = query_blocks(2, 23, 4)  # 5 queries a block
        assert [(b.start, b.stop) for b in blocks] == [
            (0, 5), (5, 10), (10, 15), (15, 20), (20, 23)
        ]


def _spy_shapes(monkeypatch, layer):
    """Record the shape of every array ``layer.infer_`` runs on."""
    shapes = []
    original = layer.infer_

    def spy(y):
        shapes.append(y.shape)
        return original(y)

    monkeypatch.setattr(layer, "infer_", spy)
    return shapes


def _pooled_oracle(layers, x, axis):
    """The layer-by-layer chain, then the max: today's order."""
    with no_grad():
        for layer in layers:
            x = layer(x)
    return x.data.max(axis=axis)


def _signed_mlp(activation, rng, slope=0.2):
    """A 3-stage MLP whose last BN has channels with gamma < 0,
    gamma = +0.0 / -0.0 (beta nonzero) and beta = -0.0."""
    mlp = _trained_mlp(activation, rng)
    if activation == "leaky_relu":
        mlp.layers[-1].negative_slope = slope
    bn = mlp.layers[-2]
    gamma = rng.normal(size=bn.num_features)
    gamma[:3] = -np.abs(gamma[:3])
    gamma[3], gamma[4] = 0.0, -0.0
    beta = rng.normal(size=bn.num_features)
    beta[0] = beta[5] = -0.0
    bn.gamma.data, bn.beta.data = gamma, beta
    return mlp


class TestPoolFirst:
    """``run_chain(..., pool_axis)`` runs BN + activation on pooled rows
    and returns the bytes of the layer-by-layer chain then the max."""

    @pytest.mark.parametrize("activation,slope", [
        ("relu", None), ("leaky_relu", 0.2), ("leaky_relu", 1.0),
    ])
    @pytest.mark.parametrize("shape,axis", [
        ((2, 7, 5, 5), 2), ((3, 9, 5), 1),
    ])
    def test_matches_layer_chain_on_pooled_rows(
        self, monkeypatch, rng, activation, slope, shape, axis
    ):
        mlp = _signed_mlp(activation, rng, slope)
        x = Tensor(rng.normal(size=shape))
        x.data[0, 0] = -0.0
        before = x.data.tobytes()
        params = [p.data.tobytes() for p in mlp.parameters()]
        want = _pooled_oracle(mlp.layers, x, axis)
        shapes = _spy_shapes(monkeypatch, mlp.layers[-1])
        with no_grad():
            got = mlp(x, pool_axis=axis).data
        assert got.tobytes() == want.tobytes()
        assert shapes == [want.shape]  # the tail ran on pooled rows
        assert x.data.tobytes() == before
        assert [p.data.tobytes() for p in mlp.parameters()] == params

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
    def test_zero_activation_input_falls_back(
        self, monkeypatch, rng, activation
    ):
        """A zeroed ``Linear`` column (zero bias) under a BN channel with
        zero mean and ``beta = -0.0`` (and one with ``gamma = +-0.0``)
        feeds the activation exact +-0: the tail runs on every row."""
        mlp = _signed_mlp(activation, rng)
        linear, bn = mlp.layers[-3], mlp.layers[-2]
        linear.weight.data[:, 1] = 0.0
        linear.bias.data[1] = 0.0
        bn.running_mean[1] = 0.0
        bn.beta.data[1] = bn.beta.data[3] = -0.0
        x = Tensor(rng.normal(size=(2, 6, 4, 5)))
        want = _pooled_oracle(mlp.layers, x, 2)
        shapes = _spy_shapes(monkeypatch, mlp.layers[-1])
        with no_grad():
            got = mlp(x, pool_axis=2).data
        assert got.tobytes() == want.tobytes()
        assert shapes == [(2, 6, 4, bn.num_features)]

    def test_fallback_decides_the_zero_sign(self, monkeypatch):
        """ReLU maps +0.0 to +0.0 and -1 to -0.0; the max keeps the
        later of equal values here, so the chain's answer is -0.0 while
        pooling first would give ReLU(+0.0) = +0.0.  The fallback keeps
        -0.0."""
        seq = Sequential(Linear(1, 1), ReLU()).eval()
        seq.layers[0].weight.data[:] = 1.0
        x = Tensor(np.array([0.0, -1.0]).reshape(1, 2, 1))
        want = _pooled_oracle(seq.layers, x, 1)
        assert np.signbit(want).all()
        assert not np.signbit(np.maximum(x.data.max(axis=1), 0.0)).any()
        with no_grad():
            got = seq(x, pool_axis=1).data
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("slope", [0.0, -0.1, 1.5])
    def test_slope_outside_unit_interval_keeps_the_order(
        self, monkeypatch, rng, slope
    ):
        mlp = _signed_mlp("leaky_relu", rng, slope)
        x = Tensor(rng.normal(size=(2, 5, 4, 5)))
        want = _pooled_oracle(mlp.layers, x, 2)
        shapes = _spy_shapes(monkeypatch, mlp.layers[-1])
        with no_grad():
            got = mlp(x, pool_axis=2).data
        assert got.tobytes() == want.tobytes()
        assert shapes == [(2, 5, 4, 6)]

    def test_head_without_tail_pools_the_linear(self, rng):
        seq = Sequential(Linear(5, 3, rng=rng), Dropout(0.5)).eval()
        x = Tensor(rng.normal(size=(2, 6, 5)))
        with no_grad():
            got = seq(x, pool_axis=1).data
        assert got.tobytes() == _pooled_oracle(seq.layers, x, 1).tobytes()

    def test_grad_mode_keeps_the_tape(self, rng):
        mlp = _signed_mlp("relu", rng)
        x = Tensor(rng.normal(size=(2, 6, 4, 5)), requires_grad=True)
        got = mlp(x, pool_axis=2)
        want = mlp(x).max(axis=2)
        assert got.requires_grad
        assert got.data.tobytes() == want.data.tobytes()
        got.sum().backward()
        grad = x.grad.copy()
        x.zero_grad()
        want.sum().backward()
        assert grad.tobytes() == x.grad.tobytes()

    def test_train_mode_keeps_batch_statistics(self, rng):
        x = Tensor(rng.normal(3.0, 2.0, size=(2, 8, 4, 5)))
        mlps = [
            shared_mlp([5, 8], rng=np.random.default_rng(1))
            for _ in range(2)
        ]
        with no_grad():
            assert not mlps[0].runs_in_place()
            got = mlps[0](x, pool_axis=2)
        want = _pooled_oracle(mlps[1].layers, x, 2)
        assert got.data.tobytes() == want.tobytes()
        assert (mlps[0].layers[1].running_mean.tobytes()
                == mlps[1].layers[1].running_mean.tobytes())


class TestLosses:
    def test_log_softmax_normalizes(self, rng):
        logp = log_softmax(Tensor(rng.normal(size=(5, 7))))
        assert np.allclose(np.exp(logp.data).sum(axis=1), 1.0)

    def test_softmax_stability(self):
        probs = softmax(Tensor(np.array([[1000.0, 1000.0, 0.0]])))
        assert np.isfinite(probs.data).all()
        assert probs.data[0, 0] == pytest.approx(0.5)

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 8)))
        loss = cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss.item() == pytest.approx(np.log(8))

    def test_cross_entropy_segmentation_shape(self, rng):
        logits = Tensor(rng.normal(size=(2, 16, 5)))
        loss = cross_entropy(logits, rng.integers(0, 5, (2, 16)))
        assert loss.shape == ()
        assert loss.item() > 0

    def test_cross_entropy_gradient_direction(self, rng):
        logits = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        targets = rng.integers(0, 3, 6)
        cross_entropy(logits, targets).backward()
        # Gradient at the target class is (p - 1) < 0.
        for i, t in enumerate(targets):
            assert logits.grad[i, t] < 0

    def test_label_smoothing(self, rng):
        logits = Tensor(np.array([[100.0, 0.0]]))
        plain = cross_entropy(logits, np.array([0]))
        smoothed = cross_entropy(
            logits, np.array([0]), label_smoothing=0.1
        )
        assert smoothed.item() > plain.item()

    def test_rejects_bad_targets(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError):
            cross_entropy(logits, np.array([0, 1, 2, 3]))

    def test_rejects_shape_mismatch(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError):
            cross_entropy(logits, np.zeros(5, dtype=int))

    def test_accuracy(self):
        logits = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert accuracy(logits, np.array([0, 0])) == 0.5


class TestOptimizers:
    def _quadratic_descent(self, make_optimizer, steps=200):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = make_optimizer([x])
        for _ in range(steps):
            opt.zero_grad()
            (x * x).sum().backward()
            opt.step()
        return np.abs(x.data).max()

    def test_adam_converges(self):
        final = self._quadratic_descent(
            lambda p: Adam(p, lr=0.3), steps=300
        )
        assert final < 1e-4

    def test_weight_decay_shrinks(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([x], lr=0.1, weight_decay=0.5)
        x.grad = np.zeros(1)
        opt.step()
        assert x.data[0] < 1.0

    def test_skips_params_without_grad(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        before = x.data.copy()
        Adam([x], lr=0.1).step()
        assert np.array_equal(x.data, before)

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_rejects_bad_lr(self, rng):
        x = Tensor(rng.normal(size=(2,)), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([x], lr=0.0)


class TestFunctional:
    def test_gather_points(self, rng):
        feats = Tensor(rng.normal(size=(2, 10, 4)), requires_grad=True)
        idx = np.array([[0, 5], [9, 9]])
        out = gather_points(feats, idx)
        assert out.shape == (2, 2, 4)
        assert np.array_equal(out.data[1, 0], feats.data[1, 9])
        out.sum().backward()
        assert feats.grad[1, 9].sum() == pytest.approx(8.0)

    def test_group_points(self, rng):
        feats = Tensor(rng.normal(size=(2, 10, 3)), requires_grad=True)
        idx = rng.integers(0, 10, (2, 4, 5))
        out = group_points(feats, idx)
        assert out.shape == (2, 4, 5, 3)
        assert np.array_equal(
            out.data[0, 2, 3], feats.data[0, idx[0, 2, 3]]
        )

    def test_group_points_rejects_out_of_range(self, rng):
        feats = Tensor(rng.normal(size=(1, 4, 2)))
        with pytest.raises(ValueError):
            group_points(feats, np.array([[[0, 9]]]))

    def test_relative_neighborhoods_zero_for_self(self, rng):
        xyz = rng.normal(size=(1, 8, 3))
        centers = np.array([[2, 5]])
        neighbors = np.array([[[2, 3], [5, 0]]])
        rel = relative_neighborhoods(xyz, centers, neighbors)
        assert np.allclose(rel[0, 0, 0], 0.0)
        assert np.allclose(rel[0, 1, 0], 0.0)
        assert np.allclose(
            rel[0, 0, 1], xyz[0, 3] - xyz[0, 2]
        )

    def test_max_pool_neighbors(self, rng):
        grouped = Tensor(rng.normal(size=(2, 4, 6, 3)))
        out = max_pool_neighbors(grouped)
        assert out.shape == (2, 4, 3)
        assert np.allclose(out.data, grouped.data.max(axis=2))

    def test_max_pool_rejects_3d(self, rng):
        with pytest.raises(ValueError):
            max_pool_neighbors(Tensor(rng.normal(size=(2, 4, 3))))

    def test_edge_features_structure(self, rng):
        feats = Tensor(rng.normal(size=(1, 6, 2)))
        idx = np.array([[[1, 2]] * 6])
        out = edge_features(feats, idx)
        assert out.shape == (1, 6, 2, 4)
        # First half is the center feature, second the difference.
        assert np.allclose(out.data[0, 3, 0, :2], feats.data[0, 3])
        assert np.allclose(
            out.data[0, 3, 0, 2:],
            feats.data[0, 1] - feats.data[0, 3],
        )

    def test_edge_features_self_edge_zero_diff(self, rng):
        feats = Tensor(rng.normal(size=(1, 4, 3)))
        idx = np.arange(4).reshape(1, 4, 1)
        out = edge_features(feats, idx)
        assert np.allclose(out.data[..., 3:], 0.0)
