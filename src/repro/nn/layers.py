"""Neural-network layers over the autograd engine.

The layer set matches what PointNet++ and DGCNN need: pointwise shared
MLPs (1x1 convolutions), batch normalization, dropout, and the usual
activations.  All layers treat the *last* axis as the channel axis, so
the same ``Linear`` applies to ``(B, C)`` logits, ``(B, N, C)`` point
features, and ``(B, N, k, C)`` grouped neighborhoods — which is exactly
the "shared MLP" structure of the original networks.

Inference without the tape: when no graph is recorded and no layer is
training, :func:`run_chain` (the body of :class:`Sequential` and of the
model heads) runs each layer's :meth:`Module.infer_` on bare arrays
instead of its ``forward``.  Every layer computes the same IEEE results
as its ``forward``, but in the array its ``Linear`` just allocated
instead of a temporary per op, so the output is byte-identical.  The
input and the parameters are never written.

Pooling before the monotone tail: a chain run with ``pool_axis`` ends
in a max over that axis.  In place, the layers after the last
``Linear`` (``BatchNorm`` -> ``ReLU`` / ``LeakyReLU``, eval ``Dropout``)
are per-channel compositions of monotone, correctly rounded ops, so
``max_j f(y_j) == f(max_j y_j)`` (``f(min_j y_j)`` where the BN's
``gamma < 0``), and :func:`run_chain` runs that tail on the pooled
rows only.  Equal floats differ in bits only as ``+0.0`` / ``-0.0``,
so a chain whose activation input is exactly zero at any pooled
position pools after the tail instead, as the tape does.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.autograd import Tensor, is_grad_enabled


class Module:
    """Base class: parameter registry, train/eval mode, state dicts."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # Registry ----------------------------------------------------------

    def register_parameter(self, name: str, value: Tensor) -> Tensor:
        value.requires_grad = True
        self._parameters[name] = value
        return value

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        super().__setattr__(name, value)

    def parameters(self) -> Iterator[Tensor]:
        yield from self._parameters.values()
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # Modes -------------------------------------------------------------

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # Serialization -----------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {
            name: param.data.copy()
            for name, param in self.named_parameters()
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()

    # Calling -----------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # Inference without the tape -----------------------------------------

    #: Whether :meth:`infer_` reproduces ``forward`` (in this mode).
    infers_in_place = False

    def infer_(self, y: np.ndarray) -> np.ndarray:
        """Graph-free ``forward`` on a bare array, overwriting ``y``.

        Returns the output, which is ``y`` itself for elementwise
        layers; only valid while :attr:`infers_in_place` holds.
        """
        raise NotImplementedError


@contextmanager
def swapped_attribute(model: Module, name: str, value):
    """Temporarily set attribute ``name`` to ``value`` on ``model`` and
    on every submodule that has it.

    Models read ``edgepc`` per forward call, so an attribute swap
    points a built module tree at another config (the guard's exact
    fallback) at zero copy cost, without the
    rebuild-and-``load_state_dict`` move (docs/architecture.md,
    "Strategy selection").
    """
    saved = []
    try:
        for module in model.modules():
            if hasattr(module, name):
                saved.append((module, getattr(module, name)))
                setattr(module, name, value)
        yield
    finally:
        for module, previous in saved:
            setattr(module, name, previous)


class Linear(Module):
    """Affine map on the last axis: ``y = x W + b``.

    Applied to higher-rank inputs this is the shared MLP / 1x1
    convolution of PointNet-family networks.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be positive")
        rng = rng or np.random.default_rng(0)
        # Kaiming-uniform fan-in init, as in the PyTorch originals.
        bound = np.sqrt(6.0 / in_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight",
            Tensor(rng.uniform(-bound, bound, (in_features, out_features))),
        )
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Tensor(np.zeros(out_features))
            )

    def _check(self, shape: Tuple[int, ...]) -> None:
        if shape[-1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input channels, "
                f"got {shape[-1]}"
            )

    def forward(self, x: Tensor) -> Tensor:
        self._check(x.shape)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    infers_in_place = True

    def infer_(self, y: np.ndarray) -> np.ndarray:
        # The matmul allocates the output; ``y`` is left untouched.
        self._check(y.shape)
        out = y @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        return out


class BatchNorm(Module):
    """Batch normalization over the channel (last) axis.

    Statistics are computed across every non-channel axis, which for
    ``(B, N, C)`` point features matches BatchNorm1d in the reference
    implementations.  Running statistics are kept for eval mode.
    """

    def __init__(
        self, num_features: int, momentum: float = 0.1, eps: float = 1e-5
    ) -> None:
        super().__init__()
        if num_features < 1:
            raise ValueError("num_features must be positive")
        if not 0 < momentum <= 1:
            raise ValueError("momentum must be in (0, 1]")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = self.register_parameter(
            "gamma", Tensor(np.ones(num_features))
        )
        self.beta = self.register_parameter(
            "beta", Tensor(np.zeros(num_features))
        )
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def _check(self, shape: Tuple[int, ...]) -> None:
        if shape[-1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} channels, got {shape[-1]}"
            )

    def forward(self, x: Tensor) -> Tensor:
        self._check(x.shape)
        axes = tuple(range(x.ndim - 1))
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=axes, keepdims=True)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean
                + self.momentum * mean.data.reshape(-1)
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var
                + self.momentum * var.data.reshape(-1)
            )
            normalized = centered * (var + self.eps) ** -0.5
        else:
            normalized = (x - self.running_mean) * (
                self.running_var + self.eps
            ) ** -0.5
        return normalized * self.gamma + self.beta

    @property
    def infers_in_place(self) -> bool:
        return not self.training

    def infer_(self, y: np.ndarray) -> np.ndarray:
        self._check(y.shape)
        y -= self.running_mean
        y *= (self.running_var + self.eps) ** -0.5
        y *= self.gamma.data
        y += self.beta.data
        return y


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    infers_in_place = True

    def infer_(self, y: np.ndarray) -> np.ndarray:
        return np.multiply(y, y > 0, out=y)


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.2) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)

    infers_in_place = True

    def infer_(self, y: np.ndarray) -> np.ndarray:
        # ``forward`` computes y * (1.0 if y > 0 else slope).  For
        # 0 < slope <= 1 that is max(y, y * slope) bit for bit: rounding
        # is monotone, so y * slope <= y above zero and >= y below it
        # (and the max is a vectorised pass, unlike a masked multiply).
        slope = self.negative_slope
        if 0 < slope <= 1:
            return np.maximum(y, y * slope, out=y)
        return np.multiply(y, slope, out=y, where=~(y > 0))


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(
        self, p: float = 0.5, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        if not 0 <= p < 1:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0:
            return x
        keep = (self._rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(keep)

    @property
    def infers_in_place(self) -> bool:
        return not self.training

    def infer_(self, y: np.ndarray) -> np.ndarray:
        return y


def chain_runs_in_place(layers: Sequence[Module]) -> bool:
    """True when :func:`run_chain` takes the in-place path: grad mode
    is off and no ``BatchNorm``/``Dropout`` layer is training."""
    return not is_grad_enabled() and all(
        layer.infers_in_place for layer in layers
    )


def _monotone_tail(
    layers: Sequence[Module],
) -> Tuple[int, Optional[BatchNorm], Optional[Module]]:
    """Split ``layers`` for :func:`run_chain`'s pool-first path.

    Returns ``(cut, bn, act)``: ``layers[cut:]``, the layers after the
    last ``Linear``, are ``bn`` then ``act`` (each possibly None) plus
    eval-mode ``Dropout`` (the identity) anywhere, with ``act`` a
    ``ReLU`` or a ``LeakyReLU`` with ``0 < slope <= 1``.  Any other
    tail gives ``(len(layers), None, None)``: pool after the chain.
    """
    cut = 0
    for i, layer in enumerate(layers):
        if isinstance(layer, Linear):
            cut = i + 1
    tail = [
        layer for layer in layers[cut:] if not isinstance(layer, Dropout)
    ]
    bn = tail.pop(0) if tail and isinstance(tail[0], BatchNorm) else None
    act = tail.pop(0) if tail else None
    if tail or not (
        act is None
        or isinstance(act, ReLU)
        or (isinstance(act, LeakyReLU) and 0 < act.negative_slope <= 1)
    ):
        return len(layers), None, None
    return cut, bn, act


def _pool_tail(
    y: np.ndarray,
    bn: Optional[BatchNorm],
    act: Optional[Module],
    axis: int,
) -> np.ndarray:
    """``max(act(bn(y)), axis)`` bit for bit, with ``bn`` and ``act``
    run on the pooled rows (see the module docstring)."""
    pooled = y.max(axis=axis)
    if bn is None and act is None:
        return pooled
    if bn is not None:
        negative = bn.gamma.data < 0
        if negative.any():
            # BN reverses the order of a channel whose gamma is negative.
            pooled = np.where(negative, y.min(axis=axis), pooled)
        pooled = bn.infer_(pooled)
    if not np.any(pooled == 0):
        return pooled if act is None else act.infer_(pooled)
    # A +-0 activation input: the pooled bits may depend on which
    # neighbor's zero the max keeps, so run the tail on every row.
    if bn is not None:
        y = bn.infer_(y)
    if act is not None:
        y = act.infer_(y)
    return y.max(axis=axis)


def run_chain(
    layers: Sequence[Module], x: Tensor, pool_axis: Optional[int] = None
) -> Tensor:
    """Apply ``layers`` in order, then, with ``pool_axis``, the max over
    that axis: each layer's :meth:`Module.infer_` on one array while
    :func:`chain_runs_in_place` holds (pooling before the monotone
    tail where :func:`_monotone_tail` allows), else each ``forward``
    on the tape.  The body of :class:`Sequential` and of every model
    head."""
    if chain_runs_in_place(layers):
        y = x.data
        if not (layers and isinstance(layers[0], Linear)):
            y = y.copy()  # only a Linear leaves its input as is
        if pool_axis is None:
            for layer in layers:
                y = layer.infer_(y)
            return Tensor(y)
        cut, bn, act = _monotone_tail(layers)
        for layer in layers[:cut]:
            y = layer.infer_(y)
        return Tensor(_pool_tail(y, bn, act, pool_axis))
    for layer in layers:
        x = layer(x)
    return x if pool_axis is None else x.max(axis=pool_axis)


class Sequential(Module):
    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers: List[Module] = []
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)
            self.layers.append(layer)

    def runs_in_place(self) -> bool:
        """True when :meth:`forward` takes the in-place path."""
        return chain_runs_in_place(self.layers)

    def forward(self, x: Tensor, pool_axis: Optional[int] = None) -> Tensor:
        """The chain on ``x``; with ``pool_axis``, max-pooled over that
        axis (see :func:`run_chain`)."""
        return run_chain(self.layers, x, pool_axis)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


def shared_mlp(
    channels: Sequence[int],
    rng: Optional[np.random.Generator] = None,
    batch_norm: bool = True,
    activation: str = "relu",
    final_activation: bool = True,
) -> Sequential:
    """Build the PointNet-style shared MLP: Linear -> BN -> activation
    per stage.

    Args:
        channels: e.g. ``[in, 64, 128]`` builds two stages.
        activation: ``"relu"`` (PointNet++) or ``"leaky_relu"`` (DGCNN).
        final_activation: whether the last stage gets BN + activation.
    """
    if len(channels) < 2:
        raise ValueError("need at least input and output channel counts")
    if activation not in ("relu", "leaky_relu"):
        raise ValueError(f"unknown activation {activation!r}")
    rng = rng or np.random.default_rng(0)
    layers: List[Module] = []
    last = len(channels) - 2
    for i, (c_in, c_out) in enumerate(zip(channels[:-1], channels[1:])):
        layers.append(Linear(c_in, c_out, rng=rng))
        if i < last or final_activation:
            if batch_norm:
                layers.append(BatchNorm(c_out))
            layers.append(
                ReLU() if activation == "relu" else LeakyReLU()
            )
    return Sequential(*layers)
