"""A small reverse-mode automatic-differentiation engine over NumPy.

This is the substrate the PointNet++ / DGCNN reproductions train on.
It implements exactly the operator set those models need — elementwise
arithmetic, matmul, reductions, reshaping, gathers for the
grouping stage — with full broadcasting support, and builds a dynamic
tape that :meth:`Tensor.backward` walks in reverse topological order.

Design notes:

- Gradients accumulate into ``Tensor.grad`` (float64 arrays); graphs are
  rebuilt every forward pass (define-by-run), matching how the PyTorch
  originals behave.
- Only ops whose inputs have ``requires_grad`` propagate; constant
  subgraphs are pruned automatically.
- ``no_grad`` is a context manager for inference passes.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float]

# Grad mode is thread-local: serving worker threads run inference
# under ``no_grad`` concurrently, and a shared global flag would let
# two overlapping save/restore pairs interleave so the loser's stale
# ``previous`` wins — permanently disabling graph construction for
# every thread (including a trainer on the main thread).
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were 1 in the original shape.
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 != g
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array plus an optional gradient and tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # Introspection ------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy — treat as read-only)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # Autograd -----------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("called backward on a non-grad tensor")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward without an explicit gradient requires a "
                    "scalar output"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ValueError("gradient shape mismatch")

        # Reverse topological order over the tape.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # Arithmetic ----------------------------------------------------------

    @staticmethod
    def _lift(value: Union["Tensor", Number, np.ndarray]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data
        needs = self.requires_grad or other.requires_grad
        out = Tensor(out_data, needs, (self, other))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        out._backward = backward if out.requires_grad else None
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, self.requires_grad, (self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        out._backward = backward if out.requires_grad else None
        return out

    def __sub__(self, other) -> "Tensor":
        """``self - other`` in one pass.

        IEEE 754 defines ``x - y`` as ``x + (-y)``, so every non-NaN
        result equals the two-op form bit for bit; only the sign bit
        of a NaN may differ.
        """
        other = self._lift(other)
        out_data = self.data - other.data
        needs = self.requires_grad or other.requires_grad
        out = Tensor(out_data, needs, (self, other))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(-_unbroadcast(grad, other.data.shape))

        out._backward = backward if out.requires_grad else None
        return out

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data
        needs = self.requires_grad or other.requires_grad
        out = Tensor(out_data, needs, (self, other))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(grad * other.data, self.data.shape)
                )
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(grad * self.data, other.data.shape)
                )

        out._backward = backward if out.requires_grad else None
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) * self ** -1.0

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = Tensor(self.data**exponent, self.requires_grad, (self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(
                grad * exponent * self.data ** (exponent - 1.0)
            )

        out._backward = backward if out.requires_grad else None
        return out

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data
        needs = self.requires_grad or other.requires_grad
        out = Tensor(out_data, needs, (self, other))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(g, other.data.shape))

        out._backward = backward if out.requires_grad else None
        return out

    # Elementwise functions ------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        out = Tensor(out_data, self.requires_grad, (self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        out._backward = backward if out.requires_grad else None
        return out

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.data), self.requires_grad, (self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        out._backward = backward if out.requires_grad else None
        return out

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        out = Tensor(out_data, self.requires_grad, (self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        out._backward = backward if out.requires_grad else None
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = Tensor(self.data * mask, self.requires_grad, (self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        out._backward = backward if out.requires_grad else None
        return out

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        """DGCNN uses LeakyReLU(0.2) throughout."""
        positive = self.data > 0
        scale = np.where(positive, 1.0, negative_slope)
        out = Tensor(self.data * scale, self.requires_grad, (self,))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * scale)

        out._backward = backward if out.requires_grad else None
        return out

    # Reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        out = Tensor(out_data, self.requires_grad, (self,))

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        out._backward = backward if out.requires_grad else None
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = (
            self.data.size
            if axis is None
            else np.prod(
                [self.data.shape[a] for a in np.atleast_1d(axis)]
            )
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Max along one axis; gradient flows to the (first) argmax."""
        out_data = self.data.max(axis=axis, keepdims=True)
        squeezed = out_data if keepdims else out_data.squeeze(axis=axis)
        out = Tensor(squeezed, self.requires_grad, (self,))
        if not out.requires_grad:
            return out
        mask = self.data == out_data
        # Route gradient only to the first maximal element per slice so
        # ties don't double-count (matches PyTorch's max backward).
        first = np.cumsum(mask, axis=axis) == 1
        mask = mask & first

        def backward(grad: np.ndarray) -> None:
            g = grad if keepdims else np.expand_dims(grad, axis)
            self._accumulate(mask * g)

        out._backward = backward
        return out

    def min(self, axis: int, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # Shape manipulation -----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(
            self.data.reshape(shape), self.requires_grad, (self,)
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        out._backward = backward if out.requires_grad else None
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out = Tensor(
            self.data.transpose(axes), self.requires_grad, (self,)
        )
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        out._backward = backward if out.requires_grad else None
        return out

    def expand_dims(self, axis: int) -> "Tensor":
        out = Tensor(
            np.expand_dims(self.data, axis), self.requires_grad, (self,)
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.squeeze(axis=axis))

        out._backward = backward if out.requires_grad else None
        return out

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        out = Tensor(
            np.broadcast_to(self.data, shape).copy(),
            self.requires_grad,
            (self,),
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.data.shape))

        out._backward = backward if out.requires_grad else None
        return out

    # Gathers ---------------------------------------------------------------

    def take(self, indices: np.ndarray, axis: int = 0) -> "Tensor":
        """Fancy-gather along ``axis`` (the grouping primitive).

        ``indices`` may be any integer array; the result inserts the
        index array's shape in place of ``axis``.  The backward pass is
        a scatter-add.
        """
        indices = np.asarray(indices)
        if not np.issubdtype(indices.dtype, np.integer):
            raise TypeError("indices must be integers")
        out_data = np.take(self.data, indices, axis=axis)
        out = Tensor(out_data, self.requires_grad, (self,))

        def backward(grad: np.ndarray) -> None:
            g = np.zeros_like(self.data)
            moved = np.moveaxis(
                grad,
                tuple(range(axis, axis + indices.ndim)),
                tuple(range(indices.ndim)),
            )
            g_moved = np.moveaxis(g, axis, 0)
            np.add.at(g_moved, indices.reshape(-1), moved.reshape(
                (-1,) + g_moved.shape[1:]
            ))
            self._accumulate(np.moveaxis(g_moved, 0, axis))

        out._backward = backward if out.requires_grad else None
        return out

    def __getitem__(self, key) -> "Tensor":
        out = Tensor(self.data[key], self.requires_grad, (self,))

        def backward(grad: np.ndarray) -> None:
            g = np.zeros_like(self.data)
            np.add.at(g, key, grad)
            self._accumulate(g)

        out._backward = backward if out.requires_grad else None
        return out


# Free functions -------------------------------------------------------------


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [Tensor._lift(t) for t in tensors]
    if not tensors:
        raise ValueError("need at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    needs = any(t.requires_grad for t in tensors)
    out = Tensor(out_data, needs, tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(lo, hi)
                tensor._accumulate(grad[tuple(index)])

    out._backward = backward if out.requires_grad else None
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [Tensor._lift(t) for t in tensors]
    expanded = [t.expand_dims(axis) for t in tensors]
    return concatenate(expanded, axis=axis)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum with subgradient routing to the winner."""
    a = Tensor._lift(a)
    b = Tensor._lift(b)
    a_wins = a.data >= b.data
    out_data = np.where(a_wins, a.data, b.data)
    needs = a.requires_grad or b.requires_grad
    out = Tensor(out_data, needs, (a, b))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * a_wins, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~a_wins, b.data.shape))

    out._backward = backward if out.requires_grad else None
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select ``a`` where ``condition`` else ``b`` (condition is data)."""
    a = Tensor._lift(a)
    b = Tensor._lift(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)
    needs = a.requires_grad or b.requires_grad
    out = Tensor(out_data, needs, (a, b))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * condition, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~condition, b.data.shape))

    out._backward = backward if out.requires_grad else None
    return out
