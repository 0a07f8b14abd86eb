"""Dense float64 tensors with reverse-mode automatic differentiation.

The computation graph is implicit: every operation returns a new Tensor that
records its parent tensors and a closure that routes the output gradient back
into them. ``Tensor.backward()`` on a scalar walks that graph once in reverse
topological order. Tensors are treated as immutable values; no operation
modifies its inputs, so they are safe to share read-only.

Gradients are values too: the first contribution to ``.grad`` is assigned
as is and later ones are added into a new array, so one array may be shared
by several nodes. Nothing may write into a ``.grad`` in place.

Everything is 64-bit: gradient checking against central finite differences is
the correctness backbone of this package and float32 would force loose
tolerances.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

import numpy as np

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Skip graph construction inside the block; forward values are unchanged."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class EmptySupportError(ValueError):
    """Raised when a masked softmax excludes every index of a slice."""


def _coerce(x) -> "Tensor":
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape``, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A dense float64 array plus the bookkeeping for reverse-mode autodiff.

    Each tensor is one node of the graph: ``op`` names the operation that
    produced it (empty for leaves), ``_parents`` are its inputs and
    ``_backward`` accumulates the chain-rule contribution into them.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = ""
        self._parents: tuple = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple, backward, op: str) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out.op = op
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.requires_grad:
            self.grad = grad if self.grad is None else self.grad + grad

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op or 'leaf'})"

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        a, b = self, _coerce(other)
        out_data = a.data + b.data

        def backward(g):
            a._accumulate(_unbroadcast(g, a.shape))
            b._accumulate(_unbroadcast(g, b.shape))

        return Tensor._result(out_data, (a, b), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g):
            a._accumulate(-g)

        return Tensor._result(-a.data, (a,), backward, "neg")

    def __sub__(self, other) -> "Tensor":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "Tensor":
        a, b = self, _coerce(other)
        out_data = a.data * b.data

        def backward(g):
            a._accumulate(_unbroadcast(g * b.data, a.shape))
            b._accumulate(_unbroadcast(g * a.data, b.shape))

        return Tensor._result(out_data, (a, b), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        a, b = self, _coerce(other)
        out_data = a.data / b.data

        def backward(g):
            a._accumulate(_unbroadcast(g / b.data, a.shape))
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return Tensor._result(out_data, (a, b), backward, "div")

    def __pow__(self, exponent: float) -> "Tensor":
        a, p = self, float(exponent)
        out_data = a.data**p

        def backward(g):
            a._accumulate(g * p * a.data ** (p - 1.0))

        return Tensor._result(out_data, (a,), backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        a, b = self, _coerce(other)
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(f"matmul needs operands of at least two dimensions, "
                             f"got shapes {a.shape} and {b.shape}")

        def backward(g):
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

        return Tensor._result(a.data @ b.data, (a, b), backward, "matmul")

    # -- reductions ----------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape))

        return Tensor._result(out_data, (a,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise nonlinearities ---------------------------------------------

    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)

        def backward(g):
            a._accumulate(g * out_data)

        return Tensor._result(out_data, (a,), backward, "exp")

    def log(self) -> "Tensor":
        a = self

        def backward(g):
            a._accumulate(g / a.data)

        return Tensor._result(np.log(a.data), (a,), backward, "log")

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(a.data)

        def backward(g):
            a._accumulate(g * (1.0 - out_data * out_data))

        return Tensor._result(out_data, (a,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        a = self
        out_data = 1.0 / (1.0 + np.exp(-a.data))

        def backward(g):
            a._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._result(out_data, (a,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        a = self
        out_data = np.maximum(a.data, 0.0)

        def backward(g):
            a._accumulate(g * (a.data > 0.0))

        return Tensor._result(out_data, (a,), backward, "relu")

    # -- shape manipulation -------------------------------------------------------

    def reshape(self, shape) -> "Tensor":
        a = self

        def backward(g):
            a._accumulate(g.reshape(a.shape))

        return Tensor._result(a.data.reshape(shape), (a,), backward, "reshape")

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        a = self
        inverse = np.argsort(axes)

        def backward(g):
            a._accumulate(g.transpose(inverse))

        return Tensor._result(a.data.transpose(axes), (a,), backward, "transpose")

    def __getitem__(self, key) -> "Tensor":
        a = self

        def backward(g):
            full = np.zeros_like(a.data)
            full[key] = g
            a._accumulate(full)

        return Tensor._result(a.data[key], (a,), backward, "slice")

    def unfold(self, kernel: int) -> "Tensor":
        """Zero-padded windows over the time axis, (..., T, c) -> (..., T, kernel*c).

        Row t holds steps t - kernel//2 .. t + kernel//2 in tap-major order, so
        ``x.unfold(K) @ W.reshape((K*c, c_out))`` is a 'same' convolution with
        taps ``W[tau]``; the kernel must be odd.
        """
        a = self
        T, c = a.shape[-2:]
        pad = kernel // 2
        padded = np.pad(a.data, [(0, 0)] * (a.ndim - 2) + [(pad, pad), (0, 0)])
        out_data = np.concatenate([padded[..., tau:tau + T, :] for tau in range(kernel)],
                                  axis=-1)

        def backward(g):
            folded = np.zeros(padded.shape)
            for tau in range(kernel):
                folded[..., tau:tau + T, :] += g[..., tau * c:(tau + 1) * c]
            a._accumulate(folded[..., pad:pad + T, :])

        return Tensor._result(out_data, (a,), backward, "unfold")

    # -- softmax -----------------------------------------------------------------

    def softmax(self, axis: int = -1, exclude: np.ndarray | None = None) -> "Tensor":
        """Softmax along ``axis``, optionally excluding masked indices.

        ``exclude`` is a boolean array broadcastable to the tensor's shape;
        True marks indices removed from the normalization. Excluded outputs
        are exactly zero, so downstream weighted sums literally ignore them.
        """
        a = self
        x = a.data
        if exclude is not None:
            excl = np.broadcast_to(np.asarray(exclude, dtype=bool), x.shape)
            if excl.all(axis=axis).any():
                raise EmptySupportError("softmax support is empty for some slice")
            shifted = np.where(excl, -np.inf, x)
            mx = shifted.max(axis=axis, keepdims=True)
            e = np.exp(np.where(excl, 0.0, x - mx))
            e = np.where(excl, 0.0, e)
        else:
            mx = x.max(axis=axis, keepdims=True)
            e = np.exp(x - mx)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def backward(g):
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (g - dot))

        return Tensor._result(out_data, (a,), backward, "softmax")

    # -- backward pass ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass from a scalar root.

        Visits each node exactly once in reverse topological order and adds
        gradients into ``.grad`` of every reachable tensor that requires one.
        """
        if self.size != 1:
            raise ValueError("backward root must be a scalar")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


# -- module-level helpers ----------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_coerce(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sel = [slice(None)] * g.ndim
            sel[axis] = slice(lo, hi)
            t._accumulate(g[tuple(sel)])

    return Tensor._result(out_data, tuple(ts), backward, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_coerce(t) for t in tensors]
    out_data = np.stack([t.data for t in ts], axis=axis)

    def backward(g):
        for i, t in enumerate(ts):
            t._accumulate(np.take(g, i, axis=axis))

    return Tensor._result(out_data, tuple(ts), backward, "stack")


def backward(loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradient of a scalar loss with respect to each parameter.

    Parameters the loss never touched get an explicit zero gradient.
    """
    loss.backward()
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]


# -- Adam --------------------------------------------------------------------------


class Adam:
    """Adam with bias correction over a list of leaf parameter tensors.

    State holds the step count plus first- and second-moment accumulators,
    one pair per parameter, shapes matching the parameters. The update is
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)``; a zero gradient from a fresh
    state therefore leaves the parameter untouched.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter shape {p.data.shape}")
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
