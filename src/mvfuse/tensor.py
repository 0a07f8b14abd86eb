"""Dense float64 tensors with reverse-mode automatic differentiation.

The computation graph is implicit: every operation returns a new Tensor that
records its parent tensors, a closure that routes the output gradient back
into them, and a creation sequence number. ``Tensor.backward()`` on a scalar
runs the reachable nodes once in reverse creation order, which is a reverse
topological order because a node's inputs always exist before it. Tensors
are treated as immutable values; no operation modifies its inputs, so they
are safe to share read-only.

Finiteness is checked where values enter and leave the graph: ``Tensor(...)``
rejects non-finite data, parameters and constants; ``backward`` rejects a
non-finite root; ``Adam.step`` rejects every non-finite gradient before any
parameter moves; and ``check_finite`` serves the model's predictions and
validation outputs. Every op output in between is trusted unchecked. On a
failure the graph is walked in creation order and the error names the op of
the first non-finite node.

An op is recorded when gradients are enabled and some parent requires one
(``_records``); an unrecorded output keeps no parents and no backward.
Besides the generic ops, seven nodes have a hand-written backward:
``window_affine``, ``lstm_scan``, ``bilstm_layers``, ``gated_mix``,
``attention``, ``layer_norm`` and ``cross_entropy``. The first four take
their temporaries from ``_scratch``: fresh arrays the backward may keep when
recorded, else slots of one buffer per call. The other three allocate only
what their graphs keep.

Gradients are values too: the first contribution to ``.grad`` is assigned
as is and later ones are added into a new array, so one array may be shared
by several nodes. Nothing may write into a ``.grad`` in place.

Everything is 64-bit: gradient checking against central finite differences is
the correctness backbone of this package and float32 would force loose
tolerances.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import accumulate, count
from math import prod
from typing import Sequence

import numpy as np

_GRAD_ENABLED = True
_SEQUENCE = count()


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
    """Sum a gradient down to ``shape``, undoing numpy broadcasting. Extra
    leading axes go one at a time, each a fast sum over whole rows."""
    for _ in range(grad.ndim - len(shape)):
        grad = grad.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``a^T @ g`` over the last two axes, the gradient of the right operand.

    Where the output is narrower than the input (n < k) it is taken as
    ``(g^T @ a)^T``: the same product, several times faster in BLAS at a
    prediction head's (rows, k) x (rows, 3) shape and slower where n > k.
    """
    if g.shape[-1] < a.shape[-1]:
        return np.swapaxes(np.swapaxes(g, -1, -2) @ a, -1, -2)
    return np.swapaxes(a, -1, -2) @ g


def _fold(data: np.ndarray, axis: int, ufunc: np.ufunc, limit: int) -> np.ndarray | None:
    """``ufunc.reduce`` of ``data`` over ``axis`` with keepdims, as a left fold
    of its column slices where ``axis`` is the last one and holds at most
    ``limit`` entries, or None elsewhere. On a short last axis the fold is
    several times faster than numpy's reduction, which runs a strided loop
    per row there."""
    if axis not in (-1, data.ndim - 1) or data.shape[-1] > limit:
        return None
    out = data[..., :1].copy()
    for j in range(1, data.shape[-1]):
        ufunc(out, data[..., j:j + 1], out=out)
    return out


def _shift(data: np.ndarray, axis: int) -> np.ndarray:
    """``data.max(axis=axis, keepdims=True)``, the softmax shift. Up to 32 keys
    on the last axis it is a fold of np.maximum, as exact and several times
    faster there: 0.07 against 0.68 ms on (128, 8, 8, 8) attention logits of
    8 keys, and 3.2 against 11.6 ms on a later cross layer's (127, 128, 8,
    1, 8), one thread; from about 64 keys max() is faster."""
    out = _fold(data, axis, np.maximum, 32)
    return data.max(axis=axis, keepdims=True) if out is None else out


# Widths up to which numpy sums the last axis as one left fold, so that the
# fold of np.add is bit-identical; from 8 entries it sums pairwise, in
# another order.
SEQUENTIAL_SUM = 7


def _normalizer(data: np.ndarray, axis: int) -> np.ndarray:
    """``data.sum(axis=axis, keepdims=True)``, the softmax normalizer: below
    8 entries on the last axis the bit-identical fold of np.add, 0.24 against
    0.69 ms per step on the (16256, 3) logits of a combos-m7 com loss, one
    thread."""
    out = _fold(data, axis, np.add, SEQUENTIAL_SUM)
    return data.sum(axis=axis, keepdims=True) if out is None else out


def _softmax(data: np.ndarray, axis: int, exclude: np.ndarray | None) -> np.ndarray:
    """The softmax of ``Tensor.softmax`` and ``attention``, in a new array of
    the shape ``data`` and ``exclude`` broadcast to; raises EmptySupportError
    if ``exclude`` leaves a slice empty."""
    if exclude is None:
        out = data - _shift(data, axis)
    else:
        excl = np.asarray(exclude, dtype=bool)
        excl = excl.reshape((1,) * (data.ndim - excl.ndim) + excl.shape)
        if excl.all(axis=axis).any():
            raise EmptySupportError("softmax support is empty for some slice")
        out = np.where(excl, -np.inf, data)
        out -= _shift(out, axis)
    np.exp(out, out=out)
    out /= _normalizer(out, axis)
    return out


def _log_softmax(data: np.ndarray, axis: int) -> np.ndarray:
    """The log of the softmax along ``axis`` as a shifted log-sum-exp, in a
    new array, for ``Tensor.log_softmax`` and ``cross_entropy``."""
    out = data - _shift(data, axis)
    out -= np.log(_normalizer(np.exp(out), axis))
    return out


def _records(parents) -> bool:
    """Whether an op over ``parents`` is recorded: gradients are enabled and
    some parent requires one."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _scratch(record: bool, sizes: Sequence[int]):
    """``array(slot, shape)``, where a node takes its temporaries. Recorded,
    every call returns a fresh array, which the backward may keep. Else it
    returns the front of slot ``slot``'s ``sizes[slot]`` elements of one
    buffer allocated here: arrays of one slot share memory, arrays of
    different slots never overlap, and the buffer lives while any does."""
    if record:
        return lambda slot, shape: np.empty(shape)
    ends = [0, *accumulate(sizes)]
    work = np.empty(ends[-1])
    return lambda slot, shape: work[ends[slot]:ends[slot] + prod(shape)].reshape(shape)


class Tensor:
    """A dense float64 array plus the bookkeeping for reverse-mode autodiff.

    Each tensor is one node of the graph: ``op`` names the operation that
    produced it (empty for leaves), ``_parents`` are its inputs,
    ``_backward`` accumulates the chain-rule contribution into them and
    ``_seq`` orders the recorded nodes by creation.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward", "_seq")

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
        """An op output: trusted finite, so it skips the scan of ``Tensor(...)``."""
        out = Tensor.__new__(Tensor)
        out.data = np.asarray(data, dtype=np.float64)
        out.grad = None
        out.op = ""
        out._parents = ()
        out._backward = None
        out.requires_grad = _records(parents)
        if out.requires_grad:
            out.op = op
            out._parents = parents
            out._backward = backward
            out._seq = next(_SEQUENCE)
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
        if self.size != 1:
            raise ValueError(f"item() needs a tensor of size 1, got shape {self.shape}")
        return self.data.item()

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        a, b = self, _coerce(other)
        out_data = a.data + b.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
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
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))

        return Tensor._result(out_data, (a, b), backward, "mul")

    __rmul__ = __mul__

    def __pow__(self, exponent: float) -> "Tensor":
        a, p = self, float(exponent)
        out_data = a.data**p

        def backward(g):
            a._accumulate(g * p * a.data ** (p - 1.0))

        return Tensor._result(out_data, (a,), backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        """Matrix product over the last two axes, broadcast over the leading
        ones; ``window_affine`` takes a (..., k) @ (k, n) weight product as
        single 2-D GEMMs."""
        a, b = self, _coerce(other)
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(f"matmul needs operands of at least two dimensions, "
                             f"got shapes {a.shape} and {b.shape}")

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(_weight_grad(a.data, g), b.shape))

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
        """Basic indexing: slices, integers, ``...`` and ``None``. Each element
        is selected at most once, so the backward assigns. An array or list
        key raises TypeError: gather rows with a one-hot product instead,
        whose backward is one GEMM (see ``fusion._select``)."""
        a = self
        for k in key if isinstance(key, tuple) else (key,):
            if not (k is None or k is Ellipsis or isinstance(k, slice)
                    or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))):
                raise TypeError(f"tensor index takes slices, integers, ... and None, not "
                                f"{type(k).__name__}; gather with a one-hot product instead")

        def backward(g):
            full = np.zeros_like(a.data)
            full[key] = g
            a._accumulate(full)

        return Tensor._result(a.data[key], (a,), backward, "slice")

    # -- softmax -----------------------------------------------------------------

    def softmax(self, axis: int = -1, exclude: np.ndarray | None = None) -> "Tensor":
        """Softmax along ``axis``, optionally excluding masked indices.

        ``exclude`` is a boolean array that broadcasts to the tensor's shape;
        True marks indices removed from the normalization, and one larger
        than the tensor raises ValueError. Excluded outputs are exactly
        zero, so downstream weighted sums literally ignore them.
        """
        a = self
        if exclude is not None and np.broadcast_shapes(np.shape(exclude), a.shape) != a.shape:
            raise ValueError(f"softmax exclusion of shape {np.shape(exclude)} is larger than "
                             f"the input {a.shape}")
        out_data = _softmax(a.data, axis, exclude)

        def backward(g):
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (g - dot))

        return Tensor._result(out_data, (a,), backward, "softmax")

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Log of the softmax along ``axis`` as a shifted log-sum-exp."""
        a = self
        out_data = _log_softmax(a.data, axis)

        def backward(g):
            a._accumulate(g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))

        return Tensor._result(out_data, (a,), backward, "log_softmax")

    # -- backward pass ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass from a finite scalar root.

        Runs each reachable node once in reverse creation order and adds
        gradients into ``.grad`` of every reachable tensor that requires one.
        """
        if self.size != 1:
            raise ValueError("backward root must be a scalar")
        check_finite(self, "backward root")
        self.grad = np.ones_like(self.data)
        for node in reversed(_tape(self)):
            node._backward(node.grad)


def _tape(root: Tensor) -> list[Tensor]:
    """The recorded nodes reachable from ``root``, in creation order."""
    nodes: list[Tensor] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node._backward is None or node._seq in seen:
            continue
        seen.add(node._seq)
        nodes.append(node)
        stack.extend(node._parents)
    nodes.sort(key=lambda node: node._seq)
    return nodes


def check_finite(t: Tensor, what: str) -> None:
    """Raise ValueError if ``t`` holds a non-finite value, naming the op of
    the first non-finite node of its recorded graph in creation order."""
    if np.isfinite(t.data).all():
        return
    first = next((node for node in _tape(t) if not np.isfinite(node.data).all()), None)
    origin = ("no recorded op produced it" if first is None else
              f"first non-finite value from op '{first.op}' with output shape {first.shape}")
    raise ValueError(f"{what} is not finite: {origin}")


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


# Window elements per block of an unrecorded K-tap node: 512 KiB, a quarter
# of a 2 MiB per-core L2, so a block's window, input and output stay in cache.
WINDOW_BLOCK = 2**16


def window_affine(x: Tensor, W: Tensor, b: Tensor | None = None, relu: bool = False,
                  keep: np.ndarray | None = None, pool: bool = False) -> Tensor:
    """``window_K(x) @ W + b`` as one node of single 2-D GEMMs, then optionally
    a rectifier and a scaled dropout keep mask of the output's shape. By rank,
    ``W`` is (c, n), a weight over the last axis, or the (K, c, n) taps of a
    'same' convolution over the time axis of (..., T >= 1, c), even at K = 1:
    window row t holds steps t - K//2 .. t + K//2, tap-major, zero outside the
    series; K must be odd. ``b`` is (n,). One loop builds the window and runs
    the product block by block over the leading rows into one output, with
    bias, rectifier and mask applied in place per block. A block holds every
    row at K = 1, where the window is the input itself, and when recorded,
    as the backward reads the whole window for the weight gradient; else
    about ``WINDOW_BLOCK`` window elements. The graph keeps only the window
    and the output; the backward folds into the input's gradient.

    ``pool``, for taps only, returns the (..., n) mean of that output over T
    instead, as ``Tensor.mean(axis=-2)`` takes it: the sum over T times 1/T,
    bit for bit. Unrecorded, every call is blocked, each block's output is a
    scratch slot of at most about ``WINDOW_BLOCK`` elements summed into the
    result, and the (..., T, n) output never exists; recorded, the graph keeps
    it for the rectifier's support and the backward spreads ``g * (1/T)``
    over T."""
    if W.ndim not in (2, 3) or (b is not None and b.shape != W.shape[-1:]):
        raise ValueError(f"window_affine needs W (c, n) or (K, c, n) and b (n,), "
                         f"got {W.shape} and {None if b is None else b.shape}")
    if W.ndim == 3 and W.shape[0] % 2 == 0:
        raise ValueError(f"window_affine needs an odd tap count for a 'same' window, "
                         f"got K={W.shape[0]}")
    if W.ndim == 3 and (x.ndim < 2 or x.shape[-2] < 1):
        raise ValueError("conv1d needs at least one time step")
    if pool and W.ndim != 3:
        raise ValueError("window_affine pools over time only with (K, c, n) taps")
    n, c = W.shape[-1], x.shape[-1]
    if W.shape[-2] != c:
        raise ValueError(f"affine expects last dim {W.shape[-2]}, got {c}")
    Wm = W.data.reshape(-1, n)
    kernel = W.shape[0] if W.ndim == 3 else 1
    parents = (x, W) if b is None else (x, W, b)
    T, pad = (x.shape[-2], kernel // 2) if W.ndim == 3 else (1, 0)
    # window steps lo..hi-1 of each tap that reads the series take input
    # steps lo+shift..hi+shift-1, so no slice bound is ever negative; at
    # K = 1 the window is the input itself
    taps = [(tau, tau - pad, max(0, pad - tau), min(T, T + pad - tau))
            for tau in range(kernel) if abs(tau - pad) < T] if kernel > 1 else []
    xs = x.data.reshape(-1, T, c)
    record = _records(parents)
    summed = pool and not record  # each block's output is summed over time in scratch
    width = max(kernel * c, n) if summed else kernel * c
    rows = max(1, len(xs) if record or (kernel == 1 and not summed)
               else WINDOW_BLOCK // (T * width))
    block = min(rows, len(xs)) * T
    work = _scratch(record, [block * kernel * c if kernel > 1 else 0, block * n if summed else 0])
    win = xs
    if kernel > 1:  # zero outside the series once; every block's taps write the rest
        win = work(0, (block // T, T, kernel * c))
        outside = np.ones((T, kernel), dtype=bool)
        for tau, _, t0, t1 in taps:
            outside[t0:t1, tau] = False
        win.reshape(len(win), T, kernel, c)[:, outside] = 0.0
    if summed:
        pooled = np.empty(x.shape[:-2] + (n,))
        sums = pooled.reshape(-1, n)
    else:
        out = np.empty(x.shape[:-1] + (n,))
        blocks = out.reshape(-1, T, n)
    keeps = None if keep is None else keep.reshape(len(xs), T, n)
    for lo in range(0, len(xs), rows):
        part = win[:len(xs) - lo] if kernel > 1 else xs[lo:lo + rows]
        z = work(1, (len(part), T, n)) if summed else blocks[lo:lo + rows]
        for tau, shift, t0, t1 in taps:
            part[:, t0:t1, tau * c:(tau + 1) * c] = xs[lo:lo + rows, t0 + shift:t1 + shift]
        np.matmul(part.reshape(-1, kernel * c), Wm, out=z.reshape(-1, n))
        if b is not None:
            z += b.data
        if relu:
            np.maximum(z, 0.0, out=z)
        if keeps is not None:
            z *= keeps[lo:lo + rows]
        if summed:
            np.sum(z, axis=-2, out=sums[lo:lo + rows])
    if pool:
        if not summed:
            pooled = out.sum(axis=-2)
        pooled *= 1.0 / T
    win = win.reshape(-1, kernel * c)

    def backward(g):
        if pool:  # the mean's gradient, the same for every step
            g = np.broadcast_to(np.expand_dims(g * (1.0 / T), -2), out.shape)
        dz = g if keep is None else g * keep
        if relu:  # out > 0 is the rectifier's support wherever a unit is kept
            dz = np.multiply(dz, out > 0.0, out=None if keep is None else dz)
        dz = dz.reshape(-1, n)
        if b is not None:
            b._accumulate(dz.sum(axis=0))
        W._accumulate(_weight_grad(win, dz).reshape(W.shape))
        if not x.requires_grad:
            return
        dx = dz @ Wm.T
        if kernel > 1:
            dwin, dx = dx.reshape(x.shape[:-1] + (kernel * c,)), np.zeros(x.shape)
            for tau, shift, lo, hi in taps:
                dx[..., lo + shift:hi + shift, :] += dwin[..., lo:hi, tau * c:(tau + 1) * c]
        x._accumulate(dx.reshape(x.shape))

    return Tensor._result(pooled if pool else out, parents, backward, "window_affine")


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """``(x - mu) * (var + 1e-12) ** -0.5 * gain + shift`` over the last axis
    of x (..., n >= 2) as one node, gain and shift (n,). mu and var are
    means over that axis taken as ``Tensor.mean`` takes them, so the output
    is the composed ops' bit for bit. The graph keeps the normalized input
    xn and the inverse deviation s; the backward is the closed form
    ``dx = s * (dn - mean(dn) - xn * mean(dn * xn))`` of ``dn = g * gain``,
    as mean(xn) is 0."""
    n = x.shape[-1]
    if n < 2:
        raise ValueError("layer norm needs at least two features")
    if gain.shape != (n,) or shift.shape != (n,):
        raise ValueError(f"layer norm needs gain and shift ({n},) for input {x.shape}, "
                         f"got {gain.shape} and {shift.shape}")
    scale = 1.0 / n
    normalized = x.data - x.data.sum(axis=-1, keepdims=True) * scale
    inv = ((normalized * normalized).sum(axis=-1, keepdims=True) * scale + 1e-12) ** -0.5
    normalized *= inv
    out = normalized * gain.data
    out += shift.data

    def backward(g):
        if shift.requires_grad:
            shift._accumulate(g.reshape(-1, n).sum(axis=0))
        if gain.requires_grad:
            gain._accumulate((g * normalized).reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            dn = g * gain.data
            dx = dn - dn.sum(axis=-1, keepdims=True) * scale
            dn *= normalized
            dx -= normalized * (dn.sum(axis=-1, keepdims=True) * scale)
            dx *= inv
            x._accumulate(dx)

    return Tensor._result(out, (x, gain, shift), backward, "layer_norm")


def cross_entropy(logits: Tensor, y: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Mean weighted cross-entropy over a batch of logits (B, K) and integer
    labels (B,) in [0, K) as one node: ``-mean(w[y] * log_softmax(logits)[y])``
    over the rows, where ``weights`` (K,) gives w, by default 1.

    The value is the composed ops' bit for bit: the log-softmax of
    ``Tensor.log_softmax``, each row's label entry times its weight, and
    ``-(sum * (1.0 / B))``. So is the logits' gradient: with ``row = -g *
    (1.0 / B)`` times w[y], it is ``exp(logp) * -row`` plus row at each
    label. The graph keeps the log-probabilities.
    """
    y = np.asarray(y, dtype=int)
    if logits.ndim != 2 or y.shape != logits.shape[:1] or not len(y):
        raise ValueError(f"cross_entropy needs logits (B >= 1, K) and labels (B,), "
                         f"got {logits.shape} and {y.shape}")
    B, K = logits.shape
    if y.min() < 0 or y.max() >= K:
        raise ValueError(f"label out of range [0, {K})")
    logp = _log_softmax(logits.data, -1)
    rows = np.arange(B)
    w = None if weights is None else np.asarray(weights, dtype=np.float64)[y]
    picked = logp[rows, y] if w is None else logp[rows, y] * w
    scale = 1.0 / B

    def backward(g):
        row = -g * scale
        row = np.broadcast_to(row, (B,)) if w is None else row * w
        dlogits = np.exp(logp)
        dlogits *= -row[:, None]
        dlogits[rows, y] += row
        logits._accumulate(dlogits)

    return Tensor._result(-(picked.sum() * scale), (logits,), backward, "cross_entropy")


def _lstm_gates(gates: np.ndarray, c_prev: np.ndarray | None, c: np.ndarray,
                spare: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One LSTM step's gate math, feature-major, in place: ``gates`` (4*d,
    rows) holds the pre-activations, its input, forget and output rows
    negated so that ``exp`` reads -z, and becomes the gates i, f, o, g; then
    ``c = f * c_prev + i * g``, or ``i * g`` from a zero state, and ``h = o
    * tanh(c)`` into ``c`` and ``h`` (d, rows). ``spare`` (d, rows) takes
    ``i * g`` and then tanh(c), which it returns."""
    d = len(gates) // 4
    sig = gates[:3 * d]
    with np.errstate(over="ignore"):  # exp overflows to inf where a gate is exactly 0
        np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    np.tanh(gates[3 * d:], out=gates[3 * d:])
    i, f, o, g = gates[:d], gates[d:2 * d], gates[2 * d:3 * d], gates[3 * d:]
    if c_prev is None:
        np.multiply(i, g, out=c)
    else:
        np.multiply(f, c_prev, out=c)
        c += np.multiply(i, g, out=spare)
    np.tanh(c, out=spare)
    np.multiply(o, spare, out=h)
    return spare


def _lstm_gates_backward(gates: np.ndarray, c_prev: np.ndarray | None, tanh_c: np.ndarray,
                         dh: np.ndarray, dc_next: np.ndarray | None, dz: np.ndarray,
                         carry: bool) -> np.ndarray | None:
    """The backward of ``_lstm_gates``: from the step's gates, c_prev (None
    from a zero state) and tanh(c), the gradient ``dh`` of its h and
    ``dc_next`` of its c (None for none), the gradient of the
    pre-activations as ``_lstm_gates`` read them into ``dz`` (4*d, rows):
    by -z at the sigmoid gates, so the weights times ``_gate_signs`` carry
    it back unchanged. Returns the gradient of c_prev if ``carry``, else
    None."""
    d = len(gates) // 4
    i, f, o, g = gates[:d], gates[d:2 * d], gates[2 * d:3 * d], gates[3 * d:]
    di, df, do, dg = dz[:d], dz[d:2 * d], dz[2 * d:3 * d], dz[3 * d:]
    np.multiply(dh, tanh_c, out=do)
    dc = np.multiply(tanh_c, tanh_c)
    np.subtract(1.0, dc, out=dc)
    dc *= o
    dc *= dh
    if dc_next is not None:
        dc += dc_next
    np.multiply(dc, g, out=di)
    np.multiply(dc, i, out=dg)
    if c_prev is None:
        df.fill(0.0)
    else:
        np.multiply(dc, c_prev, out=df)
    carried = dc * f if carry else None
    np.multiply(g, g, out=dc)  # dc is spent: it holds 1 - g^2 from here
    np.subtract(1.0, dc, out=dc)
    dg *= dc
    slope = np.subtract(gates[:3 * d], 1.0)  # -sig * (1 - sig), the slope by -z
    slope *= gates[:3 * d]
    dz[:3 * d] *= slope
    return carried


def _gate_signs(d: int) -> np.ndarray:
    """-1 at the input, forget and output gates, 1 at the candidate: gate
    weights times these give the sigmoid gates' pre-activations negated, to
    the bit, since negation is exact."""
    return np.repeat([-1.0, 1.0], (3 * d, d))


def lstm_scan(xs: Sequence[Tensor | None], W: Tensor, b: Tensor,
              inputs: list[list[int]] | None = None, parents: list[list[int]] | None = None,
              state: tuple[Tensor, Tensor] | None = None) -> list[Tensor]:
    """A whole LSTM recurrence as one node: at every step the gates i, f, o,
    g, then ``c = f * c_prev + i * g`` and ``h = o * tanh(c)``.

    ``xs`` holds input blocks of n rows each, (n, k), or None for a block no
    step reads. Step t reads the blocks ``inputs[t]`` stacked along the rows,
    by default block t alone: a plain chain. Each block of step t > 0
    continues the state of block ``parents[t - 1][j]`` of step t - 1, by
    default block j, so several blocks may share one parent, as the
    prefixes of a tree do. The first step continues ``state``, h and c of
    (rows_0, d), or else starts from zero, so it skips the ``W[k:]`` product
    and its c is i * g. ``W`` is (k + d, 4*d) and ``b`` (4*d,), gates in
    input, forget, output, candidate order. Returns every step's h,
    (rows_t, d) row-major, and after them, given a ``state``, the last
    step's c. ``LSTMCell.step`` is one step from a state.

    The gates are feature-major: a step's pre-activations are one (4*d, rows)
    array ``W[:k].T @ x.T + W[k:].T @ h_prev.T + b``, so ``[x, h_prev]`` is
    never concatenated and each gate is a contiguous block of rows. The
    row-major layout would run the gate math on d-wide strided column
    slices, several times slower at the small d of memory fusion. W and b
    are taken times ``_gate_signs``, so the sigmoid gates' rows come out
    negated, to the bit, for ``_lstm_gates``, the gate math that
    ``bilstm_layers`` shares, as it shares ``_lstm_gates_backward``. h and c
    stay feature-major between steps, so no step transposes its state; a
    shared parent's state is gathered by block in numpy. The forward takes
    every temporary from ``_scratch``, so a recorded node keeps each step's
    input rows, its parents' h and c, its gates after their nonlinearity
    and tanh(c). The backward runs back through time inside the node,
    carrying dh and dc feature-major, adding the blocks that share a parent
    by one one-hot product per step, and takes the x, W and b gradients
    after the step loop; it skips every gradient that no input needs, such
    as a constant state's. The outputs hand their gradients to the node, so
    none allocates a zero array for a slice.
    """
    steps = [[t] for t in range(len(xs))] if inputs is None else inputs
    d = W.shape[-1] // 4
    k = W.shape[0] - d
    if W.ndim != 2 or W.shape[1] != 4 * d or k < 1 or b.shape != (4 * d,):
        raise ValueError(f"lstm_scan needs W (k+d, 4*d) and b (4*d,), got {W.shape}, {b.shape}")
    blocks = {i: xs[i] for step in steps for i in step}
    n = next(iter(blocks.values())).shape[0]
    if state is not None and any(s.shape != (len(steps[0]) * n, d) for s in state):
        raise ValueError(f"lstm_scan needs a state h, c ({len(steps[0]) * n}, {d}), "
                         f"got {state[0].shape} and {state[1].shape}")
    for x in blocks.values():
        if x.shape != (n, k):
            raise ValueError(f"lstm_scan needs input blocks ({n}, {k}), got {x.shape}")
    if parents is not None and ([len(up) for up in parents] != [len(s) for s in steps[1:]] or any(
            not 0 <= p < len(prev) for up, prev in zip(parents, steps) for p in up)):
        raise ValueError("lstm_scan needs one parent per block of every step after the first, "
                         "a block of the step before")
    ups = [None] * len(steps)  # per step, its blocks' parents where they differ from block j
    if parents is not None:
        ups[1:] = [None if up == list(range(len(prev))) else up
                   for up, prev in zip(parents, steps)]
    node_parents = tuple(blocks.values()) + (W, b) + tuple(state or ())
    rows = [len(step) * n for step in steps]
    ends = list(accumulate(rows))
    out = np.empty((ends[-1], d))
    signs = _gate_signs(d)
    Wn, bn = W.data * signs, b.data * signs
    # slots: gates, product, h and c by turn, stacked inputs
    array = _scratch(_records(node_parents),
                     [size * max(rows) for size in (4 * d, 4 * d, d, d, d, d, k)])
    saved = []
    h, c = (None, None) if state is None else (s.data.T for s in state)
    for t, step in enumerate(steps):
        R, turn = rows[t], t % 2
        X = (blocks[step[0]].data if len(step) == 1 else
             np.concatenate([blocks[i].data for i in step], out=array(6, (R, k))))
        gates = array(0, (4 * d, R))
        np.matmul(Wn[:k].T, X.T, out=gates)
        Hp, Cp = h, c
        if ups[t] is not None:  # gather each block's parent state into the turn's slots
            Hp, Cp = (np.take(s.reshape(d, -1, n), ups[t], axis=1, mode="clip",
                              out=array(buf, (d, R)).reshape(d, -1, n)).reshape(d, R)
                      for s, buf in ((h, 2 + turn), (c, 4 + turn)))
        if Hp is not None:
            gates += np.matmul(Wn[k:].T, Hp, out=array(1, (4 * d, R)))
        gates += bn[:, None]
        c, h = array(4 + turn, (d, R)), out[ends[t] - R:ends[t]].T
        tanh_c = _lstm_gates(gates, Cp, c, array(1, (d, R)), h)
        saved.append((X, Hp, Cp, gates, tanh_c))

    shown = list(range(len(steps)))
    views = [out[ends[t] - rows[t]:ends[t]] for t in shown]
    if state is not None:
        shown.append(len(steps))
        views.append(c.T.copy())  # c lies in the scratch; a (1, d) c.T is contiguous
    handed = [None] * (len(steps) + 1)  # each step's h, then the last c
    wants_x = any(x.requires_grad for x in blocks.values())

    def backward(_):
        dhs = handed[:]
        handed[:] = [None] * len(handed)
        dzs = [None] * len(steps)
        dh_next, dc_next = None, None if dhs[-1] is None else dhs[-1].T
        for t in reversed(range(len(steps))):
            X, Hp, Cp, gates, tanh_c = saved[t]
            dh = None if dhs[t] is None else dhs[t].T
            if dh_next is not None:
                dh = dh_next if dh is None else dh + dh_next
            if dh is None:
                dh = np.zeros_like(tanh_c)
            dz = dzs[t] = np.empty_like(gates)
            dc_next = _lstm_gates_backward(gates, Cp, tanh_c, dh, dc_next, dz,
                                           Cp is not None and (t or state[1].requires_grad))
            dh_next = Wn[k:] @ dz if Hp is not None and (t or state[0].requires_grad) else None
            if ups[t] is not None:  # blocks' dh and dc added into their parents' blocks
                onehot = np.eye(len(steps[t - 1]))[ups[t]].T
                dh_next, dc_next = ((onehot @ a.reshape(d, -1, n)).reshape(d, -1)
                                    for a in (dh_next, dc_next))
        for s, ds in zip(state or (), (dh_next, dc_next)):
            if s.requires_grad:
                s._accumulate(ds.T)
        if wants_x:
            dxs = {}
            for step, dz in zip(steps, dzs):
                dX = Wn[:k] @ dz
                for j, i in enumerate(step):
                    part = dX[:, j * n:(j + 1) * n]
                    dxs[i] = part if i not in dxs else dxs[i] + part
            for i, dx in dxs.items():
                blocks[i]._accumulate(dx.T)
        if W.requires_grad:
            dW = np.zeros((4 * d, k + d))
            for dz, (X, Hp, _, _, _) in zip(dzs, saved):
                dW[:, :k] += dz @ X
                if Hp is not None:
                    dW[:, k:] += dz @ Hp.T
            W._accumulate((dW * signs[:, None]).T)
        if b.requires_grad:
            b._accumulate(sum(dz.sum(axis=1) for dz in dzs) * signs)

    node = Tensor._result(out, node_parents, backward, "lstm_scan")

    def hand(t: int):
        def backward(g):
            handed[t] = g
        return backward

    return [Tensor._result(v, (node,), hand(t), "lstm_scan_c" if t == len(steps) else "lstm_scan_h")
            for t, v in zip(shown, views)]


def bilstm_layers(tables: Sequence[tuple[Tensor, Tensor]], blocks: np.ndarray, n: int,
                  cells: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]],
                  keep: np.ndarray | None = None) -> Tensor:
    """Stacked bidirectional LSTM layers over G sequences of s positions as
    one node, (G*n, 2*d): the last layer's forward h after position s - 1
    beside its backward h after position 0.

    Position t's input is G blocks of n rows: the blocks ``blocks[t, 0]``
    of the table ``tables[t][0]`` beside the blocks ``blocks[t, 1]`` of
    ``tables[t][1]``, where a table stacks (n, d) blocks along its rows.
    ``cells`` holds per layer the forward W and b, then the backward W and
    b, W (3*d, 4*d) and b (4*d,) in ``lstm_scan``'s layout. Each direction
    runs from a zero state, and a later layer reads the forward h beside the
    backward h of the layer before. ``keep`` (layers, s, 2*d, G*n) holds the
    scaled dropout keep masks by which each layer multiplies each
    position's input, feature-major.

    Everything is feature-major. A layer holds one operand per position t,
    ``[h_fwd(t-1); x_t; 1; h_bwd(t+1)]`` (4*d + 1, G*n); the first layer's
    x_t is gathered from the tables by block and times its keep mask in
    place. The forward direction reads the rows ``[h_fwd(t-1); x_t; 1]``
    and the backward ``[x_t; 1; h_bwd(t+1)]``, so a step's pre-activations
    are one GEMM against W and b stacked in that order, bias folded in and
    sigmoid gates negated for ``_lstm_gates``; a direction's first step
    reads ``[x_t; 1]`` alone. A step writes its h into the operand that
    the direction's next step reads and, times the next layer's keep mask,
    into the next layer's x_t. The operands and each step's gates, c and
    tanh(c) come from ``_scratch``; unrecorded, two layers' operands are
    used in turn. The backward runs back through time inside the node, the
    pre-activations' gradient by -z at the sigmoid gates, so the stacked
    weights carry it back as they are: per step one GEMM gives the
    gradients of the h and x rows the step read and one those of W and b,
    which take the signs once at the end. The first layer's dx times its
    keep mask is added into the tables' gradients block by block, as one
    one-hot product per table.
    """
    s, layers = len(tables), len(cells)
    d = cells[0][1].shape[0] // 4 if cells else 0
    k = 2 * d
    G = blocks.shape[-1] if np.ndim(blocks) == 3 else 0
    if not layers or any(W.shape != (k + d, 4 * d) or b.shape != (4 * d,)
                         for cell in cells for W, b in (cell[:2], cell[2:])):
        raise ValueError(f"bilstm_layers needs per layer W ({k + d}, {4 * d}) and b ({4 * d},) "
                         f"twice, got {[tuple(p.shape) for cell in cells for p in cell]}")
    if not s or np.shape(blocks) != (s, 2, G) or not G or any(
            table.shape[1:] != (d,) or table.shape[0] % n for pair in tables for table in pair
            ) or blocks.min() < 0 or (blocks.max(axis=-1) >= [
                [table.shape[0] // n for table in pair] for pair in tables]).any():
        raise ValueError(f"bilstm_layers needs blocks (s, 2, G) of (n, {d}) table blocks for "
                         f"s = {s} positions, got {np.shape(blocks)}")
    R, P = G * n, 4 * d + 1
    if keep is not None and keep.shape != (layers, s, k, R):
        raise ValueError(f"bilstm_layers needs keep masks {(layers, s, k, R)}, "
                         f"got {keep.shape}")
    unique = tuple(dict.fromkeys(table for pair in tables for table in pair))
    params = tuple(p for cell in cells for p in cell)
    signs = _gate_signs(d)

    def columns(direction: int) -> tuple[slice, slice, int]:
        """Where x, h and the bias lie among the operand rows a direction
        reads, and so among its stacked weights' columns."""
        return ((slice(d, d + k), slice(0, d), d + k) if direction == 0 else
                (slice(0, k), slice(k + 1, k + 1 + d), k))

    def stacked(W: Tensor, b: Tensor, direction: int) -> np.ndarray:
        """W and b as (4*d, 3*d + 1) against the rows the direction reads,
        times ``_gate_signs``; built as its transpose, from W's rows."""
        x, h, one = columns(direction)
        out = np.empty((P - d, 4 * d))
        np.multiply(W.data[:k], signs, out=out[x])
        np.multiply(W.data[k:], signs, out=out[h])
        np.multiply(b.data, signs, out=out[one])
        return out.T

    mats = [(stacked(Wf, bf, 0), stacked(Wb, bb, 1)) for Wf, bf, Wb, bb in cells]
    # slots: per turn of layers its operands by position, then gates, c by turn and tanh(c)
    turns = min(layers, 2)
    spare = turns * s
    array = _scratch(_records(unique + params), [P * R] * spare + [4 * d * R] + [d * R] * 3)
    ops = [[array(layer % turns * s + t, (P, R)) for t in range(s)] for layer in range(layers)]
    saved = [[[None] * s for _ in range(2)] for _ in range(layers)]

    def reads(direction: int, first: bool) -> tuple[slice, slice]:
        """The operand rows a step reads and the stacked columns they meet:
        a direction's first step reads no h."""
        if first:
            return slice(d, d + k + 1), slice(d, None) if direction == 0 else slice(0, k + 1)
        return slice(0, d + k + 1) if direction == 0 else slice(d, P), slice(None)

    out = np.empty((R, 2 * d))
    for t, pair in enumerate(tables):
        x = ops[0][t][d:d + k]
        for half, table in enumerate(pair):  # block by block: a (n, d) transpose stays in cache
            into, rows = x[half * d:(half + 1) * d].reshape(d, G, n), table.data.reshape(-1, n, d)
            for j, block in enumerate(blocks[t, half]):
                into[:, j] = rows[block].T
        if keep is not None:
            x *= keep[0, t]
    for layer in range(layers):
        O = ops[layer]
        after = None if layer == layers - 1 else ops[layer + 1]
        for operand in O:
            operand[d + k] = 1.0
        for direction, W in enumerate(mats[layer]):
            order = range(s) if direction == 0 else range(s - 1, -1, -1)
            c_prev = None
            for j, t in enumerate(order):
                rows, cols = reads(direction, j == 0)
                z, c, tanh_c = saved[layer][direction][t] = (
                    array(spare, (4 * d, R)), array(spare + 1 + j % 2, (d, R)),
                    array(spare + 3, (d, R)))
                np.matmul(W[:, cols], O[t][rows], out=z)
                x_next = (None if after is None else
                          after[t][d + direction * d:d + (direction + 1) * d])
                if j < s - 1:
                    h = O[t + 1][:d] if direction == 0 else O[t - 1][d + k + 1:]
                else:
                    h = out[:, direction * d:(direction + 1) * d].T if after is None else x_next
                _lstm_gates(z, c_prev, c, tanh_c, h)
                c_prev = c
                if x_next is not None and j < s - 1:
                    x_next[...] = h
        if after is not None and keep is not None:
            for t in range(s):
                after[t][d:d + k] *= keep[layer + 1, t]

    def backward(g):
        g = g.reshape(R, 2 * d)
        # per layer and direction W's gradient above b's, by -z at the sigmoid gates
        dWb = np.zeros((layers, 2, k + d + 1, 4 * d))
        step_dW, dz, back = np.empty((P - d, 4 * d)), np.empty((4 * d, R)), np.empty((P - d, R))
        dh_above = None  # per position the gradient of the layer's h, forward beside backward
        for layer in reversed(range(layers)):
            O = ops[layer]
            grads = [np.empty((d + k, R)) for _ in range(s)]  # the forward's [dh_fwd(t-1); dx_t]
            for direction, W in enumerate(mats[layer]):
                order = range(s) if direction == 0 else range(s - 1, -1, -1)
                (x, h, one), grad = columns(direction), dWb[layer, direction]
                chain = dc = None
                for j in reversed(range(s)):
                    t, first = order[j], j == 0
                    if dh_above is not None:
                        dh = dh_above[t][direction * d:(direction + 1) * d]
                        if chain is not None:
                            dh += chain
                    else:
                        dh = g[:, direction * d:(direction + 1) * d].T if chain is None else chain
                    z, _, tanh_c = saved[layer][direction][t]
                    c_prev = None if first else saved[layer][direction][order[j - 1]][1]
                    dc = _lstm_gates_backward(z, c_prev, tanh_c, dh, dc, dz, not first)
                    rows, cols = reads(direction, first)
                    np.matmul(O[t][rows], dz.T, out=step_dW[cols])
                    grad[:k] += step_dW[x]
                    grad[k + d] += step_dW[one]
                    if not first:
                        grad[k:k + d] += step_dW[h]
                    if direction == 0:
                        if first:
                            np.matmul(W[:, d:d + k].T, dz, out=grads[t][d:])
                        else:
                            np.matmul(W[:, :d + k].T, dz, out=grads[t])
                            chain = grads[t][:d]
                    else:
                        np.matmul(W[:, cols].T, dz, out=back[:k + 1] if first else back)
                        chain = back[k + 1:]
                        grads[t][d:] += back[:k]
            dh_above = [dx[d:] for dx in grads]
            if keep is not None:
                for t, dx in enumerate(dh_above):
                    dx *= keep[layer, t]
        for t, pair in enumerate(tables):
            for half, table in enumerate(pair):
                if table.requires_grad:  # the blocks' gradients summed per table block
                    onehot = np.eye(table.shape[0] // n)[blocks[t, half]].T
                    dx = dh_above[t][half * d:(half + 1) * d].reshape(d, G, n)
                    table._accumulate((onehot @ dx).reshape(d, -1).T)
        dWb *= signs
        for cell, grads in zip(cells, dWb):
            for W, b, grad in zip(cell[::2], cell[1::2], grads):
                W._accumulate(grad[:k + d])
                b._accumulate(grad[k + d])

    return Tensor._result(out, unique + params, backward, "bilstm_layers")


def pattern_groups(on: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The rows of a boolean (K, n) array grouped by their number s of True
    entries, in the order each s first appears: per group its G members (G,)
    and each member's True columns (G, s), both ascending. The one grouping
    of availability patterns, for the gated, memory and cross fusions."""
    sizes = on.sum(axis=1)
    groups = [np.flatnonzero(sizes == s) for s in dict.fromkeys(sizes.tolist())]
    return [(members, np.nonzero(on[members])[1].reshape(len(members), -1)) for members in groups]


def _gated_plan(rows: Sequence, W: Tensor, b: Tensor, patterns: np.ndarray) -> tuple:
    """The used views, their rows, the patterns' groups and their slots'
    selection, for ``gated_mix`` and ``gated_weights``.

    The groups are ``pattern_groups``' with single views last; a group is
    its G member patterns and each slot's view among the used ones, (s, G),
    slot k holding each member's k-th view. Over all slots in group order
    (slot after slot, member after member), ``select`` (n, u*u) holds each
    slot's pattern's views in the row block of its own view: a slot of view
    v sums the pair products (v, w) over the pattern's views w.
    """
    patterns = np.asarray(patterns, dtype=bool)
    m = len(rows)
    used = np.flatnonzero(patterns.any(axis=0))
    d = rows[used[0]].shape[-1]
    if W.shape != (m * d, d * m) or b.shape != (d * m,) or patterns.shape[1:] != (m,):
        raise ValueError(f"gated_mix needs W ({m * d}, {d * m}), b ({d * m},) and patterns "
                         f"(K, {m}) for {m} views of width {d}, got {W.shape}, {b.shape} "
                         f"and {patterns.shape}")
    on = patterns[:, used]
    groups = [(members, columns.T) for members, columns in
              sorted(pattern_groups(on), key=lambda group: group[1].shape[1] == 1)]
    views = np.concatenate([slots.ravel() for _, slots in groups])
    select = np.zeros((len(views), len(used), len(used)))
    select[np.arange(len(views)), views] = on[np.concatenate(
        [np.tile(members, len(slots)) for members, slots in groups])]
    return used, tuple(rows[v] for v in used), groups, select.reshape(len(views), -1)


def _gated_blocks(W: np.ndarray, used: np.ndarray, d: int) -> np.ndarray:
    """Blocks (u, u, d, d) of a gate weight W (m*d, d*m) between the used
    views: [v, w] is block (w, v), W's rows (w, input dimension) by its
    columns (output dimension, v)."""
    m = len(W) // d
    return W.reshape(m, d, d, m).transpose(3, 0, 1, 2)[used[:, None], used]


def _gated_softmax(plan: tuple, W: np.ndarray, b: np.ndarray, record: bool) -> tuple:
    """The used rows z (u, B*d), the gate weights of every slot of ``plan``
    (n, B*d) in its slot order, and spare rows, at least 2G for the widest
    group's G, each from ``_scratch``.

    A slot of view v under a pattern has the logits sum over the pattern's
    views w of z_w @ W[w, v], plus v's bias: the u*u pair products are
    formed once, v's bias is added to the pair (v, v) that each of its slots
    sums, and one selection product sums them per slot. The softmax over
    each pattern's s slots runs in place, its shift and normalizer in the
    rows that held the pair products, which become the spare rows. A single
    view's weight is exactly 1, so those slots, last, skip both.
    """
    used, used_rows, groups, select = plan
    (u, n), (batch, d) = (len(used), len(select)), used_rows[0].shape
    sizes = (u, max(u * u, 2 * max(len(members) for members, _ in groups)), n)
    array = _scratch(record, [size * batch * d for size in sizes])
    z, spare, weights = (array(slot, (size, batch * d)) for slot, size in enumerate(sizes))
    np.stack([r.data for r in used_rows], out=z.reshape(u, batch, d))
    pairs = spare[:u * u].reshape(u, u, batch, d)
    np.matmul(z.reshape(u, batch, d), _gated_blocks(W, used, d), out=pairs)
    pairs.reshape(u * u, batch, d)[::u + 1] += b.reshape(d, -1)[:, used].T[:, None]
    multi = n - sum(len(members) for members, slots in groups if len(slots) == 1)
    np.matmul(select[:multi], pairs.reshape(u * u, -1), out=weights[:multi])
    weights[multi:] = 1.0
    start = 0
    for members, slots in groups:
        s, count = slots.shape
        if s == 1:
            break
        logits = weights[start:start + s * count].reshape(s, count, -1)
        start += s * count
        shift = spare[:count]
        np.max(logits, axis=0, out=shift)
        logits -= shift
        np.exp(logits, out=logits)
        logits *= np.reciprocal(np.sum(logits, axis=0, out=shift), out=shift)
    return z, weights, spare


def gated_mix(rows: Sequence[Tensor | None], W: Tensor, b: Tensor, patterns: np.ndarray) -> Tensor:
    """A gated merge of the rows under K availability patterns as one node,
    (K, B, d).

    ``rows`` holds one (B, d) row per view, or None for a view no pattern
    uses; ``patterns`` is a boolean (K, m) array. ``W`` (m*d, d*m) and ``b``
    (d*m,) give view v's logits under a pattern: the pattern's views,
    zero-imputed and concatenated, times W's columns (j, v) for each output
    dimension j, plus b's. The softmax over each pattern's available views
    weighs them per dimension, so a missing view's weight is an exact zero.

    Patterns are grouped by their number of views by ``pattern_groups``,
    single views last (see ``_gated_plan`` and ``_gated_softmax``). Per
    group the mix reads each slot's row straight from the rows and its
    result is written at its patterns' positions. Temporaries come from
    ``_scratch`` and the graph keeps only the weights.
    The backward forms w * g per slot, whose sum per view is the rows'
    gradient through the mix, and from it dlogits = w * g * (z - out); one
    transposed selection product gives the pair products' gradients, whence
    W's, the rows' through the logits, and b's from the pairs (v, v).
    """
    plan = _gated_plan(rows, W, b, patterns)
    used, used_rows, groups, select = plan
    (u, n), (batch, d) = (len(used), len(select)), used_rows[0].shape
    z, weights, spare = _gated_softmax(plan, W.data, b.data, _records(used_rows + (W, b)))
    out = np.empty((len(patterns), batch * d))
    start = 0
    for members, slots in groups:
        s, count = slots.shape
        mix, gathered = spare[:count], spare[count:2 * count]
        for k in range(s):  # take writes straight into ``out`` unless mode is "raise"
            into = gathered if k else mix
            np.take(z, slots[k], axis=0, out=into, mode="clip")
            into *= weights[start + k * count:start + (k + 1) * count]
            if k:
                mix += gathered
        out[members] = mix
        start += s * count
    out = out.reshape(len(patterns), batch, d)

    def backward(g):
        g, flat = g.reshape(len(out), -1), out.reshape(len(out), -1)
        widest = max(len(members) for members, _ in groups)
        work = np.empty((u + n + max(u * u, 2 * widest), batch * d))
        zs = np.stack([r.data for r in used_rows], out=work[:u].reshape(u, batch, d))
        dlogits, spare = work[u:u + n], work[u + n:]
        dz = np.zeros((u, batch * d))
        start = 0
        for members, slots in groups:
            s, count = slots.shape
            dl = dlogits[start:start + s * count]
            np.multiply(weights[start:start + s * count].reshape(s, count, -1),
                        np.take(g, members, axis=0, out=spare[:count], mode="clip"),
                        out=dl.reshape(s, count, -1))
            start += s * count
            dz += np.eye(u)[slots.ravel()].T @ dl  # w * g summed per view
            outs = np.take(flat, members, axis=0, out=spare[:count], mode="clip")
            for k in range(s):
                centred = np.take(zs.reshape(u, -1), slots[k], axis=0,
                                  out=spare[count:2 * count], mode="clip")
                centred -= outs
                dl[k * count:(k + 1) * count] *= centred
        dz = dz.reshape(u, batch, d)
        dpairs = np.matmul(select.T, dlogits, out=spare[:u * u]).reshape(u, u, batch, d)
        m = W.shape[0] // d
        db = np.zeros((d, m))
        db[:, used] = dpairs.reshape(u * u, batch, d)[::u + 1].sum(axis=1).T
        b._accumulate(db.reshape(b.shape))
        dW = np.zeros((m, d, d, m))
        dW.transpose(3, 0, 1, 2)[used[:, None], used] = np.swapaxes(zs, -1, -2) @ dpairs
        W._accumulate(dW.reshape(W.shape))
        blocks = np.swapaxes(_gated_blocks(W.data, used, d), -1, -2)
        for v in range(u):
            dz += np.matmul(dpairs[v], blocks[v], out=zs)
        for r, grad in zip(used_rows, dz):
            r._accumulate(grad)

    return Tensor._result(out, used_rows + (W, b), backward, "gated_mix")


def gated_weights(rows: Sequence[Tensor | None], W: Tensor, b: Tensor,
                  patterns: np.ndarray) -> np.ndarray:
    """The per-dimension view weights by which ``gated_mix`` mixes the rows,
    (K, B, d, m); a missing view's weights are 0."""
    plan = _gated_plan(rows, W, b, patterns)
    used, used_rows, groups, _ = plan
    batch, d = used_rows[0].shape
    _, weights, _ = _gated_softmax(plan, W.data, b.data, False)
    full = np.zeros((len(patterns), len(rows), batch, d))
    start = 0
    for members, slots in groups:
        full[members, used[slots]] = weights[start:start + slots.size].reshape(
            slots.shape + (batch, d))
        start += slots.size
    return full.transpose(0, 2, 3, 1)


# How far a logit may sit above its row's shared shift before ``attention``
# normalizes each key set on its own: exp(64) is about 6e27, far from overflow.
SHARED_SHIFT_BOUND = 64.0


def _attention_weights(q: np.ndarray, k: np.ndarray, scale: float,
                       exclude: np.ndarray | None) -> tuple:
    """The softmax weights of ``attention`` as (e, den, kept) over the logits
    ``scale * q @ k^T``, (..., n_q, n), with e four-axis as (..., K, n_q, n).

    Without key sets e is the (optionally masked) softmax, K = 1, and den
    and ``kept`` are None. With K key sets, ``kept`` is their (K, n) 0/1
    keys. Where K > 1 and a logit sits at most ``SHARED_SHIFT_BOUND`` above
    its row's max over the keys every set keeps, e is the shared
    (..., 1, n_q, n) exp of the logits less that max, and den (..., K, n_q)
    is one (..., n) @ (n, K) product of e with ``kept``; the shift is a kept
    key of every set, so no normalizer is below 1 and no excluded key moves
    it. Otherwise e is the masked softmax, each set shifted by its own max,
    and den is None: one set gains nothing from sharing its exp, and the
    row-wise backward is the cheaper one there.
    """
    logits = q @ np.swapaxes(k, -1, -2)
    logits *= scale
    n = logits.shape[-1]
    if exclude is None or np.ndim(exclude) <= logits.ndim:
        if exclude is not None:
            try:
                np.broadcast_to(exclude, logits.shape)
            except ValueError:
                raise ValueError(f"attention exclusion of shape {np.shape(exclude)} does not "
                                 f"broadcast to the logits {logits.shape}") from None
        return _softmax(logits, -1, exclude)[..., None, :, :], None, None
    exclude = np.asarray(exclude, dtype=bool)
    if exclude.shape[1:] != (1,) * (logits.ndim - 1) + (n,):
        raise ValueError(f"attention key sets must be (K, {'1, ' * (logits.ndim - 1)}{n}) "
                         f"for logits {logits.shape}, got {exclude.shape}")
    kept = ~exclude.reshape(-1, n)
    common = kept.all(axis=0)
    if len(kept) > 1 and common.any():
        e = logits - _shift(logits if common.all() else logits[..., common], -1)
        if e.max() <= SHARED_SHIFT_BOUND:
            kept = kept.astype(float)
            np.exp(e, out=e)
            den = (e.reshape(-1, n) @ kept.T).reshape(e.shape[:-1] + (-1,))
            return e[..., None, :, :], np.swapaxes(den, -1, -2), kept
    return (_softmax(logits[..., None, :, :], -1, exclude.reshape(-1, 1, n)), None,
            kept.astype(float))


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float, exclude: np.ndarray | None = None,
              keep: np.ndarray | None = None) -> Tensor:
    """``softmax(scale * q @ k^T) @ v`` as one node, with keys excluded from
    the softmax and the probabilities times a scaled dropout ``keep`` mask.

    q is (..., n_q, c), k (..., n, c) and v (..., n, c_v), with the same
    leading axes. ``exclude`` is boolean. One that broadcasts to the logits
    (..., n_q, n) excludes keys per row, and the output is (..., n_q, c_v).
    One of shape (K, 1, ..., 1, n), an axis more than the logits, holds K
    key sets of the shared input, laid out on the query axis: the output is
    (..., K, n_q, c_v). ``keep`` is in the layout of the probabilities,
    the output on identity values (n, n): (..., K, n_q, n) or (..., n_q, n).

    Key sets that share a shift (see ``_attention_weights``) never form
    their probabilities. The one (..., K, n_q, n) array is e times the
    sets' keys and ``keep``, which feeds the value product; the normalizers
    divide the (..., K, n_q, c_v) output. The backward needs no other array
    that wide: with gd = g / den, per query row dV = (e * mask)^T @ gd summed
    over the sets, and the logits' gradient is rowsum(dV * V) less e times
    (rowsum(g * out) / den) @ kept. Otherwise the weights are the masked
    softmax and the backward is the row-wise one. The graph keeps the masked
    weights, the output and the operands.
    """
    if (q.ndim < 2 or k.shape[:-1] != v.shape[:-1] or q.shape[:-2] != k.shape[:-2]
            or q.shape[-1] != k.shape[-1]):
        raise ValueError(f"attention needs q (..., n_q, c), k (..., n, c) and v (..., n, c_v), "
                         f"got {q.shape}, {k.shape} and {v.shape}")
    e, den, kept = _attention_weights(q.data, k.data, scale, exclude)
    lead, n_q, n, c = q.shape[:-2], q.shape[-2], k.shape[-2], v.shape[-1]
    sets = 1 if kept is None else len(kept)
    shape = lead + (sets, n_q, n)
    probs = shape if kept is not None else lead + (n_q, n)
    if keep is not None and keep.shape != probs:
        raise ValueError(f"attention keep mask of shape {keep.shape} is not in the layout "
                         f"of the probabilities {probs}")
    if keep is not None:
        weights = e * keep.reshape(shape)
        if den is not None:  # the probabilities, so a mask on them, are 0 at excluded keys
            weights *= kept[:, None, :]
    else:
        weights = e if den is None else e * kept[:, None, :]
    flat = lead + (sets * n_q, -1)
    out = (weights.reshape(flat) @ v.data).reshape(lead + (sets, n_q, c))
    if den is not None:
        out /= den[..., None]

    def backward(g):
        g = g.reshape(out.shape)
        gd = g if den is None else g / den[..., None]
        dot = np.einsum("...c,...c->...", gd, out)  # rowsum(g * out) / den
        if den is None:
            dv = np.swapaxes(weights.reshape(flat), -1, -2) @ gd.reshape(flat)
            dlogits = (gd.reshape(flat) @ np.swapaxes(v.data, -1, -2)).reshape(shape)
            dlogits *= weights
            dlogits -= e * dot[..., None]
            dlogits = dlogits.sum(axis=-3)
        else:
            per_row = np.moveaxis(weights, -3, -1) @ np.swapaxes(gd, -3, -2)
            dv = per_row.sum(axis=-3)
            dlogits = (per_row * v.data[..., None, :, :]).sum(axis=-1)
            dlogits -= e[..., 0, :, :] * (np.swapaxes(dot, -1, -2) @ kept)
        dlogits *= scale
        v._accumulate(dv)
        q._accumulate(dlogits @ k.data)
        k._accumulate(np.swapaxes(dlogits, -1, -2) @ q.data)

    return Tensor._result(out if kept is not None else out.reshape(lead + (n_q, c)),
                          (q, k, v), backward, "attention")


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
    one pair per parameter, shapes matching the parameters, updated in
    place: ``m = BETA1 * m + (1 - BETA1) * g`` and likewise v, in that
    order of operations. Each step gives a parameter a new array, so values
    that a graph or a snapshot holds never change. ``names``, such
    as a module's ``named_parameters()`` names, name a parameter whose
    gradient is rejected; by default it is named by its index. The update is
    ``p -= lr * m_hat / (sqrt(v_hat) + EPS)``; a zero gradient from a fresh
    state therefore leaves the parameter untouched.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 names: Sequence[str] | None = None):
        self.params = list(params)
        self.names = list(names or (f"parameter {i}" for i in range(len(self.params))))
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One update; every gradient is checked before any parameter moves."""
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        for name, p, g in zip(self.names, self.params, grads):
            if g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter shape {p.data.shape}")
            if not np.isfinite(g).all():
                raise ValueError(f"gradient of {name} (shape {p.data.shape}) is not finite")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.BETA1**t
        bc2 = 1.0 - self.BETA2**t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            denom = np.sqrt(v / bc2)
            denom += self.EPS
            update = m / bc1
            update *= self.lr
            update /= denom
            p.data = np.subtract(p.data, update, out=update)
