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

Gradients are values too: the first contribution to ``.grad`` is assigned
as is and later ones are added into a new array, so one array may be shared
by several nodes. Nothing may write into a ``.grad`` in place.

Everything is 64-bit: gradient checking against central finite differences is
the correctness backbone of this package and float32 would force loose
tolerances.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import count
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
    """Sum a gradient down to ``shape``, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
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


def _shift(data: np.ndarray, axis: int) -> np.ndarray:
    """``data.max(axis=axis, keepdims=True)``, the softmax shift. Up to 32 keys
    on the last axis it is a fold of np.maximum, as exact and several times
    faster there: 4.0 against 13.7 ms on cross fusion's (128, 8, 127, 1, 8)
    logits, one thread; from about 64 keys max() is faster."""
    if axis not in (-1, data.ndim - 1) or data.shape[-1] > 32:
        return data.max(axis=axis, keepdims=True)
    out = data[..., :1].copy()
    for j in range(1, data.shape[-1]):
        np.maximum(out, data[..., j:j + 1], out=out)
    return out


def _softmax(data: np.ndarray, axis: int, exclude: np.ndarray | None) -> np.ndarray:
    """The softmax of ``Tensor.softmax`` and ``softmax_mix``, in a new array;
    raises EmptySupportError if ``exclude`` leaves a slice empty."""
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
    out /= out.sum(axis=axis, keepdims=True)
    return out


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
        out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
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

        ``exclude`` is a boolean array that broadcasts with the tensor; True
        marks indices removed from the normalization. The result has the
        broadcast shape, so one set of logits can be normalized under several
        exclusion patterns at once; the backward sums the gradient back to
        the input's shape. Excluded outputs are exactly zero, so downstream
        weighted sums literally ignore them.
        """
        a = self
        out_data = _softmax(a.data, axis, exclude)

        def backward(g):
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(_unbroadcast(out_data * (g - dot), a.shape))

        return Tensor._result(out_data, (a,), backward, "softmax")

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Log of the softmax along ``axis`` as a shifted log-sum-exp."""
        a = self
        out_data = a.data - _shift(a.data, axis)
        out_data -= np.log(np.exp(out_data).sum(axis=axis, keepdims=True))

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


# Window elements per block of an unrecorded convolution: 512 KiB, a quarter
# of a 2 MiB per-core L2, so a block's window, input and output stay in cache.
WINDOW_BLOCK = 2**16


def window_affine(x: Tensor, W: Tensor, b: Tensor | None = None, relu: bool = False,
                  keep: np.ndarray | None = None) -> Tensor:
    """``window_K(x) @ W + b`` as one node of single 2-D GEMMs, then optionally
    a rectifier and a scaled dropout keep mask of the output's shape. By rank,
    ``W`` is (c, n), a weight over the last axis, or the (K, c, n) taps of a
    'same' convolution over the time axis of (..., T >= 1, c), even at K = 1:
    window row t holds steps t - K//2 .. t + K//2, tap-major, zero outside the
    series; K must be odd. ``b`` is (n,). The graph keeps only the window and the
    output; the backward folds into the input's gradient. A K-tap node that is
    not recorded runs window and product over blocks of about ``WINDOW_BLOCK``
    window elements of leading rows instead, bit-identical, into one output."""
    if W.ndim not in (2, 3) or (b is not None and b.shape != W.shape[-1:]):
        raise ValueError(f"window_affine needs W (c, n) or (K, c, n) and b (n,), "
                         f"got {W.shape} and {None if b is None else b.shape}")
    if W.ndim == 3 and W.shape[0] % 2 == 0:
        raise ValueError(f"window_affine needs an odd tap count for a 'same' window, "
                         f"got K={W.shape[0]}")
    if W.ndim == 3 and (x.ndim < 2 or x.shape[-2] < 1):
        raise ValueError("conv1d needs at least one time step")
    n, c = W.shape[-1], x.shape[-1]
    if W.shape[-2] != c:
        raise ValueError(f"affine expects last dim {W.shape[-2]}, got {c}")
    Wm = W.data.reshape(-1, n)
    kernel = W.shape[0] if W.ndim == 3 else 1
    parents = (x, W) if b is None else (x, W, b)

    def finish(z, mask):  # bias, rectifier and keep mask, in place
        if b is not None:
            z += b.data
        if relu:
            np.maximum(z, 0.0, out=z)
        if mask is not None:
            z *= mask
        return z

    win = x.data.reshape(-1, c)
    if kernel > 1:
        T, pad = x.shape[-2], kernel // 2
        # window steps lo..hi-1 of each tap that reads the series take input
        # steps lo+shift..hi+shift-1, so no slice bound is ever negative
        taps = [(tau, tau - pad, max(0, pad - tau), min(T, T + pad - tau))
                for tau in range(kernel) if abs(tau - pad) < T]
        xs = x.data.reshape(-1, T, c)
        if not (_GRAD_ENABLED and any(p.requires_grad for p in parents)):
            rows = max(1, WINDOW_BLOCK // (T * kernel * c))
            buf = np.zeros((min(rows, len(xs)), T, kernel * c))
            out = np.empty(x.shape[:-1] + (n,))
            blocks = out.reshape(-1, T, n)
            keeps = None if keep is None else keep.reshape(blocks.shape)
            for lo in range(0, len(xs), rows):
                z, part = blocks[lo:lo + rows], buf[:len(xs) - lo]
                for tau, shift, t0, t1 in taps:
                    part[:, t0:t1, tau * c:(tau + 1) * c] = xs[lo:lo + rows, t0 + shift:t1 + shift]
                np.matmul(part.reshape(-1, kernel * c), Wm, out=z.reshape(-1, n))
                finish(z, None if keeps is None else keeps[lo:lo + rows])
            return Tensor._result(out, parents, None, "window_affine")
        win = np.zeros(x.shape[:-1] + (kernel * c,))
        for tau, shift, lo, hi in taps:
            win[..., lo:hi, tau * c:(tau + 1) * c] = x.data[..., lo + shift:hi + shift, :]
        win = win.reshape(-1, kernel * c)
    out = finish((win @ Wm).reshape(x.shape[:-1] + (n,)), keep)

    def backward(g):
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

    return Tensor._result(out, parents, backward, "window_affine")


def lstm(x: Tensor, h_prev: Tensor, c_prev: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """One LSTM cell step as one node: gate product, bias and gate math.

    ``x`` is (..., k); ``h_prev`` and ``c_prev`` are (..., d) over the same
    leading axes; ``W`` is (k + d, 4*d) and ``b`` is (4*d,), gates in input,
    forget, output, candidate order. Returns h and c stacked on a new leading
    axis, (2, ..., d), with ``c = f * c_prev + i * g`` and ``h = o * tanh(c)``.

    The gates are feature-major: the pre-activations are one (4*d, rows)
    array ``W[:k].T @ x.T + W[k:].T @ h_prev.T + b``, so ``[x, h_prev]`` is
    never concatenated and each gate is a contiguous block of rows. The
    row-major (rows, 4*d) layout would run the gate math on d-wide strided
    column slices, several times slower at the small d of memory fusion.
    The backward builds the pre-activation gradient in the same layout and
    skips every gradient that no input needs, such as those of a zero state.
    ``lstm_scan`` runs these ops over a whole recurrence in one node; this
    one-step node serves ``LSTMCell.step``.
    """
    k, d = x.shape[-1], c_prev.shape[-1]
    if x.shape[:-1] != c_prev.shape[:-1] or h_prev.shape != c_prev.shape:
        raise ValueError(f"lstm needs x (..., k) and h, c (..., d) over the same leading axes, "
                         f"got {x.shape}, {h_prev.shape} and {c_prev.shape}")
    if W.shape[1:] != (4 * d,) or b.shape != (4 * d,):
        raise ValueError(f"lstm needs W (k+{d}, {4*d}), b ({4*d},), got {W.shape}, {b.shape}")
    if W.shape[0] != k + d:
        raise ValueError(f"lstm step expects input dim {W.shape[0] - d}, got {k}")
    X, H = x.data.reshape(-1, k), h_prev.data.reshape(-1, d)
    C = c_prev.data.reshape(-1, d).T
    Wd = W.data
    gates = Wd[:k].T @ X.T
    gates += Wd[k:].T @ H.T
    gates += b.data[:, None]
    sig = gates[:3 * d]
    np.negative(sig, out=sig)
    with np.errstate(over="ignore"):  # exp overflows to inf where a gate is exactly 0
        np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    np.tanh(gates[3 * d:], out=gates[3 * d:])
    i, f, o, g = gates[:d], gates[d:2 * d], gates[2 * d:3 * d], gates[3 * d:]
    c = f * C
    c += i * g
    tanh_c = np.tanh(c)
    hc = np.empty((2,) + c_prev.shape)
    flat = hc.reshape(2, -1, d)
    np.multiply(o, tanh_c, out=flat[0].T)
    flat[1] = c.T

    def backward(grad):
        dh, dc_next = (part.T for part in grad.reshape(2, -1, d))
        dz = np.empty_like(gates)
        di, df, do, dg = dz[:d], dz[d:2 * d], dz[2 * d:3 * d], dz[3 * d:]
        np.multiply(dh, tanh_c, out=do)
        dc = np.multiply(tanh_c, tanh_c)
        np.subtract(1.0, dc, out=dc)
        dc *= o
        dc *= dh
        dc += dc_next
        if c_prev.requires_grad:
            c_prev._accumulate((dc * f).T.reshape(c_prev.shape))
        np.multiply(dc, g, out=di)
        np.multiply(dc, C, out=df)
        np.multiply(dc, i, out=dg)
        np.multiply(g, g, out=dc)  # dc is spent: it holds 1 - g^2 from here
        np.subtract(1.0, dc, out=dc)
        dg *= dc
        slope = np.subtract(1.0, sig)
        slope *= sig
        dz[:3 * d] *= slope
        if x.requires_grad or h_prev.requires_grad:
            dxh = Wd @ dz
            x._accumulate(dxh[:k].T.reshape(x.shape))
            h_prev._accumulate(dxh[k:].T.reshape(h_prev.shape))
        if W.requires_grad:
            W._accumulate(np.concatenate([dz @ X, dz @ H], axis=1).T)
        if b.requires_grad:
            b._accumulate(dz.sum(axis=1))

    return Tensor._result(hc, (x, h_prev, c_prev, W, b), backward, "lstm")


def lstm_scan(xs: Sequence[Tensor | None], W: Tensor, b: Tensor,
              inputs: list[list[int]] | None = None, parents: list[list[int]] | None = None,
              last: bool = False) -> list[Tensor]:
    """A whole LSTM recurrence from a zero state as one node: ``lstm``'s ops,
    in its order, at every step.

    ``xs`` holds input blocks of n rows each, (n, k), or None for a block no
    step reads. Step t reads the blocks ``inputs[t]`` stacked along the rows,
    by default block t alone: a plain chain. Each block of step t > 0
    continues the state of block ``parents[t - 1][j]`` of step t - 1, by
    default block j, so several blocks may share one parent, as the
    prefixes of a tree do. The first step starts from zero, so it skips the
    ``W[k:]`` product and its c is i * g. ``W`` is (k + d, 4*d) and ``b``
    (4*d,), as for ``lstm``. Returns every step's h, (rows_t, d) row-major,
    or with ``last`` the last step's alone.

    h and c stay feature-major, (d, rows), between steps, the layout of the
    gate math, so no step transposes its state; a shared parent's state is
    gathered by block in numpy. Unrecorded, the node allocates its buffers
    once at the widest step: one gate and one product buffer, two h and two
    c buffers used in turn, and one for a step's stacked inputs. Recorded, it keeps each step's input rows,
    its parents' h and c, its gates after their nonlinearity and tanh(c).
    The backward then runs back through time inside the node, carrying dh
    and dc feature-major and adding the blocks that share a parent, and
    takes the x, W and b gradients after the step loop. The outputs are
    views of one array; each hands its gradient to the node, so none
    allocates a zero array for a slice.
    """
    steps = [[t] for t in range(len(xs))] if inputs is None else inputs
    d = W.shape[-1] // 4
    k = W.shape[0] - d
    if W.ndim != 2 or W.shape[1] != 4 * d or k < 1 or b.shape != (4 * d,):
        raise ValueError(f"lstm_scan needs W (k+d, 4*d) and b (4*d,), got {W.shape}, {b.shape}")
    blocks = {i: xs[i] for step in steps for i in step}
    n = next(iter(blocks.values())).shape[0]
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
    node_parents = tuple(blocks.values()) + (W, b)
    record = _GRAD_ENABLED and any(p.requires_grad for p in node_parents)
    rows = [len(step) * n for step in steps]
    ends = np.cumsum(rows).tolist()
    keep = record or not last
    out = np.empty((ends[-1] if keep else rows[-1], d))
    Wd = W.data
    if not record:
        wide = max(rows)  # buffers: gates, product, h and c by turn, stacked inputs
        bufs = [np.empty(size * wide) for size in (4 * d, 4 * d, d, d, d, d, k)]

    def array(buf: int, shape: tuple) -> np.ndarray:
        """A fresh array when recorded, else the front of buffer ``buf``."""
        return np.empty(shape) if record else bufs[buf][:shape[0] * shape[1]].reshape(shape)

    saved = []
    h = c = None
    for t, step in enumerate(steps):
        R, turn = rows[t], t % 2
        X = (blocks[step[0]].data if len(step) == 1 else
             np.concatenate([blocks[i].data for i in step], out=array(6, (R, k))))
        gates = array(0, (4 * d, R))
        np.matmul(Wd[:k].T, X.T, out=gates)
        Hp = Cp = None
        if t:
            if ups[t] is None:
                Hp, Cp = h, c
            else:  # gather each block's parent state, fresh or into this turn's buffers
                Hp, Cp = (np.take(s.reshape(d, -1, n), ups[t], axis=1, mode="clip",
                                  out=array(buf, (d, R)).reshape(d, -1, n)).reshape(d, R)
                          for s, buf in ((h, 2 + turn), (c, 4 + turn)))
            gates += (Wd[k:].T @ Hp if record else
                      np.matmul(Wd[k:].T, Hp, out=array(1, (4 * d, R))))
        gates += b.data[:, None]
        sig = gates[:3 * d]
        np.negative(sig, out=sig)
        with np.errstate(over="ignore"):  # exp overflows to inf where a gate is exactly 0
            np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
        np.tanh(gates[3 * d:], out=gates[3 * d:])
        i, f, o, g = gates[:d], gates[d:2 * d], gates[2 * d:3 * d], gates[3 * d:]
        c = array(4 + turn, (d, R))
        if t:
            np.multiply(f, Cp, out=c)
            c += i * g if record else np.multiply(i, g, out=i)
        else:
            np.multiply(i, g, out=c)
        tanh_c = np.tanh(c, out=None if record else f)
        h = (out[ends[t] - R:ends[t]].T if keep else out.T if t == len(steps) - 1
             else array(2 + turn, (d, R)))
        np.multiply(o, tanh_c, out=h)
        if record:
            saved.append((X, Hp, Cp, gates, tanh_c))

    shown = [len(steps) - 1] if last else range(len(steps))
    views = [out[ends[t] - rows[t]:ends[t]] if keep else out for t in shown]
    if not record:
        return [Tensor._result(v, (), None, "lstm_scan") for v in views]
    handed = [None] * len(steps)

    def route(a: np.ndarray, up: list[int], count: int) -> np.ndarray:
        """Feature-major block gradients (r, blocks * n) added into their
        parents' blocks, (r, count * n)."""
        total = np.zeros((a.shape[0], count, n))
        for j, p in enumerate(up):
            total[:, p] += a[:, j * n:(j + 1) * n]
        return total.reshape(a.shape[0], -1)

    def backward(_):
        dhs = handed[:]
        handed[:] = [None] * len(steps)
        dzs = [None] * len(steps)
        dh_next = dc_next = None
        for t in reversed(range(len(steps))):
            X, Hp, Cp, gates, tanh_c = saved[t]
            dh = None if dhs[t] is None else dhs[t].T
            if dh_next is not None:
                dh = dh_next if dh is None else dh + dh_next
            if dh is None:
                dh = np.zeros_like(tanh_c)
            i, f, o, g = gates[:d], gates[d:2 * d], gates[2 * d:3 * d], gates[3 * d:]
            dz = dzs[t] = np.empty_like(gates)
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
            if t:
                np.multiply(dc, Cp, out=df)
                dc_next = dc * f
            else:
                df.fill(0.0)
            np.multiply(g, g, out=dc)  # dc is spent: it holds 1 - g^2 from here
            np.subtract(1.0, dc, out=dc)
            dg *= dc
            slope = np.subtract(1.0, gates[:3 * d])
            slope *= gates[:3 * d]
            dz[:3 * d] *= slope
            if t:
                dh_next = Wd[k:] @ dz
                if ups[t] is not None:
                    dh_next, dc_next = (route(a, ups[t], len(steps[t - 1]))
                                        for a in (dh_next, dc_next))
        if any(x.requires_grad for x in blocks.values()):
            dxs = {}
            for step, dz in zip(steps, dzs):
                dX = Wd[:k] @ dz
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
            W._accumulate(dW.T)
        if b.requires_grad:
            b._accumulate(sum(dz.sum(axis=1) for dz in dzs))

    node = Tensor._result(out, node_parents, backward, "lstm_scan")

    def hand(t: int):
        def backward(g):
            handed[t] = g
        return backward

    return [Tensor._result(v, (node,), hand(t), "lstm_scan_h") for t, v in zip(shown, views)]


def softmax_mix(logits: Tensor, values: Tensor) -> Tensor:
    """Softmax weights over axis 0 applied to ``values`` and summed over it.

    ``logits`` is (n, ...) and ``values`` broadcasts with it, so n rows can
    be mixed under many weightings at once. Returns the broadcast shape
    without axis 0. One node with a hand-written backward, so the weights
    are the only full-size array it adds to the graph.
    """
    weights = _softmax(logits.data, 0, None)
    out = np.einsum("v...,v...->...", weights, values.data)

    def backward(g):
        gw = weights * g
        if logits.requires_grad:
            dlogits = values.data - out
            dlogits *= gw
            logits._accumulate(_unbroadcast(dlogits, logits.shape))
        if values.requires_grad:
            values._accumulate(_unbroadcast(gw, values.shape))

    return Tensor._result(out, (logits, values), backward, "softmax_mix")


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
    ``p -= lr * m_hat / (sqrt(v_hat) + EPS)``; a zero gradient from a fresh
    state therefore leaves the parameter untouched.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        self.params = list(params)
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
        for i, (p, g) in enumerate(zip(self.params, grads)):
            if g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter shape {p.data.shape}")
            if not np.isfinite(g).all():
                raise ValueError(f"gradient of parameter {i} (shape {p.data.shape}) is not finite")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.BETA1**t
        bc2 = 1.0 - self.BETA2**t
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = self.BETA1 * self.m[i] + (1.0 - self.BETA1) * g
            self.v[i] = self.BETA2 * self.v[i] + (1.0 - self.BETA2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)
