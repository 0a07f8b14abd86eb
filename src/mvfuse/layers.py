"""Reusable layers: affine, 1D convolution over time, layer normalization,
dropout, LSTM cell, and multi-head self-attention.

All layers are pure functions of (input, parameters); dropout additionally
takes a generator and a train flag. Parameters live in small Module
containers so models can enumerate them for the optimizer and snapshots.
The ops in ``tensor`` check the operands' shapes, so the layers do not.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, lstm, window_affine


class Module:
    """Minimal parameter container.

    Walks its attributes in insertion order and yields every gradient-tracked
    Tensor, recursing into child modules and lists of modules. Order is
    deterministic, which keeps optimizer state and snapshots reproducible.
    """

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for name, value in vars(self).items():
            key = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Tensor) and value.requires_grad:
                out.append((key, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(key))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{key}.{i}"))
        return out

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


class Affine(Module):
    """y = x @ W + b over the last axis, as one ``window_affine`` node; an
    encoder layer also passes its rectifier and dropout keep mask into it.
    The node checks the operands and reads a (K, c, n) ``W`` as taps."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.W = glorot(rng, d_in, d_out, (d_in, d_out))
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor, relu: bool = False, keep: np.ndarray | None = None) -> Tensor:
        return window_affine(x, self.W, self.b, relu, keep)


class Conv1d(Affine):
    """Temporal convolution with symmetric zero padding, output length == input length.

    ``Affine``'s constructor over K taps W (K, c_in, c_out) for input
    (..., T >= 1, c_in); the kernel must be odd so 'same' padding stays symmetric."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator, kernel: int = 3):
        if kernel < 1 or kernel % 2 == 0:
            raise ValueError("kernel size must be odd and positive")
        self.W = glorot(rng, kernel * c_in, c_out, (kernel, c_in, c_out))
        self.b = Tensor(np.zeros(c_out), requires_grad=True)


class LayerNorm(Module):
    """Normalize the last axis to zero mean and unit variance, then scale and shift.

    The variance guard is tiny (1e-12) so normalized variance is 1 up to
    1e-9 on ordinary inputs; a constant input maps to the shift vector.
    """

    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.shift = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] < 2:
            raise ValueError("layer norm needs at least two features")
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered * (var + 1e-12) ** -0.5
        return normalized * self.gain + self.shift


class Dropout:
    """Inverted dropout: scales kept units by 1/(1-p) at train time.

    ``mask`` draws the keep mask that the caller's op multiplies in; there
    is none when rate is 0 or train is False, so evaluation never drops.
    """

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate

    def mask(self, shape: tuple, rng: np.random.Generator | None = None,
             train: bool = False) -> np.ndarray | None:
        """One draw of the scaled keep mask, or None where dropout is the identity."""
        if not train or self.rate == 0.0:
            return None
        if rng is None:
            raise ValueError("train-time dropout needs a generator")
        keep = 1.0 - self.rate
        return (rng.random(shape) < keep) / keep


class LSTMCell(Module):
    """Standard LSTM gate equations for one step.

    Gate weights are stored as one (d_in + d_h, 4*d_h) matrix in input,
    forget, output, candidate order. A step is three graph nodes: one fused
    ``lstm`` node for the gate product and gate math, which checks the
    operands, and the h/c split, which returns C-contiguous h and c. Memory
    fusion does not step the cell: it runs each whole recurrence on the
    cell's ``W`` and ``b`` as one ``tensor.lstm_scan`` node, whose outputs
    are bit-identical to a loop of ``step``.
    """

    def __init__(self, d_in: int, d_h: int, rng: np.random.Generator):
        self.W = glorot(rng, d_in + d_h, 4 * d_h, (d_in + d_h, 4 * d_h))
        bias = np.zeros(4 * d_h)
        bias[d_h:2 * d_h] = 1.0
        self.b = Tensor(bias, requires_grad=True)
        self.d_h = d_h

    def step(self, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        hc = lstm(x, h_prev, c_prev, self.W, self.b)
        return hc[0], hc[1]

    def zero_state(self, batch_shape: tuple = ()) -> tuple[Tensor, Tensor]:
        shape = batch_shape + (self.d_h,)
        return Tensor(np.zeros(shape)), Tensor(np.zeros(shape))


class MultiHeadAttention(Module):
    """Scaled dot-product self-attention over a set of rows.

    Input is (..., n, d). Per-head logits are Q K^T, optionally
    scaled by 1/sqrt(d/heads); head outputs are value projections
    concatenated back to width d. Dropout, when enabled, is applied to the
    attention probabilities. There is no learned per-head scalar logit bias:
    added to every logit of its head, it would cancel in the softmax.

    ``attend`` also takes keys to exclude and a dropout keep mask, so one
    input is attended under several key sets at once, and can compute the
    first row's queries alone. An exclusion that broadcasts with the
    probabilities (..., heads, n_q, n) applies to each row of an input that
    carries its key sets on a leading axis. One with a leading axis more than
    the probabilities holds K key sets of one shared input: they are laid out
    on the query axis, so the probabilities are (..., heads, K, n_q, n) and
    ``probs @ V`` is one (K * n_q, n) @ (n, d/heads) product per head, whose
    V gradient needs no sum over the key sets.
    """

    def __init__(self, d: int, heads: int, rng: np.random.Generator,
                 scaling: bool = True, dropout: float = 0.0):
        if d % heads != 0:
            raise ValueError(f"width {d} not divisible by {heads} heads")
        self.W_Q = glorot(rng, d, d, (d, d))
        self.W_K = glorot(rng, d, d, (d, d))
        self.W_V = glorot(rng, d, d, (d, d))
        self.heads = heads
        self.d = d
        self.scaling = scaling
        self.dropout = Dropout(dropout)

    def _split_heads(self, t: Tensor) -> Tensor:
        """(..., n, d) -> (..., heads, n, d/heads)."""
        lead = t.ndim - 2
        split = t.reshape(t.shape[:-1] + (self.heads, self.d // self.heads))
        return split.transpose(tuple(range(lead)) + (lead + 1, lead, lead + 2))

    def probs(self, z: Tensor, exclude: np.ndarray | None = None,
              first_row: bool = False) -> Tensor:
        """Attention probabilities of an input (..., n, d), shape
        (..., heads, n_q, n), or (..., heads, K, n_q, n) under K key sets on
        the query axis; n_q is 1 when only the first row queries."""
        q = self._split_heads(window_affine(z[..., :1, :] if first_row else z, self.W_Q))
        k = self._split_heads(window_affine(z, self.W_K))
        logits = q @ k.transpose(tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
        if self.scaling:
            logits = logits * (1.0 / np.sqrt(self.d // self.heads))
        if exclude is not None and exclude.ndim > logits.ndim:
            # (K, ..., n_q, n) key sets of a shared input -> (..., K, n_q, n)
            exclude = np.moveaxis(exclude, 0, -3)
            logits = logits.reshape(logits.shape[:-2] + (1,) + logits.shape[-2:])
        return logits.softmax(axis=-1, exclude=exclude)

    def attend(self, z: Tensor, exclude: np.ndarray | None = None,
               keep: np.ndarray | None = None, first_row: bool = False) -> Tensor:
        """Attention output (..., n_q, d), or (K, ..., n_q, d) under K key
        sets on the query axis: ``exclude`` marks keys left out of the
        softmax and ``keep`` is a scaled dropout mask in the layout of the
        probabilities."""
        probs = self.probs(z, exclude, first_row)
        if keep is not None:
            probs = probs * Tensor(keep)
        v = self._split_heads(window_affine(z, self.W_V))
        lead, sets = v.ndim - 3, probs.ndim - v.ndim
        # key sets on the query axis fold into it: one product per head
        out = probs.reshape(v.shape[:-2] + (-1, probs.shape[-1])) @ v
        out = out.reshape(probs.shape[:-1] + v.shape[-1:])
        # (..., heads, [K,] n_q, d/heads) -> ([K,] ..., n_q, heads, d/heads)
        out = out.transpose(tuple(range(lead + 1, lead + 1 + sets)) + tuple(range(lead))
                            + (lead + 1 + sets, lead, lead + 2 + sets))
        return out.reshape(out.shape[:-2] + (self.d,))

    def __call__(self, z: Tensor, rng: np.random.Generator | None = None,
                 train: bool = False) -> Tensor:
        n = z.shape[-2]
        keep = self.dropout.mask(z.shape[:-2] + (self.heads, n, n), rng, train)
        return self.attend(z, keep=keep)
