"""Reusable layers: affine, 1D convolution over time, layer normalization,
dropout, LSTM cell, and multi-head self-attention.

All layers are pure functions of (input, parameters); dropout additionally
takes a generator, whose presence is the train mode. Parameters live in small Module
containers so models can enumerate them for the optimizer and snapshots.
The ops in ``tensor`` check the operands' shapes, so the layers do not.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, attention, layer_norm, lstm_scan, window_affine


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
    encoder layer also passes its rectifier and dropout keep mask into it,
    and a temporal encoder's last layer its mean over time. The node checks
    the operands and reads a (K, c, n) ``W`` as taps."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.W = glorot(rng, d_in, d_out, (d_in, d_out))
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor, relu: bool = False, keep: np.ndarray | None = None,
                 pool: bool = False) -> Tensor:
        return window_affine(x, self.W, self.b, relu, keep, pool)


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
    """Normalize the last axis to zero mean and unit variance, then scale and
    shift, as one ``tensor.layer_norm`` node.

    The variance guard is tiny (1e-12) so normalized variance is 1 up to
    1e-9 on ordinary inputs; a constant input maps to the shift vector.
    """

    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.shift = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.shift)


class Dropout:
    """Inverted dropout: scales kept units by 1/(1-p) at train time.

    ``mask`` draws the keep mask that the caller's op multiplies in; there
    is none without a generator or at rate 0, so evaluation never drops.
    """

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate

    def mask(self, shape: tuple, rng: np.random.Generator | None = None) -> np.ndarray | None:
        """One draw of the scaled keep mask, or None where dropout is the identity."""
        drawn = self.draw(shape, rng)
        return None if drawn is None else self.keep(drawn)

    def draw(self, shape: tuple | int,
             rng: np.random.Generator | None = None) -> np.ndarray | None:
        """The uniform numbers a keep mask of ``shape`` thresholds, or None
        where dropout is the identity."""
        return None if rng is None or self.rate == 0.0 else rng.random(shape)

    def keep(self, drawn: np.ndarray) -> np.ndarray:
        """The scaled keep mask of drawn numbers, C-contiguous in their shape
        even where they are a transposed view: thresholded in their memory
        order, so a transposed view is read in one pass, and made contiguous
        at byte width."""
        keep = 1.0 - self.rate
        return np.ascontiguousarray(np.less(drawn, keep, order="K")) / keep


class LSTMCell(Module):
    """Standard LSTM gate equations for one step.

    Gate weights are stored as one (d_in + d_h, 4*d_h) matrix in input,
    forget, output, candidate order. A step of (rows, d_in) inputs from a
    (rows, d_h) state is a one-step ``tensor.lstm_scan`` node, which checks
    the operands and returns C-contiguous h and c. Memory fusion does not
    step the cell: it runs its first layer's whole recurrences on the cell's
    ``W`` and ``b`` as one ``lstm_scan`` node, whose outputs are
    bit-identical to a loop of ``step``, and its later layers as one
    ``bilstm_layers`` node per pattern length, whose gate math is the same.
    """

    def __init__(self, d_in: int, d_h: int, rng: np.random.Generator):
        self.W = glorot(rng, d_in + d_h, 4 * d_h, (d_in + d_h, 4 * d_h))
        bias = np.zeros(4 * d_h)
        bias[d_h:2 * d_h] = 1.0
        self.b = Tensor(bias, requires_grad=True)
        self.d_h = d_h

    def step(self, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        h, c = lstm_scan([x], self.W, self.b, state=(h_prev, c_prev))
        return h, c


class MultiHeadAttention(Module):
    """Scaled dot-product self-attention over a set of rows.

    Input is (..., n, d). Per-head logits are Q K^T, optionally
    scaled by 1/sqrt(d/heads); head outputs are value projections
    concatenated back to width d. Dropout, when enabled, is applied to the
    attention probabilities. There is no learned per-head scalar logit bias:
    added to every logit of its head, it would cancel in the softmax.

    The logits, the masked softmax, the dropout keep mask and the value
    product are one ``tensor.attention`` node; ``probs`` reads the same
    probabilities. ``attend`` also takes keys to exclude and a keep mask, so
    one input is attended under several key sets at once, and can compute
    the first row's queries alone; ``attend_first`` computes that row times
    a weight through the value projection. An exclusion that broadcasts with the
    probabilities (..., heads, n_q, n) applies to each row of an input that
    carries its key sets on a leading axis. One of shape (K, 1, ..., 1, n),
    an axis more than the probabilities, holds K key sets of one shared
    input: they are laid out on the query axis, the probabilities are
    (..., heads, K, n_q, n), and the node normalizes the shared logits under
    all K sets at once, without forming those probabilities.
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
        self.scale = 1.0 / np.sqrt(d // heads) if scaling else 1.0
        self.dropout = Dropout(dropout)

    def _heads(self, z: Tensor, W: Tensor) -> Tensor:
        """z @ W split into heads: (..., n, d) -> (..., heads, n, width/heads)."""
        t = window_affine(z, W)
        lead = t.ndim - 2
        split = t.reshape(t.shape[:-1] + (self.heads, t.shape[-1] // self.heads))
        return split.transpose(tuple(range(lead)) + (lead + 1, lead, lead + 2))

    def _queries_keys(self, z: Tensor, first_row: bool) -> tuple[Tensor, Tensor]:
        return self._heads(z[..., :1, :] if first_row else z, self.W_Q), self._heads(z, self.W_K)

    def probs(self, z: Tensor, exclude: np.ndarray | None = None,
              first_row: bool = False) -> np.ndarray:
        """Attention probabilities of an input (..., n, d), the ``attention``
        node's output on identity values: (..., heads, n_q, n), or (..., heads,
        K, n_q, n) under K key sets on the query axis; n_q is 1 for the first row alone."""
        q, k = self._queries_keys(z, first_row)
        eye = np.broadcast_to(np.eye(k.shape[-2]), k.shape[:-1] + k.shape[-2:-1])
        return attention(q, k, Tensor(eye), self.scale, exclude).data

    def attend(self, z: Tensor, exclude: np.ndarray | None = None,
               keep: np.ndarray | None = None, first_row: bool = False) -> Tensor:
        """Attention output (..., n_q, d), or (K, ..., n_q, d) under K key
        sets on the query axis: ``exclude`` marks keys left out of the
        softmax and ``keep`` is a scaled dropout mask in the layout of the
        probabilities. One ``tensor.attention`` node runs the heads."""
        q, k = self._queries_keys(z, first_row)
        v = self._heads(z, self.W_V)
        out = attention(q, k, v, self.scale, exclude, keep)
        lead, sets = v.ndim - 3, out.ndim - v.ndim
        # (..., heads, [K,] n_q, d/heads) -> ([K,] ..., n_q, heads, d/heads)
        out = out.transpose(tuple(range(lead + 1, lead + 1 + sets)) + tuple(range(lead))
                            + (lead + 1 + sets, lead, lead + 2 + sets))
        return out.reshape(out.shape[:-2] + (self.d,))

    def attend_first(self, z: Tensor, W: Tensor, exclude: np.ndarray | None = None,
                     keep: np.ndarray | None = None) -> Tensor:
        """The first row's ``attend`` output times ``W`` (d, n_out): (...,
        n_out), or (K, ..., n_out) under K key sets, without forming the (...,
        d) rows. Attention is linear in its values, so ``W`` folds into the
        value projection: head h's values are z @ M_h, where M_h = W_V[:, h] @
        W[rows of h] is one (heads, d, d/heads) @ (heads, d/heads, n_out)
        product, and the heads' n_out-wide outputs are summed."""
        heads, width, n_out = self.heads, self.d // self.heads, W.shape[-1]
        per_head = self.W_V.reshape((self.d, heads, width)).transpose((1, 0, 2))
        M = (per_head @ W.reshape((heads, width, n_out))).transpose((1, 0, 2))
        q, k = self._queries_keys(z, first_row=True)
        v = self._heads(z, M.reshape((self.d, heads * n_out)))
        out = attention(q, k, v, self.scale, exclude, keep)
        lead, sets = v.ndim - 3, out.ndim - v.ndim
        # (..., heads, [K,] 1, n_out) -> ([K,] ..., n_out)
        out = out.sum(axis=lead)
        if sets:
            out = out.transpose((lead,) + tuple(range(lead)) + (lead + 1, lead + 2))
        return out.reshape(out.shape[:-2] + (n_out,))

    def __call__(self, z: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        n = z.shape[-2]
        keep = self.dropout.mask(z.shape[:-2] + (self.heads, n, n), rng)
        return self.attend(z, keep=keep)
