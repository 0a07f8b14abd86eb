"""Merge functions over the available view encodings.

Every dynamic merge (average, gated, cross-attention, memory) produces a
fused vector of the encoder width d no matter how many views are available,
which is what lets a model literally ignore missing views instead of imputing
them. Concatenation with zero imputation is kept as the fixed-size baseline.

All fuse methods take a full-length row list with None marking missing views;
every row is a batch (B, d), a single sample included as (1, d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Dropout, LSTMCell, Module, MultiHeadAttention, glorot
from .tensor import Tensor, concat, stack

FUSION_KINDS = ("average", "gated", "cross", "memory", "concat")


@dataclass
class FusionConfig:
    """Fusion kind plus its hyperparameters.

    ``layers`` defaults to 1 for cross-attention and 2 for memory fusion when
    left unset. ``dropout`` hits attention probabilities (cross) or the
    sequence between stacked recurrent layers (memory).
    """

    kind: str = "average"
    heads: int = 8
    layers: int | None = None
    dropout: float = 0.4
    permute: bool = False
    attention_scaling: bool = True

    def __post_init__(self):
        if self.kind not in FUSION_KINDS:
            raise ValueError(f"unknown fusion kind {self.kind!r}")
        if self.layers is None:
            self.layers = 2 if self.kind == "memory" else 1
        if self.layers < 1 or self.heads < 1:
            raise ValueError("layers and heads must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def _present(rows: list) -> tuple[list[int], list[Tensor]]:
    """Indices and rows of the available views."""
    avail = [i for i, r in enumerate(rows) if r is not None]
    if not avail:
        raise ValueError("fusion needs at least one available view")
    return avail, [rows[i] for i in avail]


def _slots(rows: list) -> list[Tensor]:
    """One row per view, a shared zero block standing in for every missing view."""
    zero = Tensor(np.zeros(_present(rows)[1][0].shape))
    return [zero if r is None else r for r in rows]


class AverageFusion(Module):
    """Mean of the available encodings; permutation invariant by construction."""

    def fuse(self, rows: list, rng=None, train: bool = False) -> Tensor:
        return stack(_present(rows)[1], axis=-2).mean(axis=-2)


class GatedFusion(Module):
    """Data-driven per-dimension weighting across views.

    Logits come from the zero-imputed full stack (so they are computable for
    any availability pattern), but the per-dimension softmax across views
    excludes missing columns from the normalization, making their weights
    exact zeros.
    """

    def __init__(self, m: int, d: int, rng: np.random.Generator):
        self.W_G = glorot(rng, m * d, d * m, (m * d, d * m))
        self.b = Tensor(np.zeros(d * m), requires_grad=True)
        self.m = m
        self.d = d

    def gate_weights(self, z_full: Tensor, available: np.ndarray) -> Tensor:
        """Per-dimension view weights, shape (..., d, m); missing columns are 0."""
        batch = z_full.shape[0]
        flat = z_full.reshape((batch, self.m * self.d))
        logits = (flat @ self.W_G + self.b).reshape((batch, self.d, self.m))
        return logits.softmax(axis=-1, exclude=~available)

    def fuse(self, rows: list, rng=None, train: bool = False) -> Tensor:
        z_full = stack(_slots(rows), axis=-2)
        weights = self.gate_weights(z_full, np.array([r is not None for r in rows]))
        return (weights.transpose((0, 2, 1)) * z_full).sum(axis=-2)


class CrossAttentionFusion(Module):
    """A learned fusion token queries the available views through self-attention.

    Only available views are stacked, each with its view-specific positional
    embedding, so missing views are never attended. The fused vector is the
    token's row after the final attention layer.
    """

    def __init__(self, m: int, d: int, cfg: FusionConfig, rng: np.random.Generator):
        self.token = glorot(rng, 1, d, (d,))
        self.positional = glorot(rng, m + 1, d, (m + 1, d))
        self.blocks = [MultiHeadAttention(d, cfg.heads, rng, scaling=cfg.attention_scaling,
                                          dropout=cfg.dropout)
                       for _ in range(cfg.layers)]
        self.m = m
        self.d = d

    def _sequence(self, rows: list) -> Tensor:
        """The token row followed by each available view, (B, 1 + m_avail, d)."""
        avail, avail_rows = _present(rows)
        ones = Tensor(np.ones((avail_rows[0].shape[0], 1)))
        token_row = ones @ (self.token + self.positional[0]).reshape((1, self.d))
        return stack([token_row] + [row + self.positional[1 + v]
                                    for v, row in zip(avail, avail_rows)], axis=-2)

    def fuse(self, rows: list, rng=None, train: bool = False) -> Tensor:
        z = self._sequence(rows)
        for block in self.blocks:
            z = block(z, rng=rng, train=train)
        return z[:, 0, :]

    def token_attention(self, rows: list) -> np.ndarray:
        """First-layer token attention over (token + available views), eval
        mode, shape (B, heads, 1 + m_avail)."""
        return self.blocks[0].attention_weights(self._sequence(rows))[..., 0, :]


class MemoryFusion(Module):
    """Recurrent fusion: a stacked bidirectional LSTM consumes the available
    encodings one view at a time from an empty initial memory; the fused
    vector is the final memory state.

    Views are fed in declaration order, so this merge is order sensitive; a
    random train-time permutation can be enabled to counter order bias.
    """

    def __init__(self, d: int, cfg: FusionConfig, rng: np.random.Generator):
        if d % 2 != 0:
            raise ValueError("memory fusion needs an even width for bidirection")
        half = d // 2
        self.forward_cells = [LSTMCell(d, half, rng) for _ in range(cfg.layers)]
        self.backward_cells = [LSTMCell(d, half, rng) for _ in range(cfg.layers)]
        self.dropout = Dropout(cfg.dropout)
        self.permute = cfg.permute
        self.d = d

    @staticmethod
    def _run_direction(cell: LSTMCell, seq: list[Tensor]) -> tuple[list[Tensor], Tensor]:
        batch = seq[0].shape[0]
        h, c = cell.zero_state((batch,))
        outputs = []
        for x in seq:
            h, c = cell.step(x, h, c)
            outputs.append(h)
        return outputs, h

    def fuse(self, rows: list, rng=None, train: bool = False) -> Tensor:
        _, seq = _present(rows)
        if self.permute and train:
            if rng is None:
                raise ValueError("permuted memory fusion needs a generator at train time")
            seq = [seq[i] for i in rng.permutation(len(seq))]
        final_fwd = final_bwd = None
        for layer, (fwd, bwd) in enumerate(zip(self.forward_cells, self.backward_cells)):
            if layer > 0 and train:
                seq = [self.dropout(x, rng=rng, train=train) for x in seq]
            out_fwd, final_fwd = self._run_direction(fwd, seq)
            out_bwd, final_bwd = self._run_direction(bwd, seq[::-1])
            out_bwd = out_bwd[::-1]
            seq = [concat([f, b], axis=-1) for f, b in zip(out_fwd, out_bwd)]
        return concat([final_fwd, final_bwd], axis=-1)


class ConcatFusion(Module):
    """Feature-level concatenation with zero imputation; output width m*d."""

    def __init__(self, m: int, d: int):
        self.m = m
        self.d = d

    def fuse(self, rows: list, rng=None, train: bool = False) -> Tensor:
        return concat(_slots(rows), axis=-1)


def make_fusion(cfg: FusionConfig, m: int, d: int, rng: np.random.Generator) -> Module:
    if cfg.kind == "average":
        return AverageFusion()
    if cfg.kind == "gated":
        return GatedFusion(m, d, rng)
    if cfg.kind == "cross":
        return CrossAttentionFusion(m, d, cfg, rng)
    if cfg.kind == "memory":
        return MemoryFusion(d, cfg, rng)
    return ConcatFusion(m, d)


def fused_width(cfg: FusionConfig, m: int, d: int) -> int:
    """Width of the fused vector feeding the prediction head."""
    return m * d if cfg.kind == "concat" else d
