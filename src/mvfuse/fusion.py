"""Merge functions over the available view encodings.

Every dynamic merge (average, gated, cross-attention, memory) produces a
fused vector of the encoder width d no matter how many views are available,
which is what lets a model literally ignore missing views instead of imputing
them. Concatenation with zero imputation is kept as the fixed-size baseline.

``fuse(rows, available)`` fuses many availability patterns in one call.
``rows`` holds one (B, d) encoding per view, a single sample included as
(1, d), or None for a view that no pattern uses. ``available`` is a boolean
(..., m) array of patterns and defaults to the views that have a row, so
``fuse(rows)`` is the one-pattern case. The result has shape
``available.shape[:-1] + (B, width)``. ``check_available`` is the one check
of such an array, shared with the model: it must be boolean, cover the m
views, and give every pattern a view.

Every weight that multiplies a view's encoding is applied once per view per
call; each pattern then only sums, masks and normalizes, and a pattern's
missing views are left out of its normalization, never imputed:

- average: one (K, u) @ (u, B*d) product of weights 1/|pattern| over the u
  views some pattern uses;
- gated: one ``tensor.gated_mix`` node. Each used view is multiplied by
  its blocks of ``W_G`` once per call; patterns are grouped by their number
  of views s (``tensor.pattern_groups``), one selection product gives the
  logits of the available slots only, (s, G, B, d) per group, the softmax
  over the s slots runs in place and the mix reads each slot's row straight
  from the rows;
- cross: one token-plus-views sequence and one Q/K/V projection per layer
  for all patterns; a pattern's missing views are excluded keys, and the
  final layer computes only the token's queries. Each layer is one
  ``tensor.attention`` node. The first layer's input is shared, so the
  patterns' key sets lie on its query axis: the token's (B, heads, 1, n)
  logits are exponentiated once, normalized under all K key sets by one
  (..., n) @ (n, K) product and weight one (K, n) @ (n, d/heads) value
  product per row and head; later layers carry their own pattern axis;
- concat: each used view times its (d, m*d) row block of the identity,
  mixed under the patterns' 0/1 weights: the zero-filled concatenation.

``fuse(rows, available, head=head)`` returns the outputs of the model's
prediction head ``Affine`` instead, ``available.shape[:-1] + (B, n_out)``.
Average and concat are linear in the views, so each has one algorithm, the
fold of the head into the per-view products: one product of the (u, B, d)
used views with each view's (d, n_out) weights (all of ``head.W`` for
average, view v's row block of it for concat), then one (K, u) @
(u, B*n_out) mix and the head's bias; without a head the mix takes
average's rows themselves and concat's identity blocks. With a head concat
never builds its (K, B, m*d) stack. The other kinds apply the head to their
fused rows.

Memory fusion steps all patterns together. Its first layer has no dropout
before it, so a state there depends only on the views read so far: every
distinct ordered prefix of the patterns' view sequences is stepped once, and
every reversed suffix in the backward direction, as one ``lstm_scan``
prefix-tree node per direction with all prefixes of one length in one step.
The later layers of each group of ``tensor.pattern_groups``, the patterns
with the same number of views, are one ``bilstm_layers`` node, which
gathers each position's first-layer states from the prefix and suffix
tables by block, without padding, and steps both directions of every later
layer with one GEMM per step. Over the 127 patterns of seven views that is
7 first-layer steps per direction over 127 prefixes, and 7 nodes whose 28
positions hold the patterns' 448 view slots.

Random draws (attention dropout, memory's inter-layer dropout and its
permutation) are made only when ``fuse`` is given a generator, the train
mode, pattern after pattern in the order of ``available``, with the numbers
and order of one call per pattern. So ``permute`` draws one permutation per
pattern. Memory draws the numbers of every pattern's dropout masks, for all
its later layers and positions, as one array per call, or with ``permute``
one per pattern after its permutation; cross draws the numbers of all
patterns, layers and positions as one array per call. Both are the numbers
of one draw per pattern, since consecutive draws concatenate; cross
thresholds only the entries a layer reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .layers import Affine, Dropout, LSTMCell, Module, MultiHeadAttention, glorot
from .tensor import (Tensor, bilstm_layers, concat, gated_mix, gated_weights, lstm_scan,
                     no_grad, pattern_groups, stack, window_affine)

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


def check_available(available, m: int) -> np.ndarray:
    """``available`` as a boolean (..., m) array of availability patterns.

    Raises ValueError unless it is boolean, its last axis covers the m views
    and every pattern has an available view. An index tuple such as ``(0, 1)``
    is an integer array, so it is rejected rather than read as booleans.
    """
    available = np.asarray(available)
    if available.dtype != bool:
        raise ValueError(f"availability must be a boolean array, not {available.dtype}")
    if available.ndim == 0 or available.shape[-1] != m:
        raise ValueError(f"availability of shape {available.shape} does not cover {m} views")
    if available.size == 0 or not available.any(axis=-1).all():
        raise ValueError("every pattern needs at least one available view")
    return available


def _patterns(rows: list, available) -> tuple[np.ndarray, np.ndarray]:
    """``available`` checked, by default the views that have a row, and its
    patterns flattened to (K, m). Every row given must have the same count."""
    if available is None:
        available = np.array([r is not None for r in rows])
    available = check_available(available, len(rows))
    patterns = available.reshape(-1, len(rows))
    for v in np.flatnonzero(patterns.any(axis=0)):
        if rows[v] is None:
            raise ValueError(f"view {v} is available in some pattern but has no row")
    counts = [(v, r.shape[0]) for v, r in enumerate(rows) if r is not None]
    for v, count in counts:
        if count != counts[0][1]:
            raise ValueError(f"view {v} has {count} rows, view {counts[0][0]} "
                             f"has {counts[0][1]}")
    return available, patterns


class Fusion(Module):
    """A merge function applied under one or many availability patterns."""

    def fuse(self, rows: list, available=None, rng=None, head: Affine | None = None) -> Tensor:
        """Fused rows, shape ``available.shape[:-1] + (B, width)``, or with a
        ``head`` its outputs on them, ``available.shape[:-1] + (B, n_out)``.

        ``rows`` holds one (B, d) encoding per view, or None for a view that
        no pattern uses; ``available`` is a boolean (..., m) array of
        patterns and defaults to the views that have a row.
        """
        available, patterns = _patterns(rows, available)
        out = self._fuse_head(rows, patterns, rng, head)
        shape = available.shape[:-1] + out.shape[1:]
        return out if out.shape == shape else out.reshape(shape)

    def _fuse(self, rows: list, patterns: np.ndarray, rng) -> Tensor:
        """Fused rows (K, B, width) for the (K, m) boolean ``patterns``."""
        raise NotImplementedError

    def _fuse_head(self, rows: list, patterns: np.ndarray, rng, head: Affine | None) -> Tensor:
        """The fused rows (K, B, width), or with a ``head`` its outputs
        (K, B, n_out) on them."""
        out = self._fuse(rows, patterns, rng)
        return out if head is None else head(out)


def _used(rows: list, patterns: np.ndarray) -> tuple[np.ndarray, Tensor, np.ndarray]:
    """The views some pattern uses, their rows stacked as (u, B, d), and the
    patterns restricted to them, (K, u)."""
    used = np.flatnonzero(patterns.any(axis=0))
    return used, stack([rows[v] for v in used], axis=0), patterns[:, used]


def _mix(weights: np.ndarray, z: Tensor) -> Tensor:
    """Per-view rows (u, B, n) mixed under (K, u) pattern weights as one
    (K, u) @ (u, B*n) product, (K, B, n)."""
    u, batch, n = z.shape
    return (Tensor(weights) @ z.reshape((u, batch * n))).reshape((len(weights), batch, n))


class AverageFusion(Fusion):
    """Mean of the available encodings; permutation invariant by construction.

    All patterns are one (K, u) @ (u, B*d) product with weights 1/|pattern|.
    With a head, ``head.W`` multiplies the used views once and the same
    product mixes their (u, B, n_out) outputs; without one it mixes the rows.
    """

    def _fuse_head(self, rows, patterns, rng, head):
        _, z, on = _used(rows, patterns)
        if head is not None:
            z = window_affine(z, head.W)
        out = _mix(on / on.sum(axis=1, keepdims=True), z)
        return out if head is None else out + head.b


class GatedFusion(Fusion):
    """Data-driven per-dimension weighting across views.

    Logits are still those of the zero-imputed full stack: view v's logit
    under a pattern is the sum, over the pattern's views u, of u's encoding
    times the (u, v) block of ``W_G``, plus v's bias. The per-dimension
    softmax runs over the available views only, so a missing view's weight
    is an exact zero. All patterns are one ``tensor.gated_mix`` node: each
    used view is multiplied by its blocks once per call, and per group of G
    patterns with s views one selection product sums those products into
    the logits of the available slots only, (s, G, B, d), normalized over
    the s slots and mixing the slots' rows. ``gate_weights`` reads the same
    weights through ``tensor.gated_weights``.
    """

    def __init__(self, m: int, d: int, rng: np.random.Generator):
        self.W_G = glorot(rng, m * d, d * m, (m * d, d * m))
        self.b = Tensor(np.zeros(d * m), requires_grad=True)
        self.m = m
        self.d = d

    def _fuse(self, rows, patterns, rng):
        return gated_mix(rows, self.W_G, self.b, patterns)

    def gate_weights(self, rows: list, available=None) -> np.ndarray:
        """Evaluation-mode per-dimension view weights, shape
        ``available.shape[:-1] + (B, d, m)``; a missing view's weights are 0."""
        available, patterns = _patterns(rows, available)
        weights = gated_weights(rows, self.W_G, self.b, patterns)
        return weights.reshape(available.shape[:-1] + weights.shape[1:])


class CrossAttentionFusion(Fusion):
    """A learned fusion token queries the available views through self-attention.

    The sequence holds the token row and every used view, each with its
    view-specific positional embedding. A pattern's missing views are
    excluded as keys from every softmax, so they are never attended and
    their attention weights are exact zeros. The fused vector is the token's
    row after the final attention layer, so the final layer computes only
    the token's queries. The first layer attends the shared sequence under
    every pattern's key set at once, the patterns on its query axis; its
    output, and every later layer, is (K, B, n_q, d).
    """

    def __init__(self, m: int, d: int, cfg: FusionConfig, rng: np.random.Generator):
        self.token = glorot(rng, 1, d, (d,))
        self.positional = glorot(rng, m + 1, d, (m + 1, d))
        self.blocks = [MultiHeadAttention(d, cfg.heads, rng, scaling=cfg.attention_scaling,
                                          dropout=cfg.dropout)
                       for _ in range(cfg.layers)]
        self.m = m
        self.d = d

    def _sequence(self, rows: list, patterns: np.ndarray):
        """Used views, the sequence (B, 1 + u, d) of the token row and the used
        views, and the keys each pattern keeps, (K, 1 + u): the token and the
        pattern's views."""
        used = np.flatnonzero(patterns.any(axis=0))
        ones = Tensor(np.ones((rows[used[0]].shape[0], 1)))
        token_row = ones @ (self.token + self.positional[0]).reshape((1, self.d))
        seq = stack([token_row] + [rows[v] + self.positional[1 + v] for v in used], axis=-2)
        return used, seq, np.concatenate([np.ones((len(patterns), 1), dtype=bool),
                                          patterns[:, used]], axis=1)

    def _keep_masks(self, keys: np.ndarray, batch: int, rng) -> list:
        """Per layer, the dropout keep masks of the patterns that keep
        ``keys``, in the layout of the layer's attention probabilities: on the
        first layer's query axis, (B, heads, K, n_q, n), and on the leading
        axis of later layers, (K, B, heads, n_q, n). The final layer keeps
        only the token's query row. Each is stored pattern-major.

        Pattern after pattern, each stands for one (layers, B * heads, n_k,
        n_k) draw over its n_k keys, the same numbers as one draw per layer,
        since every block has the fusion's dropout rate. One draw takes all
        of them, the same numbers in the same order, and only the entries a
        layer reads are thresholded: its query rows at the pattern's keys,
        read for each group of ``pattern_groups`` through one strided view.
        """
        dropout = self.blocks[0].dropout
        count, n = keys.shape
        layers, heads = len(self.blocks), self.blocks[0].heads
        rows = batch * heads
        block = layers * rows * keys.sum(axis=1)**2  # each pattern's numbers
        drawn = dropout.draw(int(block.sum()), rng)
        if drawn is None:
            return [None] * layers
        starts, step = np.cumsum(block) - block, drawn.itemsize
        keeps = []
        for i in range(layers):
            width = 1 if i == layers - 1 else n  # query rows
            keep = np.zeros((count, rows, width * n))
            for group, pos in pattern_groups(keys):
                s = pos.shape[1]
                queries = min(width, s)
                # at every offset, the (B * heads, queries, s) entries read
                # from a (B * heads, s, s) block starting there
                window = as_strided(drawn, (drawn.size - ((rows - 1) * s + queries) * s + 1,
                                            rows, queries, s),
                                    (step, step * s * s, step * s, step), writeable=False)
                values = dropout.keep(window[starts[group] + i * rows * s * s])
                at = (pos[:, :queries, None] * n + pos[:, None, :]).reshape(len(group), -1)
                keep[group[:, None], :, at] = np.swapaxes(values.reshape(len(group), rows, -1), 1, 2)
            keep = keep.reshape((count, batch, heads, width, n))
            keeps.append(np.moveaxis(keep, 0, 2) if i == 0 else keep)
        return keeps

    def _fuse(self, rows, patterns, rng):
        used, z, keys = self._sequence(rows, patterns)
        keeps = self._keep_masks(keys, z.shape[0], rng)
        exclude = ~keys[:, None, None, None, :]
        last = len(self.blocks) - 1
        for i, (block, keep) in enumerate(zip(self.blocks, keeps)):
            z = block.attend(z, exclude=exclude, keep=keep, first_row=i == last)
        return z[..., 0, :]

    def token_attention(self, rows: list, available=None) -> np.ndarray:
        """First-layer token attention in evaluation mode, shape
        ``available.shape[:-1] + (B, heads, 1 + m)``: the token, then each
        view in declaration order; a missing view's weight is 0."""
        available, patterns = _patterns(rows, available)
        with no_grad():
            used, z, keys = self._sequence(rows, patterns)
            probs = self.blocks[0].probs(z, ~keys[:, None, None, None, :], first_row=True)
        probs = np.moveaxis(probs[..., 0, :], -2, 0)
        full = np.zeros(probs.shape[:-1] + (1 + self.m,))
        full[..., np.concatenate([[0], 1 + used])] = probs
        return full.reshape(available.shape[:-1] + full.shape[1:])


def _select(table: Tensor, index: list[int], batch: int) -> Tensor:
    """Blocks ``index`` of ``batch`` rows each from a table of such blocks,
    as one one-hot product, whose backward is one GEMM too; a Tensor takes
    no array index. The identity and a single block are taken without one."""
    n = table.shape[0] // batch
    if index == list(range(n)):
        return table
    if len(index) == 1:
        return table[index[0] * batch:(index[0] + 1) * batch]
    onehot = np.zeros((len(index), n))
    onehot[np.arange(len(index)), index] = 1.0
    return (Tensor(onehot) @ table.reshape((n, -1))).reshape((len(index) * batch, -1))


def _ungroup(outs: list[Tensor], groups: list[np.ndarray], batch: int) -> Tensor:
    """Per-group outputs, ``batch`` rows per pattern of each group in
    ``groups``, as one table in the patterns' order."""
    out = concat(outs, axis=0) if len(outs) > 1 else outs[0]
    return _select(out, np.argsort(np.concatenate(groups)).tolist(), batch)


def _prefix_states(cell: LSTMCell, rows: list, seqs: list[tuple]):
    """The cell's h after every distinct ordered prefix of the view
    sequences ``seqs``, from an empty memory, as one ``lstm_scan`` over the
    prefix tree: each prefix of length t is one block of step t that
    continues its parent's state. Per length t it returns a map from prefix
    to block and a table of the n_t prefixes' (B, d_h) blocks stacked along
    the rows."""
    where, inputs, parents = [{}], [], []
    for t in range(1, max(map(len, seqs)) + 1):
        prefixes = list(dict.fromkeys(q[:t] for q in seqs if len(q) >= t))
        inputs.append([p[-1] for p in prefixes])
        if t > 1:
            parents.append([where[-1][p[:-1]] for p in prefixes])
        where.append({p: i for i, p in enumerate(prefixes)})
    return where, [None] + lstm_scan(rows, cell.W, cell.b, inputs, parents)


class MemoryFusion(Fusion):
    """Recurrent fusion: a stacked bidirectional LSTM consumes the available
    encodings one view at a time from an empty initial memory; the fused
    vector is the final memory state.

    Views are fed in declaration order, so this merge is order sensitive; a
    random train-time permutation can be enabled to counter order bias. A
    forward given a generator draws one permutation per pattern, in order.

    Patterns are stepped together. The first layer has no dropout before
    it, so its forward state after t views depends only on the pattern's
    first t views and its backward state only on its last t: every distinct
    ordered prefix, and every reversed suffix, is stepped once, all of one
    length in one step of one ``lstm_scan`` node per direction. One layer
    reads each pattern's forward state after its s views beside its
    backward one. More layers run each group of ``pattern_groups``, the
    patterns with s views, as one ``tensor.bilstm_layers`` node: position t reads the forward state
    after the pattern's first t + 1 views beside the backward one after its
    last s - t, times the layer's dropout keep masks, and the node returns
    the last layer's forward h after the last view beside its backward h
    after the first.
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

    def _draws(self, patterns: np.ndarray, batch: int, rng) -> tuple[list[tuple], np.ndarray | None,
                                                                     np.ndarray]:
        """Each pattern's view order, permuted only given ``rng``, the
        numbers behind the inter-layer dropout masks of all patterns as one
        flat array, or None where dropout is the identity, and where each
        pattern's numbers, (layers - 1, s, B, d) over its s views, start.

        Without ``permute`` one draw takes the numbers of every pattern; with
        it each pattern draws its permutation, then its numbers. Either way
        they are the numbers of one (B, d) draw per pattern, later layer and
        position, in that order, since consecutive draws concatenate.
        """
        later = len(self.forward_cells) - 1
        seqs = [np.flatnonzero(pattern) for pattern in patterns]
        sizes = np.array([later * len(seq) * batch * self.d for seq in seqs])
        if self.permute and rng is not None:
            drawn = []
            for i, seq in enumerate(seqs):
                seqs[i] = seq[rng.permutation(len(seq))]
                drawn.append(self.dropout.draw(int(sizes[i]), rng) if later else None)
            drawn = None if drawn[0] is None else np.concatenate(drawn)
        else:
            drawn = self.dropout.draw(int(sizes.sum()), rng) if later else None
        return [tuple(seq.tolist()) for seq in seqs], drawn, np.cumsum(sizes) - sizes

    def _keep(self, drawn: np.ndarray, starts: np.ndarray, members: np.ndarray, s: int,
              batch: int) -> np.ndarray:
        """The scaled keep masks of a group of patterns with s views from the
        numbers they drew, in ``bilstm_layers``' layout (layers - 1, s, d,
        G*B); the numbers are a view of ``drawn`` where the members are
        consecutive patterns, as ``enumerate_combinations`` lists them."""
        later = len(self.forward_cells) - 1
        size, first = later * s * batch * self.d, starts[members[0]]
        numbers = (drawn[first:first + len(members) * size]
                   if members[-1] - members[0] == len(members) - 1 else
                   np.concatenate([drawn[starts[k]:starts[k] + size] for k in members]))
        numbers = numbers.reshape(len(members), later, s, batch, self.d).transpose(1, 2, 4, 0, 3)
        return self.dropout.keep(numbers).reshape(later, s, self.d, -1)

    def _fuse(self, rows, patterns, rng):
        batch = next(r.shape[0] for r in rows if r is not None)
        groups = [members for members, _ in pattern_groups(patterns)]
        seqs, drawn, starts = self._draws(patterns, batch, rng)
        fwd_at, fwd = _prefix_states(self.forward_cells[0], rows, seqs)
        bwd_at, bwd = _prefix_states(self.backward_cells[0], rows, [q[::-1] for q in seqs])
        cells = [(f.W, f.b, b.W, b.b)
                 for f, b in zip(self.forward_cells[1:], self.backward_cells[1:])]
        outs = []
        for members in groups:
            group = [seqs[k] for k in members]
            s = len(group[0])
            if not cells:  # the forward state after all s views beside the backward one
                outs.append(concat([_select(fwd[s], [fwd_at[s][q] for q in group], batch),
                                    _select(bwd[s], [bwd_at[s][q[::-1]] for q in group], batch)],
                                   axis=-1))
                continue
            # position t reads the forward state after the group's first t + 1 views
            # beside the backward one after its last s - t
            blocks = np.array([[[fwd_at[t + 1][q[:t + 1]] for q in group],
                                [bwd_at[s - t][q[t:][::-1]] for q in group]] for t in range(s)])
            keep = None if drawn is None else self._keep(drawn, starts, members, s, batch)
            outs.append(bilstm_layers([(fwd[t + 1], bwd[s - t]) for t in range(s)], blocks,
                                      batch, cells, keep))
        return _ungroup(outs, groups, batch).reshape((len(patterns), batch, self.d))


class ConcatFusion(Fusion):
    """Feature-level concatenation with zero imputation; output width m*d.

    Each used view is multiplied by its row block of ``head.W`` once and the
    patterns' 0/1 weights mix the (u, B, n_out) products, so with a head the
    (K, B, m*d) stack is never built. Without one the blocks are those of
    the identity, which gives the zero-filled concatenation itself.
    """

    def __init__(self, m: int, d: int):
        self.m = m
        self.d = d

    def _fuse_head(self, rows, patterns, rng, head):
        used, z, on = _used(rows, patterns)
        W = Tensor(np.eye(self.m * self.d)) if head is None else head.W
        blocks = _select(W, used.tolist(), self.d).reshape((len(used), self.d, -1))
        out = _mix(on.astype(float), z @ blocks)
        return out if head is None else out + head.b


def make_fusion(cfg: FusionConfig, m: int, d: int, rng: np.random.Generator) -> Fusion:
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
