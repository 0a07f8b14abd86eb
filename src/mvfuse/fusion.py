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
- gated: one product of each view with its blocks of ``W_G``; patterns are
  grouped by their number of views s, and per group one selection product
  gives the logits of the available slots only, (s, G, B, d), and one
  fused softmax and weighted sum mixes over them;
- cross: one token-plus-views sequence and one Q/K/V projection per layer
  for all patterns; a pattern's missing views are excluded keys, and the
  final layer computes only the token's queries. The first layer's input is
  shared, so the patterns' key sets lie on its query axis: the token's
  (B, heads, 1, n) logits become (B, heads, K, n) probabilities and one
  (K, n) @ (n, d/heads) product per row and head; later layers carry their
  own pattern axis;
- concat: the zero-filled concatenation times each pattern's mask.

``fuse(rows, available, head=head)`` returns the outputs of the model's
prediction head ``Affine`` instead, ``available.shape[:-1] + (B, n_out)``.
Average and concat are linear in the views, so they fold the head into the
per-view products: one product of the (u, B, d) used views with each view's
(d, n_out) weights (all of ``head.W`` for average, view v's row block of it
for concat), then one (K, u) @ (u, B*n_out) mix and the head's bias. Concat
never builds its (K, B, m*d) stack. The other kinds apply the head to their
fused rows.

Memory fusion steps all patterns together, each recurrence as one
``lstm_scan`` node. Its first layer has no dropout before it, so a state
there depends only on the views read so far: every distinct ordered prefix
of the patterns' view sequences is stepped once, and every reversed suffix
in the backward direction, as one prefix-tree node per direction with all
prefixes of one length in one step. Later layers step all patterns with the
same number of views together as one chain node per direction, with no
padding, and read each position's first-layer output from the prefix and
suffix tables through one-hot products. Over the 127 patterns of seven views
that is 7 first-layer steps per direction over 127 prefixes and 28
later-layer steps over the patterns' 448 view slots.

Random draws (attention dropout, memory's inter-layer dropout and its
permutation) are made pattern after pattern in the order of ``available``,
with the numbers and order of one call per pattern. So ``permute`` draws one
permutation per pattern, and each pattern draws its dropout masks for all
layers and positions as one array, the same numbers as one draw each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Affine, Dropout, LSTMCell, Module, MultiHeadAttention, glorot
from .tensor import Tensor, concat, lstm_scan, no_grad, softmax_mix, stack, window_affine

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

    def fuse(self, rows: list, available=None, rng=None, train: bool = False,
             head: Affine | None = None) -> Tensor:
        """Fused rows, shape ``available.shape[:-1] + (B, width)``, or with a
        ``head`` its outputs on them, ``available.shape[:-1] + (B, n_out)``.

        ``rows`` holds one (B, d) encoding per view, or None for a view that
        no pattern uses; ``available`` is a boolean (..., m) array of
        patterns and defaults to the views that have a row.
        """
        available, patterns = _patterns(rows, available)
        out = (self._fuse(rows, patterns, rng, train) if head is None
               else self._fuse_head(rows, patterns, rng, train, head))
        shape = available.shape[:-1] + out.shape[1:]
        return out if out.shape == shape else out.reshape(shape)

    def _fuse(self, rows: list, patterns: np.ndarray, rng, train: bool) -> Tensor:
        """Fused rows (K, B, width) for the (K, m) boolean ``patterns``."""
        raise NotImplementedError

    def _fuse_head(self, rows: list, patterns: np.ndarray, rng, train: bool,
                   head: Affine) -> Tensor:
        """The head's outputs (K, B, n_out) on the fused rows."""
        return head(self._fuse(rows, patterns, rng, train))


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
    product mixes their (u, B, n_out) outputs.
    """

    def _fuse(self, rows, patterns, rng, train):
        _, z, on = _used(rows, patterns)
        return _mix(on / on.sum(axis=1, keepdims=True), z)

    def _fuse_head(self, rows, patterns, rng, train, head):
        _, z, on = _used(rows, patterns)
        return _mix(on / on.sum(axis=1, keepdims=True), window_affine(z, head.W)) + head.b


class GatedFusion(Fusion):
    """Data-driven per-dimension weighting across views.

    Logits are still those of the zero-imputed full stack: view v's logit
    under a pattern is the sum, over the pattern's views u, of u's encoding
    times the (u, v) block of ``W_G``, plus v's bias. The per-dimension
    softmax runs over the available views only, so a missing view's weight
    is an exact zero. Each used view is multiplied by its blocks once per
    call. Patterns are then packed by their number of views s: per group of
    G patterns one selection product sums those products into the logits of
    the available slots only, (s, G, B, d), one one-hot product gathers the
    slots' values, and one ``softmax_mix`` mixes over the s slots.
    """

    def __init__(self, m: int, d: int, rng: np.random.Generator):
        self.W_G = glorot(rng, m * d, d * m, (m * d, d * m))
        self.b = Tensor(np.zeros(d * m), requires_grad=True)
        self.m = m
        self.d = d

    def _packed(self, used: np.ndarray, z: Tensor, on: np.ndarray):
        """Per group of G patterns with s views, from ``_used``'s views, rows
        and patterns: their indices into the patterns, each slot's position
        among the used views, (s * G,) in (slot, pattern) order, and the
        slots' logits (s, G, B, d)."""
        m, d = self.m, self.d
        u, batch = len(used), z.shape[1]
        # W_G's rows are (view, input dimension) and its columns (output
        # dimension, view). Per used view v the table holds each used view w's
        # rows times block (w, v), then v's bias: rows v * (u + 1) + w and
        # v * (u + 1) + u. A slot of view v weights v's u + 1 rows by its
        # pattern's ``terms``: its views, then the bias.
        pairs = self.W_G.reshape((m, d, d, m)).transpose((3, 0, 1, 2)).reshape((m * m * d, d))
        pairs = _select(pairs, (used[:, None] * m + used).ravel().tolist(), d)
        bias = _select(self.b.reshape((d, m)).transpose((1, 0)), used.tolist(), 1)
        table = concat([z.reshape((1, u, batch, d)) @ pairs.reshape((u, u, d, d)),
                        Tensor(np.ones((1, 1, batch, 1))) @ bias.reshape((u, 1, 1, d))],
                       axis=1).reshape((u * (u + 1), -1))
        terms = np.concatenate([on, np.ones((len(on), 1))], axis=1)
        for members in _by_length(on):
            count, s = len(members), int(on[members[0]].sum())
            views = np.nonzero(on[members])[1].reshape((count, s)).T
            select = np.zeros((s, count, u, u + 1))
            select[np.arange(s)[:, None], np.arange(count), views] = terms[members]
            logits = Tensor(select.reshape((s * count, -1))) @ table
            yield members, views.ravel(), logits.reshape((s, count, batch, d))

    def _fuse(self, rows, patterns, rng, train):
        used, z, on = _used(rows, patterns)
        batch, table = z.shape[1], z.reshape((-1, self.d))
        outs, groups = [], []
        for members, views, logits in self._packed(used, z, on):
            values = _select(table, views.tolist(), batch)
            outs.append(softmax_mix(logits, values.reshape(logits.shape)).reshape((-1, self.d)))
            groups.append(members)
        return _ungroup(outs, groups, batch).reshape((len(patterns), batch, self.d))

    def gate_weights(self, rows: list, available=None) -> np.ndarray:
        """Evaluation-mode per-dimension view weights, shape
        ``available.shape[:-1] + (B, d, m)``; a missing view's weights are 0."""
        available, patterns = _patterns(rows, available)
        with no_grad():
            used, z, on = _used(rows, patterns)
            weights = np.zeros((len(patterns), self.m) + z.shape[1:])
            for members, views, logits in self._packed(used, z, on):
                weights[np.tile(members, logits.shape[0]), used[views]] = (
                    logits.softmax(axis=0).data.reshape((-1,) + z.shape[1:]))
        return weights.transpose((0, 2, 3, 1)).reshape(
            available.shape[:-1] + z.shape[1:2] + (self.d, self.m))


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
        views, and the keys each pattern excludes, (K, 1, 1, 1, 1 + u)."""
        used, z, on = _used(rows, patterns)
        ones = Tensor(np.ones((z.shape[1], 1)))
        token_row = ones @ (self.token + self.positional[0]).reshape((1, self.d))
        seq = stack([token_row] + [rows[v] + self.positional[1 + v] for v in used], axis=-2)
        keys = np.concatenate([np.ones((len(on), 1), dtype=bool), on], axis=1)
        return used, seq, ~keys[:, None, None, None, :]

    def _keep_masks(self, patterns: np.ndarray, used: np.ndarray, batch: int,
                    rng, train: bool) -> list:
        """Per layer, the dropout keep masks of all patterns as one dense array
        in the layout of its attention probabilities.

        Each pattern, in order, draws one (layers, B, heads, n_k, n_k) array,
        the same numbers as one draw per layer, since every block has the
        fusion's dropout rate. It is scattered to the token and view slots of
        the pattern: on the first layer's query axis, (B, heads, K, n_q, n),
        and on the leading axis of later layers, (K, B, heads, n_q, n). The
        final layer keeps only the token's row.
        """
        dropout = self.blocks[0].dropout
        if not train or dropout.rate == 0.0:
            return [None] * len(self.blocks)
        count, n, heads = len(patterns), 1 + len(used), self.blocks[0].heads
        last = len(self.blocks) - 1
        keeps = [np.zeros(((batch, heads, count) if i == 0 else (count, batch, heads))
                          + (1 if i == last else n, n)) for i in range(last + 1)]
        for k, pattern in enumerate(patterns):
            pos = np.concatenate([[0], 1 + np.flatnonzero(pattern[used])])
            drawn = dropout.mask((len(keeps), batch, heads, len(pos), len(pos)), rng, train)
            for i, (keep, layer) in enumerate(zip(keeps, drawn)):
                queries = pos[:keep.shape[-2]]
                target = keep[:, :, k] if i == 0 else keep[k]
                target[:, :, queries[:, None], pos] = layer[:, :, :len(queries)]
        return keeps

    def _fuse(self, rows, patterns, rng, train):
        used, z, exclude = self._sequence(rows, patterns)
        keeps = self._keep_masks(patterns, used, z.shape[0], rng, train)
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
            used, z, exclude = self._sequence(rows, patterns)
            probs = self.blocks[0].probs(z, exclude, first_row=True).data[..., 0, :]
        probs = np.moveaxis(probs, -2, 0)
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


def _by_length(patterns: np.ndarray) -> list[np.ndarray]:
    """The indices of the patterns with each number of views, groups in the
    order their length first appears, so patterns already grouped by
    length, as enumerate_combinations lists them, keep their order."""
    sizes = patterns.sum(axis=1)
    return [np.flatnonzero(sizes == s) for s in dict.fromkeys(sizes.tolist())]


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
    random train-time permutation can be enabled to counter order bias. It
    draws one permutation per pattern, patterns in order.

    Patterns are stepped together. The first layer has no dropout before
    it, so its forward state after t views depends only on the pattern's
    first t views and its backward state only on its last t: every distinct
    ordered prefix, and every reversed suffix, is stepped once, all of one
    length in one step of one ``lstm_scan`` node per direction. Each group
    of patterns with s views reads those tables at one list of (forward,
    backward) positions: (s - 1, 0) for one layer, and (t, t) for each t
    when later layers step the group together, as one chain node per
    direction that returns only its last h at the last layer.
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

    def _draws(self, patterns: np.ndarray, batch: int, rng,
               train: bool) -> tuple[list[tuple], list]:
        """Each pattern's view order and its inter-layer dropout masks
        (layers - 1, s, B, d) for its s views, or None where dropout is the
        identity.

        Draws are made pattern after pattern: the permutation, then one mask
        array, the same numbers as one (B, d) draw per later layer and
        position.
        """
        if self.permute and train and rng is None:
            raise ValueError("permuted memory fusion needs a generator at train time")
        later = len(self.forward_cells) - 1
        seqs, masks = [], []
        for pattern in patterns:
            seq = np.flatnonzero(pattern)
            if self.permute and train:
                seq = seq[rng.permutation(len(seq))]
            seqs.append(tuple(seq.tolist()))
            masks.append(self.dropout.mask((later, len(seq), batch, self.d), rng, train)
                         if later else None)
        return seqs, masks

    def _fuse(self, rows, patterns, rng, train):
        batch = next(r.shape[0] for r in rows if r is not None)
        groups = _by_length(patterns)
        seqs, masks = self._draws(patterns, batch, rng, train)
        fwd_at, fwd = _prefix_states(self.forward_cells[0], rows, seqs)
        bwd_at, bwd = _prefix_states(self.backward_cells[0], rows, [q[::-1] for q in seqs])
        outs = [None] * len(groups)
        for g in range(len(groups)):
            group = [seqs[k] for k in groups[g]]
            s = len(group[0])
            # first-layer (forward, backward) positions; one layer reads (last, first)
            positions = ([(s - 1, 0)] if len(self.forward_cells) == 1
                         else [(t, t) for t in range(s)])
            seq = [concat([
                _select(fwd[i + 1], [fwd_at[i + 1][q[:i + 1]] for q in group], batch),
                _select(bwd[s - j], [bwd_at[s - j][q[j:][::-1]] for q in group], batch)], axis=-1)
                for i, j in positions]
            for layer in range(1, len(self.forward_cells)):
                last = layer == len(self.forward_cells) - 1
                if masks[0] is not None:
                    # a group's masks are its patterns' masks stacked along the rows
                    keep = np.concatenate([masks[k][layer - 1] for k in groups[g]], axis=1)
                    seq = [x * Tensor(keep[t]) for t, x in enumerate(seq)]
                fw, bw = self.forward_cells[layer], self.backward_cells[layer]
                out_fwd = lstm_scan(seq, fw.W, fw.b, last=last)
                out_bwd = lstm_scan(seq[::-1], bw.W, bw.b, last=last)
                seq = [concat([f, b], axis=-1) for f, b in zip(out_fwd, out_bwd[::-1])]
            outs[g] = seq[0]
        return _ungroup(outs, groups, batch).reshape((len(patterns), batch, self.d))


class ConcatFusion(Fusion):
    """Feature-level concatenation with zero imputation; output width m*d.

    All patterns are one product of the zero-filled concatenation with the
    patterns' (K, 1, m*d) masks. With a head, each used view is multiplied by
    its row block of ``head.W`` once and the patterns' 0/1 weights mix the
    (u, B, n_out) products, so the (K, B, m*d) stack is never built.
    """

    def __init__(self, m: int, d: int):
        self.m = m
        self.d = d

    def _fuse(self, rows, patterns, rng, train):
        batch = next(r.shape[0] for r in rows if r is not None)
        zero = Tensor(np.zeros((batch, self.d)))
        flat = concat([zero if r is None else r for r in rows], axis=-1)
        return flat * Tensor(np.repeat(patterns, self.d, axis=1)[:, None, :].astype(float))

    def _fuse_head(self, rows, patterns, rng, train, head):
        used, z, on = _used(rows, patterns)
        blocks = _select(head.W, used.tolist(), self.d).reshape((len(used), self.d, -1))
        return _mix(on.astype(float), z @ blocks) + head.b


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
