"""Merge functions: correctness of each kind and the ignore-missing guarantee."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfuse.encoders import EncoderConfig, ViewSpec
from mvfuse.augmentation import enumerate_combinations, pattern_matrix
from mvfuse.fusion import (FUSION_KINDS, AverageFusion, ConcatFusion, CrossAttentionFusion,
                           FusionConfig, GatedFusion, MemoryFusion, fused_width,
                           make_fusion)
from mvfuse.gradcheck import check_gradients
from mvfuse.layers import Affine
from mvfuse.model import FeatureFusionModel, InputConcatModel, build_model
from mvfuse import fusion as fusion_module
from mvfuse import layers as layers_module
from mvfuse import tensor as tensor_module
from mvfuse.tensor import Tensor, backward, concat, lstm_scan, no_grad, stack


def rows_for(m, d, rng, mask, batch=1):
    """Row list of (batch, d) encodings with None outside the mask."""
    return [Tensor(rng.normal(size=(batch, d))) if i in mask else None for i in range(m)]


class TestAverage:
    def test_identical_rows_return_that_row(self):
        z = np.array([[0.5, -1.0, 2.0]])
        rows = [Tensor(z.copy()) for _ in range(3)]
        np.testing.assert_allclose(AverageFusion().fuse(rows).data, z, atol=1e-15)

    def test_singleton_mask_is_exact(self):
        z = np.array([[1.0, 2.0]])
        rows = [None, Tensor(z), None]
        np.testing.assert_array_equal(AverageFusion().fuse(rows).data, z)

    def test_two_rows_analytic(self):
        rows = [Tensor(np.array([[1.0, 3.0]])), Tensor(np.array([[3.0, 1.0]]))]
        np.testing.assert_allclose(AverageFusion().fuse(rows).data, [[2.0, 2.0]], atol=1e-15)

    @given(st.permutations(list(range(4))))
    @settings(max_examples=24, deadline=None)
    def test_permutation_invariant(self, perm):
        rng = np.random.default_rng(0)
        vals = [rng.normal(size=(1, 5)) for _ in range(4)]
        base = AverageFusion().fuse([Tensor(v) for v in vals]).data
        shuffled = AverageFusion().fuse([Tensor(vals[i]) for i in perm]).data
        np.testing.assert_allclose(base, shuffled, atol=1e-12)


class TestGated:
    def test_singleton_support_returns_row_exactly(self):
        rng = np.random.default_rng(0)
        gated = GatedFusion(3, 4, rng)
        z = rng.normal(size=(1, 4))
        out = gated.fuse([None, Tensor(z), None]).data
        np.testing.assert_allclose(out, z, atol=1e-15)

    def test_zero_parameters_give_plain_average(self):
        rng = np.random.default_rng(1)
        gated = GatedFusion(3, 4, rng)
        gated.W_G.data = np.zeros_like(gated.W_G.data)
        gated.b.data = np.zeros_like(gated.b.data)
        a, b = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        out = gated.fuse([Tensor(a), Tensor(b), None]).data
        np.testing.assert_allclose(out, (a + b) / 2.0, atol=1e-14)

    def test_masked_softmax_matches_column_deletion_oracle(self):
        # oracle: compute logits from the zero-imputed stack, physically delete
        # the masked columns, softmax, then reinsert zeros
        rng = np.random.default_rng(2)
        m, d = 4, 3
        gated = GatedFusion(m, d, rng)
        mask = (0, 2)
        z = {i: rng.normal(size=d) for i in mask}
        stack = np.zeros((m, d))
        for i in mask:
            stack[i] = z[i]
        logits = (stack.reshape(-1) @ gated.W_G.data + gated.b.data).reshape(d, m)
        kept = np.array(mask)
        e = np.exp(logits[:, kept] - logits[:, kept].max(axis=1, keepdims=True))
        probs_kept = e / e.sum(axis=1, keepdims=True)
        weights = np.zeros((d, m))
        weights[:, kept] = probs_kept
        expected = np.einsum("dm,md->d", weights, stack)

        rows = [Tensor(z[i][None]) if i in mask else None for i in range(m)]
        np.testing.assert_allclose(gated.fuse(rows).data, expected[None], atol=1e-12)

    def test_missing_view_weights_are_exactly_zero(self):
        rng = np.random.default_rng(3)
        m, d = 4, 5
        gated = GatedFusion(m, d, rng)
        rows = rows_for(m, d, rng, mask=(1, 3), batch=2)
        weights = gated.gate_weights(rows)
        assert weights.shape == (2, d, m)
        assert np.all(weights[..., [0, 2]] == 0.0)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)

    def test_gate_weights_of_many_patterns_match_one_pattern_each(self):
        rng = np.random.default_rng(5)
        m, d = 3, 4
        gated = GatedFusion(m, d, rng)
        rows = rows_for(m, d, rng, mask=(0, 1, 2), batch=2)
        available = pattern_matrix(enumerate_combinations(m), m).reshape(7, 1, m)
        weights = gated.gate_weights(rows, available)
        assert weights.shape == (7, 1, 2, d, m)
        for pattern, got in zip(available[:, 0], weights[:, 0]):
            assert np.all(got[..., ~pattern] == 0.0)
            alone = gated.gate_weights([r if on else None for r, on in zip(rows, pattern)])
            np.testing.assert_allclose(got, alone, rtol=0, atol=1e-12)

    def test_identity_assignment_witness(self):
        # the same two encodings produce different outputs when they occupy
        # different view slots, because slot identity enters through W_G
        rng = np.random.default_rng(4)
        gated = GatedFusion(3, 4, rng)
        a, b = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        one = gated.fuse([Tensor(a), Tensor(b), None]).data
        two = gated.fuse([Tensor(b), Tensor(a), None]).data
        assert not np.allclose(one, two)


def dense_gated(W, b, rows, patterns, readout):
    """The zero-imputed dense gated merge and its gradients, in numpy.

    Every pattern's (B, d, m) logits come from the zero-imputed stack of all
    m views, a masked softmax over the views weights them and the output is
    the weighted sum of the views. Returns the outputs (K, B, d), the
    weights (K, B, d, m) and the gradients of ``sum(outputs * readout)``
    with respect to the rows, W and b.
    """
    m = len(rows)
    batch, d = next(r.shape for r in rows if r is not None)
    z = np.stack([np.zeros((batch, d)) if r is None else r for r in rows])  # (m, B, d)
    flat = (z[None] * patterns[:, :, None, None]).transpose(0, 2, 1, 3).reshape(
        len(patterns), batch, m * d)
    logits = (flat @ W + b).reshape(len(patterns), batch, d, m)
    logits = np.where(patterns[:, None, None, :], logits, -np.inf)
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    values = z.transpose(1, 2, 0)  # (B, d, m)
    out = (weights * values).sum(axis=-1)
    dlogits = (weights * readout[..., None] * (values - out[..., None])).reshape(
        len(patterns), batch, d * m)
    dflat = (dlogits @ W.T).reshape(len(patterns), batch, m, d) * patterns[:, None, :, None]
    drows = dflat.sum(axis=0).transpose(1, 0, 2) + (weights * readout[..., None]).sum(
        axis=0).transpose(2, 0, 1)
    dW = np.einsum("kbi,kbo->io", flat, dlogits)
    return out, weights, drows, dW, dlogits.sum(axis=(0, 1))


def assert_relative(got, expected, rtol=1e-12):
    """Agreement within ``rtol`` of the largest magnitude of ``expected``."""
    np.testing.assert_allclose(got, expected, rtol=rtol,
                               atol=rtol * max(np.abs(expected).max(), 1e-300))


class TestGatedPacking:
    """Packing patterns by length gives the dense zero-imputed merge."""

    CASES = {
        "unsorted-lengths": (4, [[1, 1, 1, 1], [1, 0, 0, 0], [0, 0, 1, 0], [1, 1, 0, 0],
                                 [0, 1, 0, 1], [0, 0, 1, 1]]),
        "repeated-pattern": (3, [[1, 0, 1], [0, 1, 0], [1, 0, 1], [1, 1, 1], [1, 0, 1]]),
        "unused-view": (4, [[1, 0, 1, 0], [0, 0, 1, 1], [1, 0, 0, 0], [1, 0, 1, 1]]),
        "one-view": (1, [[1]]),
        "single-pattern": (5, [[0, 1, 1, 0, 1]]),
        "stacked": (3, [[[1, 1, 1], [1, 0, 0], [0, 1, 1], [0, 1, 1]],
                        [[0, 0, 1], [1, 1, 0], [1, 1, 1], [1, 0, 1]]]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs_and_gradients_match_dense_oracle(self, case):
        m, available = self.CASES[case]
        available = np.array(available, dtype=bool)
        if available.ndim == 2:
            available = available[:, None, :]  # (K, 1, m): every row under every pattern
        rng = np.random.default_rng(11)
        d, batch = 3, 2
        gated = GatedFusion(m, d, rng)
        gated.b.data = rng.normal(size=gated.b.shape)
        used = available.reshape(-1, m).any(axis=0)
        rows = [Tensor(rng.normal(size=(batch, d)) * 3.0, requires_grad=True) if on else None
                for on in used]
        out = gated.fuse(rows, available)
        readout = rng.normal(size=out.shape)
        (out * Tensor(readout)).sum().backward()

        patterns = available.reshape(-1, m)
        expected, weights, drows, dW, db = dense_gated(
            gated.W_G.data, gated.b.data, [None if r is None else r.data for r in rows],
            patterns, readout.reshape(-1, batch, d))
        assert out.shape == available.shape[:-1] + (batch, d)
        assert_relative(out.data, expected.reshape(out.shape))
        assert_relative(gated.W_G.grad, dW)
        assert_relative(gated.b.grad, db)
        for v, row in enumerate(rows):
            if row is not None:
                assert_relative(row.grad, drows[v])
        got = gated.gate_weights(rows, available)
        assert got.shape == available.shape[:-1] + (batch, d, m)
        got = got.reshape(weights.shape)
        assert np.all(got[np.broadcast_to(~patterns[:, None, None, :], got.shape)] == 0.0)
        assert_relative(got, weights)

    def seven_views(self, requires_grad=False):
        rng = np.random.default_rng(12)
        m, d, batch = 7, 8, 4
        rows = [Tensor(rng.normal(size=(batch, d)), requires_grad=requires_grad)
                for _ in range(m)]
        return GatedFusion(m, d, rng), rows, pattern_matrix(enumerate_combinations(m), m)

    def test_mix_normalizes_only_available_slots(self, monkeypatch):
        # 127 patterns of seven views have 448 available slots of 889
        normalized = []
        softmax = tensor_module._gated_softmax

        def spied(*args):
            z, weights, spare = softmax(*args)
            normalized.append(weights.size)
            return z, weights, spare

        monkeypatch.setattr(tensor_module, "_gated_softmax", spied)
        gated, rows, available = self.seven_views()
        assert gated.fuse(rows, available).shape == (127, 4, 8)
        assert normalized == [448 * 4 * 8]

    def test_recorded_fuse_is_one_node(self):
        # the 127 patterns of seven views recorded 66 nodes as generic ops
        gated, rows, available = self.seven_views(requires_grad=True)
        assert len(tensor_module._tape(gated.fuse(rows, available))) == 1

    def test_unrecorded_fuses_are_bit_identical(self):
        # each call reuses a buffer of its own, so nothing carries over between
        # calls, and a recorded call (W_G needs a gradient) runs the same path
        gated, rows, available = self.seven_views()
        with no_grad():
            first = gated.fuse(rows, available).data
            gated.fuse(rows, available[::-1])
            second = gated.fuse(rows, available).data
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, gated.fuse(rows, available).data)


class TestCrossAttention:
    def cfg(self, heads=2, layers=1):
        return FusionConfig(kind="cross", heads=heads, layers=layers, dropout=0.0)

    def test_token_attention_sums_to_one(self):
        rng = np.random.default_rng(0)
        cross = CrossAttentionFusion(4, 8, self.cfg(), rng)
        rows = rows_for(4, 8, rng, mask=(0, 2, 3))
        weights = cross.token_attention(rows)
        assert weights.shape == (1, 2, 5)  # batch x heads x (token + four views)
        assert np.all(weights[..., 2] == 0.0)  # view 1 is missing
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)

    def test_token_attention_of_many_patterns_matches_one_pattern_each(self):
        rng = np.random.default_rng(6)
        m = 3
        cross = CrossAttentionFusion(m, 8, self.cfg(), rng)
        rows = rows_for(m, 8, rng, mask=(0, 1, 2), batch=2)
        available = pattern_matrix(enumerate_combinations(m), m)
        weights = cross.token_attention(rows, available)
        assert weights.shape == (7, 2, 2, 1 + m)
        for pattern, got in zip(available, weights):
            assert np.all(got[..., 1:][..., ~pattern] == 0.0)
            alone = cross.token_attention([r if on else None for r, on in zip(rows, pattern)])
            np.testing.assert_allclose(got, alone, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mask", [(0,), (1, 3), (0, 1, 2), (0, 1, 2, 3)])
    def test_output_width_for_any_subset(self, mask):
        rng = np.random.default_rng(1)
        cross = CrossAttentionFusion(4, 8, self.cfg(), rng)
        out = cross.fuse(rows_for(4, 8, rng, mask))
        assert out.shape == (1, 8)

    def test_absent_views_never_influence_output(self):
        # fusing {a, b} must match fusing {a, b, c} with c physically deleted,
        # bit for bit, because only available rows are ever stacked
        rng = np.random.default_rng(2)
        cross = CrossAttentionFusion(3, 8, self.cfg(), rng)
        a, b = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
        with_absent = cross.fuse([Tensor(a), Tensor(b), None]).data
        only_two = cross.fuse([Tensor(a.copy()), Tensor(b.copy()), None]).data
        assert np.array_equal(with_absent, only_two)

    def test_positional_embedding_tracks_view_identity(self):
        # view 2 keeps its own embedding even when it is the only view present
        rng = np.random.default_rng(3)
        cross = CrossAttentionFusion(3, 8, self.cfg(), rng)
        z = rng.normal(size=(1, 8))
        alone = cross.fuse([None, None, Tensor(z)]).data
        as_first = cross.fuse([Tensor(z), None, None]).data
        assert not np.allclose(alone, as_first)

    def test_dropout_draws_match_attention_over_present_views(self):
        # oracle: the sequence of the token and the present views alone, run
        # through each layer's own forward, which draws its dropout mask
        rng = np.random.default_rng(5)
        cross = CrossAttentionFusion(4, 8, FusionConfig(kind="cross", heads=2, layers=2,
                                                        dropout=0.3), rng)
        rows = rows_for(4, 8, rng, (0, 2, 3), batch=3)
        fused = cross.fuse(rows, rng=np.random.default_rng(6)).data
        twin = np.random.default_rng(6)
        token = np.tile(cross.token.data + cross.positional.data[0], (3, 1))
        z = Tensor(np.stack([token] + [rows[v].data + cross.positional.data[1 + v]
                                       for v in (0, 2, 3)], axis=1))
        for block in cross.blocks:
            z = block(z, rng=twin)
        np.testing.assert_allclose(fused, z.data[:, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, -8.0, 1e4], ids=["near", "above", "far"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_excluded_views_never_move_a_pattern_bit(self, layers, scale):
        # rows 0 and 1 agree on views 0-2 and differ on view 3: at -8 its
        # token logits in row 1 are the row's largest, and at 1e4 they leave
        # the shared shift's bound; all 15 patterns in one call, and each
        # pattern that excludes view 3 gives both rows the same bits
        m, d = 4, 8
        rng = np.random.default_rng(40 + layers)
        cross = CrossAttentionFusion(m, d, self.cfg(layers=layers), rng)
        data = [rng.normal(size=(1, d)) for _ in range(m)]
        rows = [Tensor(np.concatenate([x, x])) for x in data[:3]]
        rows.append(Tensor(np.concatenate([data[3], scale * rng.normal(size=(1, d))])))
        available = pattern_matrix(enumerate_combinations(m), m)
        fused = cross.fuse(rows, available).data
        without = ~available[:, 3]
        assert np.array_equal(fused[without, 0], fused[without, 1])
        assert not np.array_equal(fused[~without, 0], fused[~without, 1])

    def test_scaling_flag_reaches_every_block(self):
        # without scaling the logits are the plain q.k; dividing W_Q by
        # sqrt(d / heads) restores the scaled fusion built from the same seed
        m, d, heads = 3, 8, 2
        scaled = CrossAttentionFusion(m, d, self.cfg(heads=heads, layers=2),
                                      np.random.default_rng(9))
        cfg = FusionConfig(kind="cross", heads=heads, layers=2, dropout=0.0,
                           attention_scaling=False)
        plain = CrossAttentionFusion(m, d, cfg, np.random.default_rng(9))
        assert [block.scale for block in plain.blocks] == [1.0, 1.0]
        for block in plain.blocks:
            block.W_Q.data = block.W_Q.data / np.sqrt(d // heads)
        rows = rows_for(m, d, np.random.default_rng(10), (0, 1, 2), batch=3)
        available = pattern_matrix(enumerate_combinations(m), m)
        np.testing.assert_allclose(plain.fuse(rows, available).data,
                                   scaled.fuse(rows, available).data, rtol=0, atol=1e-12)

    def test_stacked_layers_run(self):
        rng = np.random.default_rng(4)
        cross = CrossAttentionFusion(3, 8, self.cfg(layers=2), rng)
        out = cross.fuse(rows_for(3, 8, rng, (0, 1), batch=4))
        assert out.shape == (4, 8)


class TestMemory:
    def cfg(self, layers=2, permute=False):
        return FusionConfig(kind="memory", layers=layers, dropout=0.0, permute=permute)

    def test_single_view_matches_bidirectional_cell_oracle(self):
        rng = np.random.default_rng(0)
        memory = MemoryFusion(6, self.cfg(layers=1), rng)
        z = rng.normal(size=(1, 6))
        out = memory.fuse([Tensor(z), None, None]).data

        def run(cell, x):
            h = np.zeros((1, 3))
            c = np.zeros((1, 3))
            got_h, _ = cell.step(Tensor(x), Tensor(h), Tensor(c))
            return got_h.data

        expected = np.concatenate(
            [run(memory.forward_cells[0], z), run(memory.backward_cells[0], z)], axis=1)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_order_sensitivity_witness(self):
        rng = np.random.default_rng(1)
        memory = MemoryFusion(6, self.cfg(), rng)
        vals = [rng.normal(size=(1, 6)) for _ in range(3)]
        forward = memory.fuse([Tensor(v) for v in vals]).data
        reversed_ = memory.fuse([Tensor(v) for v in vals[::-1]]).data
        assert not np.allclose(forward, reversed_)

    @pytest.mark.parametrize("mask", [(0,), (0, 2), (0, 1, 2)])
    def test_output_width_for_any_subset(self, mask):
        rng = np.random.default_rng(2)
        memory = MemoryFusion(6, self.cfg(), rng)
        out = memory.fuse(rows_for(3, 6, rng, mask, batch=2))
        assert out.shape == (2, 6)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            MemoryFusion(5, self.cfg(), np.random.default_rng(0))

    def test_permutation_is_drawn_per_pattern_in_pattern_order(self):
        rng = np.random.default_rng(4)
        memory = MemoryFusion(6, self.cfg(permute=True), rng)
        rows = rows_for(3, 6, rng, (0, 1, 2), batch=2)
        available = pattern_matrix([(0, 1, 2), (0, 2), (1, 2)], 3)
        fused = memory.fuse(rows, available, rng=np.random.default_rng(5))
        twin = np.random.default_rng(5)
        for pattern, got in zip(available, fused.data):
            views = np.flatnonzero(pattern)
            order = views[twin.permutation(len(views))]
            # without dropout, train mode only permutes; evaluation feeds the
            # rows in list order
            expected = memory.fuse([rows[v] for v in order]).data
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def chained_memory(fusion, rows, patterns, rng=None):
    """Memory fusion's fused rows (K, B, d) as it ran before its later layers
    became one node: each pattern draws its permutation, then its masks; per
    group of equally long patterns, each later layer is one ``lstm_scan``
    chain per direction, whose inputs come from the first layer's tables by
    one-hot products and ``concat`` and meet their dropout in ``mul`` nodes."""
    batch = next(r.shape[0] for r in rows if r is not None)
    later = len(fusion.forward_cells) - 1
    seqs, masks = [], []
    for pattern in patterns:
        seq = np.flatnonzero(pattern)
        if fusion.permute and rng is not None:
            seq = seq[rng.permutation(len(seq))]
        seqs.append(tuple(seq.tolist()))
        masks.append(fusion.dropout.mask((later, len(seq), batch, fusion.d), rng)
                     if later else None)
    groups = [members for members, _ in tensor_module.pattern_groups(patterns)]
    fwd_at, fwd = fusion_module._prefix_states(fusion.forward_cells[0], rows, seqs)
    bwd_at, bwd = fusion_module._prefix_states(fusion.backward_cells[0], rows,
                                               [q[::-1] for q in seqs])
    select = fusion_module._select
    outs = []
    for members in groups:
        group = [seqs[k] for k in members]
        s = len(group[0])
        positions = [(s - 1, 0)] if later == 0 else [(t, t) for t in range(s)]
        seq = [concat([select(fwd[i + 1], [fwd_at[i + 1][q[:i + 1]] for q in group], batch),
                       select(bwd[s - j], [bwd_at[s - j][q[j:][::-1]] for q in group], batch)],
                      axis=-1)
               for i, j in positions]
        for layer in range(1, later + 1):
            if masks[0] is not None:
                keep = np.concatenate([masks[k][layer - 1] for k in members], axis=1)
                seq = [x * Tensor(keep[t]) for t, x in enumerate(seq)]
            fw, bw = fusion.forward_cells[layer], fusion.backward_cells[layer]
            out_fwd = lstm_scan(seq, fw.W, fw.b)
            out_bwd = lstm_scan(seq[::-1], bw.W, bw.b)
            seq = [concat([f, b], axis=-1) for f, b in zip(out_fwd, out_bwd[::-1])]
        # the last layer's forward h after the last view beside the backward h after the first
        outs.append(seq[0] if later == 0 else concat([seq[-1][:, :fusion.d // 2],
                                                      seq[0][:, fusion.d // 2:]], axis=-1))
    return fusion_module._ungroup(outs, groups, batch).reshape((len(patterns), batch, fusion.d))


class TestMemoryLayers:
    """The later layers of a pattern group as one ``bilstm_layers`` node
    against the per-layer ``lstm_scan`` chains they replace."""

    @staticmethod
    def fused_and_grads(fuse, params, readout):
        for p in params:
            p.grad = None
        fused = fuse()
        backward((fused * Tensor(readout)).sum(), params)
        return fused.data, [p.grad for p in params]

    @pytest.mark.parametrize("dropout", [0.0, 0.3], ids=["no-dropout", "dropout"])
    @pytest.mark.parametrize("permute", [False, True], ids=["ordered", "permute"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_the_per_layer_chains(self, layers, permute, dropout):
        # outputs and every row and parameter gradient within 1e-12 relative,
        # recorded and unrecorded, with the 15 patterns of four views in
        # enumeration order (groups drawn one after another) and shuffled
        m, d, batch = 4, 6, 3
        rng = np.random.default_rng(40 + layers)
        fusion = make_fusion(FusionConfig(kind="memory", layers=layers, dropout=dropout,
                                          permute=permute), m, d, rng)
        rows = [Tensor(rng.normal(size=(batch, d)), requires_grad=True) for _ in range(m)]
        params = rows + fusion.parameters()
        available = pattern_matrix(enumerate_combinations(m), m)
        for patterns in (available, available[rng.permutation(len(available))]):
            readout = rng.normal(size=(len(patterns), batch, d))
            got, got_grads = self.fused_and_grads(
                lambda: fusion.fuse(rows, patterns, rng=np.random.default_rng(7)), params, readout)
            want, want_grads = self.fused_and_grads(
                lambda: chained_memory(fusion, rows, patterns, np.random.default_rng(7)),
                params, readout)
            assert_relative(got, want)
            for g, w in zip(got_grads, want_grads):
                assert_relative(g, w)
            with no_grad():
                unrecorded = fusion.fuse(rows, patterns, rng=np.random.default_rng(7))
                oracle = chained_memory(fusion, rows, patterns, np.random.default_rng(7))
            assert not unrecorded.requires_grad
            np.testing.assert_array_equal(unrecorded.data, got)
            assert_relative(unrecorded.data, oracle.data)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_unrecorded_fuses_are_bit_identical(self, layers):
        # each call takes its scratch afresh, so nothing carries over from a
        # call over other patterns and batch in between; one layer runs
        # lstm_scan's scratch alone, more also bilstm_layers'
        m, d = 5, 8
        rng = np.random.default_rng(44)
        fusion = make_fusion(FusionConfig(kind="memory", layers=layers, dropout=0.3), m, d, rng)
        rows = rows_for(m, d, rng, range(m), batch=4)
        other = rows_for(m, d, rng, range(m), batch=7)
        available = pattern_matrix(enumerate_combinations(m), m)
        with no_grad():
            first = fusion.fuse(rows, available).data
            fusion.fuse(other, available[::-1], rng=np.random.default_rng(1))
            second = fusion.fuse(rows, available).data
        np.testing.assert_array_equal(first, second)


def concat_input(views, pattern):
    """What InputConcatModel's MLP reads under the boolean ``pattern`` for a
    static view of 3 channels followed by a temporal view of 5 steps x 1
    channel."""
    specs = [ViewSpec(id="a", kind="static", channels=3),
             ViewSpec(id="b", kind="temporal", time_steps=5, channels=1)]
    model = InputConcatModel(specs, EncoderConfig(latent_dim=4, layers=1, dropout=0.0),
                             "regression", 1, np.random.default_rng(0))
    seen = []
    encoder = model.encoder
    model.encoder = lambda x, rng=None: seen.append(x.data) or encoder(x, rng=rng)
    model.forward_masked(views, np.array(pattern))
    return seen[0]


class TestConcat:
    def test_full_mask_is_plain_concatenation(self):
        a = np.ones((2, 3))
        b = np.full((2, 5, 1), 2.0)
        out = concat_input({"a": a, "b": b}, [True, True])
        np.testing.assert_array_equal(out, np.concatenate([a, b[:, :, 0]], axis=1))

    def test_missing_slot_is_zeros(self):
        # the missing view's data is never read, so not even NaN reaches the model
        b = np.full((2, 5, 1), 2.0)
        out = concat_input({"a": np.full((2, 3), np.nan), "b": b}, [False, True])
        np.testing.assert_array_equal(out[:, :3], np.zeros((2, 3)))
        np.testing.assert_array_equal(out[:, 3:], b[:, :, 0])

    @pytest.mark.parametrize("mask", [[True, True], [True, False], [False, True]])
    def test_fixed_output_length(self, mask):
        views = {"a": np.ones((4, 3)), "b": np.ones((4, 5, 1))}
        assert concat_input(views, mask).shape == (4, 8)

    def test_feature_level_module(self):
        rng = np.random.default_rng(0)
        fusion = ConcatFusion(3, 4)
        rows = rows_for(3, 4, rng, (0, 2), batch=2)
        out = fusion.fuse(rows)
        assert out.shape == (2, 12)
        np.testing.assert_array_equal(out.data[:, 4:8], np.zeros((2, 4)))


class TestGeneratorIsTrainMode:
    """A forward given a generator is a training forward and draws its
    dropout; one without is an evaluation forward."""

    @staticmethod
    def model(kind, level, dropout):
        specs = [ViewSpec(id="a", kind="temporal", time_steps=4, channels=2),
                 ViewSpec(id="b", kind="static", channels=3),
                 ViewSpec(id="c", kind="categorical", cardinality=3)]
        rates = {} if dropout else {"dropout": 0.0}
        return build_model(specs, EncoderConfig(latent_dim=8, **rates),
                           FusionConfig(kind=kind, heads=2, **rates), "regression", 1, level,
                           np.random.default_rng(0))

    @pytest.mark.parametrize("kind, level", [(kind, "feature") for kind in FUSION_KINDS]
                             + [("concat", "input")])
    def test_only_a_generator_draws(self, kind, level):
        rng = np.random.default_rng(4)
        views = {"a": rng.normal(size=(5, 4, 2)), "b": rng.normal(size=(5, 3)),
                 "c": rng.integers(0, 3, size=5)}
        available = pattern_matrix(enumerate_combinations(3), 3)
        # every rate 0 and no permutation: the generator is never drawn from
        still, g = self.model(kind, level, dropout=False), np.random.default_rng(5)
        state = g.bit_generator.state
        assert np.array_equal(still.forward_masks(views, available, rng=g).data,
                              still.forward_masks(views, available).data)
        assert g.bit_generator.state == state
        # the default rates: a generator makes the forward drop
        model = self.model(kind, level, dropout=True)
        assert not np.array_equal(model.forward_masks(views, available, rng=g).data,
                                  model.forward_masks(views, available).data)


ALL_DYNAMIC = ["average", "gated", "cross", "memory"]


def build_fusion(kind, m, d, rng):
    cfg = FusionConfig(kind=kind, heads=2, dropout=0.0)
    return make_fusion(cfg, m, d, rng)


class TestIgnoreMissingEquivalence:
    """A masked model ignores the data of missing views entirely: replacing
    that data with garbage cannot change the output."""

    @pytest.mark.parametrize("kind", ALL_DYNAMIC)
    def test_all_masks_over_four_views(self, kind):
        from mvfuse.encoders import EncoderConfig, ViewSpec
        from mvfuse.model import FeatureFusionModel

        m, d = 4, 8
        rng = np.random.default_rng(5)
        specs = [ViewSpec(id=f"v{i}", kind="static", channels=3) for i in range(m)]
        model = FeatureFusionModel(
            specs, EncoderConfig(latent_dim=d, layers=1, dropout=0.0),
            FusionConfig(kind=kind, heads=2, dropout=0.0), "regression", 1, rng)
        data_rng = np.random.default_rng(6)
        views = {f"v{i}": data_rng.normal(size=(3, 3)) for i in range(m)}
        for r in range(1, m + 1):
            for mask in itertools.combinations(range(m), r):
                pattern = pattern_matrix([mask], m)[0]
                clean = model.forward_masked(views, pattern).data
                poisoned = {
                    vid: arr if int(vid[1]) in mask else arr * 1e6 + 123.0
                    for vid, arr in views.items()}
                dirty = model.forward_masked(poisoned, pattern).data
                assert np.max(np.abs(clean - dirty)) <= 1e-12
                assert np.array_equal(clean, dirty)

    @pytest.mark.parametrize("kind", ALL_DYNAMIC)
    def test_fused_width_is_d_for_every_mask(self, kind):
        m, d = 4, 8
        rng = np.random.default_rng(6)
        fusion = build_fusion(kind, m, d, rng)
        for r in range(1, m + 1):
            for mask in itertools.combinations(range(m), r):
                out = fusion.fuse(rows_for(m, d, rng, mask))
                assert out.shape == (1, d)
        assert fused_width(FusionConfig(kind=kind, heads=2), m, d) == d

    def test_empty_mask_rejected(self):
        rng = np.random.default_rng(7)
        for kind in ALL_DYNAMIC:
            fusion = build_fusion(kind, 3, 8, rng)
            with pytest.raises(ValueError):
                fusion.fuse([None, None, None])


class TestFusionGradients:
    @pytest.mark.parametrize("kind", ALL_DYNAMIC + ["concat"])
    def test_gradients_flow_through_masked_path(self, kind):
        m, d = 3, 4
        rng = np.random.default_rng(8)
        fusion = build_fusion(kind, m, d, rng)
        rows = [Tensor(rng.uniform(-1, 1, (2, d)), requires_grad=True), None,
                Tensor(rng.uniform(-1, 1, (2, d)), requires_grad=True)]
        params = {f"z{i}": r for i, r in enumerate(rows) if r is not None}
        params.update(dict(fusion.named_parameters("f")))

        def loss():
            out = fusion.fuse(rows)
            return (out * out).sum() * 0.5

        errs = check_gradients(loss, params)
        assert max(errs.values()) < 1e-4, errs

    @pytest.mark.parametrize("kind, layers", [(kind, None) for kind in ALL_DYNAMIC + ["concat"]]
                             + [("cross", 2)], ids=ALL_DYNAMIC + ["concat", "cross-2-layers"])
    def test_gradients_flow_through_mixed_patterns(self, kind, layers):
        # two-layer cross folds the patterns into its first layer's query axis
        m, d = 3, 4
        rng = np.random.default_rng(9)
        fusion = make_fusion(FusionConfig(kind=kind, heads=2, layers=layers, dropout=0.0),
                             m, d, rng)
        rows = [Tensor(rng.uniform(-1, 1, (2, d)), requires_grad=True) for _ in range(m)]
        available = pattern_matrix([(0, 2), (1,), (0, 1, 2)], m)
        params = {f"z{i}": r for i, r in enumerate(rows)}
        params.update(dict(fusion.named_parameters("f")))

        def loss():
            out = fusion.fuse(rows, available)
            return (out * out).sum() * 0.5

        errs = check_gradients(loss, params)
        assert max(errs.values()) < 1e-4, errs


def dropout_fusion(kind, m, d, rng):
    """A fusion whose train-time forward draws from the generator: attention
    and inter-layer dropout at two layers, memory with permutation too."""
    layers = 2 if kind in ("cross", "memory") else None
    return make_fusion(FusionConfig(kind=kind, heads=2, layers=layers, dropout=0.3,
                                    permute=kind == "memory"), m, d, rng)


class TestPatterns:
    """One fuse call over many availability patterns equals one call per
    pattern, draws from the generator included."""

    @staticmethod
    def assert_matches_one_call_per_pattern(fusion, rows, available, rng):
        """Train-time outputs (1e-12) and gradients (1e-10) of one call equal
        those of one call per pattern drawing from the same generator."""
        params = rows + fusion.parameters()
        fused = fusion.fuse(rows, available, rng=np.random.default_rng(11))
        readout = rng.normal(size=fused.shape)
        grads = backward((fused * Tensor(readout)).sum(), params)

        oracle_rng = np.random.default_rng(11)
        oracle = stack([fusion.fuse([r if on else None for r, on in zip(rows, pattern)],
                                    rng=oracle_rng)
                        for pattern in available])
        for p in params:
            p.grad = None
        oracle_grads = backward((oracle * Tensor(readout)).sum(), params)

        assert fused.shape == oracle.shape
        np.testing.assert_allclose(fused.data, oracle.data, rtol=0, atol=1e-12)
        for got, expected in zip(grads, oracle_grads):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kind", ALL_DYNAMIC + ["concat"])
    def test_all_patterns_match_one_call_per_pattern(self, kind):
        m, d = 3, 4
        rng = np.random.default_rng(10)
        fusion = dropout_fusion(kind, m, d, rng)
        rows = [Tensor(rng.normal(size=(5, d)), requires_grad=True) for _ in range(m)]
        self.assert_matches_one_call_per_pattern(
            fusion, rows, pattern_matrix(enumerate_combinations(m), m), rng)

    @pytest.mark.parametrize("permute", [False, True], ids=["ordered", "permute"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_memory_in_any_pattern_order_matches_one_call_per_pattern(self, layers, permute):
        # all 31 patterns of five views out of size order, as predict sends them
        m, d = 5, 4
        rng = np.random.default_rng(20 + layers)
        fusion = make_fusion(FusionConfig(kind="memory", layers=layers, dropout=0.3,
                                          permute=permute), m, d, rng)
        rows = [Tensor(rng.normal(size=(3, d)), requires_grad=True) for _ in range(m)]
        available = pattern_matrix(enumerate_combinations(m), m)
        self.assert_matches_one_call_per_pattern(
            fusion, rows, available[rng.permutation(len(available))], rng)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_cross_in_any_pattern_order_matches_one_call_per_pattern(self, layers):
        # all 15 patterns of four views out of size order, as predict sends
        # them; the first layer lays them out on its query axis
        m, d = 4, 4
        rng = np.random.default_rng(30 + layers)
        fusion = make_fusion(FusionConfig(kind="cross", heads=2, layers=layers, dropout=0.3),
                             m, d, rng)
        rows = [Tensor(rng.normal(size=(3, d)), requires_grad=True) for _ in range(m)]
        available = pattern_matrix(enumerate_combinations(m), m)
        self.assert_matches_one_call_per_pattern(
            fusion, rows, available[rng.permutation(len(available))], rng)

    @staticmethod
    def recorded_cross_nodes(monkeypatch):
        """The (op, shape) of every node recorded by one train-time one-layer
        cross ``fuse`` with a 3-output head over the 127 patterns of seven
        views, and its dimensions."""
        m, d, heads, batch, n_out = 7, 16, 4, 3, 3
        rng = np.random.default_rng(15)
        fusion = make_fusion(FusionConfig(kind="cross", heads=heads, layers=1, dropout=0.3),
                             m, d, rng)
        head = Affine(d, n_out, rng)
        available = pattern_matrix(enumerate_combinations(m), m)
        nodes = []
        result = Tensor._result

        def recorded(data, parents, backward, op):
            out = result(data, parents, backward, op)
            if out.requires_grad:
                nodes.append((op, np.shape(data)))
            return out

        monkeypatch.setattr(Tensor, "_result", staticmethod(recorded))
        rows = [Tensor(rng.normal(size=(batch, d)), requires_grad=True) for _ in range(m)]
        fused = fusion.fuse(rows, available, rng=np.random.default_rng(16), head=head)
        assert fused.shape == (len(available), batch, n_out)
        return nodes, (len(available), batch, heads, n_out)

    def test_cross_lays_the_patterns_on_the_query_axis(self, monkeypatch):
        # one attention node per layer, the patterns on the first layer's
        # query axis: its output is (B, heads, K, 1, n_out), the head folded
        # into the values, with no (K, B, heads, ...) node broadcast over the
        # patterns
        nodes, (patterns, batch, heads, n_out) = self.recorded_cross_nodes(monkeypatch)
        attention = [shape for op, shape in nodes if op == "attention"]
        assert attention == [(batch, heads, patterns, 1, n_out)]
        broadcast = [(op, shape) for op, shape in nodes
                     if len(shape) == 5 and shape[0] == patterns and shape[1:3] == (batch, heads)]
        assert not broadcast, broadcast

    def test_one_layer_cross_records_a_fixed_node_count(self, monkeypatch):
        # the sequence: the token row (4 nodes), each of the 7 views plus its
        # positional row (2 each) and their stack (1); the layer: the token's
        # query row (1), Q and K projections split into heads (3 each), the
        # head folded into W_V (6), the values split into heads (3), the
        # attention node (1), the heads summed and the patterns moved to the
        # front (3) and the head's bias (1): 40 nodes for all 127 patterns
        nodes, _ = self.recorded_cross_nodes(monkeypatch)
        assert len(nodes) == 40, nodes

    def test_memory_steps_each_prefix_and_pattern_length_once(self, monkeypatch):
        # the 127 patterns of seven views: the first layer steps each distinct
        # prefix (and suffix) once, as one lstm_scan node per direction with a
        # step per length; the second steps each group of equally long
        # patterns as one bilstm_layers node, with no matmul, concat or mul
        # node between the layers; one concat joins the groups: 25 nodes
        m, d, batch = 7, 4, 2
        rng = np.random.default_rng(22)
        fusion = make_fusion(FusionConfig(kind="memory", layers=2, dropout=0.3), m, d, rng)
        first = {id(fusion.forward_cells[0].W), id(fusion.backward_cells[0].W)}
        scans, nodes = [], []

        def counted_scan(xs, W, b, inputs=None, parents=None, state=None):
            steps = [[t] for t in range(len(xs))] if inputs is None else inputs
            scans.append((id(W) in first, len(steps), sum(map(len, steps)) * batch))
            return lstm_scan(xs, W, b, inputs, parents, state)

        result = Tensor._result

        def recorded(data, parents, backward, op):
            out = result(data, parents, backward, op)
            if out.requires_grad:
                nodes.append((op, np.shape(data)))
            return out

        # LSTMCell.step is a one-step scan too, so a stepped cell adds to the count
        monkeypatch.setattr(fusion_module, "lstm_scan", counted_scan)
        monkeypatch.setattr(layers_module, "lstm_scan", counted_scan)
        monkeypatch.setattr(Tensor, "_result", staticmethod(recorded))
        rows = [Tensor(rng.normal(size=(batch, d)), requires_grad=True) for _ in range(m)]
        available = pattern_matrix(enumerate_combinations(m), m)
        fusion.fuse(rows, available, rng=np.random.default_rng(23))

        assert scans == [(True, m, 127 * batch)] * 2
        ops = [op for op, _ in nodes]
        assert len(nodes) == 25, nodes
        assert sorted(set(ops)) == ["bilstm_layers", "concat", "lstm_scan", "lstm_scan_h",
                                    "reshape"]
        assert ops.count("lstm_scan") == 2 and ops.count("concat") == 1
        # one node per group of the patterns with s views, C(7, s) of them
        assert [shape for op, shape in nodes if op == "bilstm_layers"] == [
            (math.comb(m, s) * batch, d) for s in range(m, 0, -1)]

    @pytest.mark.parametrize("kind, m, permute, draws", [
        pytest.param("memory", 7, False, 1, id="memory-7"),
        pytest.param("memory", 7, True, 127, id="memory-permute-7"),
        pytest.param("cross", 3, False, 1, id="cross-3")])
    def test_each_pattern_draws_its_dropout_once(self, spy, kind, m, permute, draws):
        # memory draws the numbers of every pattern, later layer and position
        # once per call, or with permute once per pattern after its
        # permutation (127 draws over seven views, not one per view slot,
        # 448); two-layer cross draws once per call, all 7 patterns' numbers
        # for both layers; the tests above pin the numbers drawn
        rng = np.random.default_rng(13)
        fusion = make_fusion(FusionConfig(kind=kind, heads=2, layers=2, dropout=0.3,
                                          permute=permute), m, 4, rng)
        calls = spy((layers_module.Dropout, "draw"))
        available = pattern_matrix(enumerate_combinations(m), m)
        fusion.fuse(rows_for(m, 4, rng, range(m), batch=2), available,
                    rng=np.random.default_rng(14))
        assert sum(calls.values()) == draws

    @pytest.mark.parametrize("kind", ALL_DYNAMIC + ["concat"])
    def test_leading_axes_of_availability_shape_the_output(self, kind):
        m, d = 3, 4
        rng = np.random.default_rng(12)
        fusion = build_fusion(kind, m, d, rng)
        rows = rows_for(m, d, rng, (0, 1, 2), batch=2)
        available = pattern_matrix(enumerate_combinations(m)[:6], m)
        flat = fusion.fuse(rows, available).data
        shaped = fusion.fuse(rows, available.reshape(2, 3, m)).data
        assert shaped.shape == (2, 3) + flat.shape[1:]
        np.testing.assert_array_equal(shaped.reshape(flat.shape), flat)

    @pytest.mark.parametrize("kind", ALL_DYNAMIC + ["concat"])
    def test_rows_of_unequal_batch_rejected(self, kind):
        rng = np.random.default_rng(15)
        fusion = build_fusion(kind, 3, 4, rng)
        rows = [Tensor(rng.normal(size=(2, 4))), None, Tensor(rng.normal(size=(3, 4)))]
        with pytest.raises(ValueError, match="view 2 has 3 rows, view 0 has 2"):
            fusion.fuse(rows)

    def test_unused_view_may_have_no_row(self):
        rng = np.random.default_rng(13)
        fusion = build_fusion("gated", 3, 4, rng)
        rows = rows_for(3, 4, rng, (0, 2), batch=2)
        out = fusion.fuse(rows, pattern_matrix([(0,), (0, 2)], 3))
        assert out.shape == (2, 2, 4)
        with pytest.raises(ValueError, match="view 1 is available"):
            fusion.fuse(rows, pattern_matrix([(0, 1)], 3))

    @pytest.mark.parametrize("available", [np.zeros((2, 3), dtype=bool),
                                           np.ones((2, 4), dtype=bool),
                                           np.ones((2, 3), dtype=int), (0, 1, 2)],
                             ids=["empty-pattern", "wrong-width", "int-array", "index-tuple"])
    def test_bad_availability_rejected(self, available):
        rng = np.random.default_rng(14)
        fusion = build_fusion("average", 3, 4, rng)
        with pytest.raises(ValueError):
            fusion.fuse(rows_for(3, 4, rng, (0, 1, 2)), available)


def relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def average_oracle(rows, patterns):
    """Average without a head as one (K, u) @ (u, B*d) product of weights
    1/|pattern| over the used views, the rows mixed directly."""
    used = np.flatnonzero(patterns.any(axis=0))
    on = patterns[:, used]
    z = stack([rows[v] for v in used])
    u, batch, d = z.shape
    mixed = Tensor(on / on.sum(axis=1, keepdims=True)) @ z.reshape((u, batch * d))
    return mixed.reshape((len(patterns), batch, d))


def concat_oracle(rows, patterns):
    """Concat without a head: the zero-filled concatenation of the views'
    rows times each pattern's (1, m*d) mask."""
    batch, d = next(r.shape for r in rows if r is not None)
    zero = Tensor(np.zeros((batch, d)))
    flat = concat([zero if r is None else r for r in rows], axis=-1)
    return flat * Tensor(np.repeat(patterns, d, axis=1)[:, None, :].astype(float))


ORACLES = {"average": average_oracle, "concat": concat_oracle}


def oracle_fuse(kind, rows, available):
    """The no-head oracle of ``kind`` over a (..., m) availability, by default
    the views that have a row, shaped as ``fuse`` shapes its output."""
    if available is None:
        available = np.array([r is not None for r in rows])
    out = ORACLES[kind](rows, available.reshape(-1, len(rows)))
    return out.reshape(available.shape[:-1] + out.shape[1:])


ALL_SEVEN = pattern_matrix(enumerate_combinations(7), 7)
# (m, the views with a row, availability) of average's and concat's folds
FOLD_CASES = {
    # all 127 patterns of seven views, in order and shuffled
    "all-patterns": (7, range(7), ALL_SEVEN),
    "shuffled": (7, range(7), ALL_SEVEN[np.random.default_rng(7).permutation(127)]),
    # a leading (S, N, m) availability, one (N, m) matrix per scenario
    "leading-axes": (3, range(3),
                     pattern_matrix(enumerate_combinations(3)[:6], 3).reshape(2, 3, 3)),
    # view 1 has no row, since no pattern uses it
    "unused-view": (4, (0, 2, 3), pattern_matrix([(0,), (0, 3), (2, 3), (0, 2, 3)], 4)),
    # fuse(rows): the one pattern of the views that have a row
    "rows-only": (3, (0, 2), None),
}


class TestNoHeadFold:
    """Without a head, average mixes the rows under its 1/|pattern| weights
    and concat folds the identity's row blocks, which gives the mean and the
    zero-filled concatenation of the oracles above bit for bit."""

    @pytest.mark.parametrize("kind", ["average", "concat"])
    @pytest.mark.parametrize("case", list(FOLD_CASES))
    def test_values_and_row_gradients_match_the_oracle(self, kind, case):
        m, present, available = FOLD_CASES[case]
        d, batch = 4, 3
        rng = np.random.default_rng(42)
        fusion = build_fusion(kind, m, d, rng)
        rows = [Tensor(rng.normal(size=(batch, d)), requires_grad=True) if v in present
                else None for v in range(m)]
        params = [r for r in rows if r is not None]
        fused = fusion.fuse(rows, available)
        want = oracle_fuse(kind, rows, available)
        assert fused.shape == want.shape
        assert np.array_equal(fused.data, want.data)
        with no_grad():
            assert np.array_equal(fusion.fuse(rows, available).data, want.data)

        readout = Tensor(rng.normal(size=fused.shape))
        grads = backward((fused * readout).sum(), params)
        for p in params:
            p.grad = None
        expected = backward((want * readout).sum(), params)
        for got, oracle in zip(grads, expected):
            if kind == "average":  # the oracle's own product
                assert np.array_equal(got, oracle)
            else:  # a BLAS product sums over the patterns, the oracle numpy's
                # sum over axis 0, in another order: 9.1e-16 at most over 300 seeds
                assert relative(got, oracle) <= 4e-15


def unfolded_cross(fusion, rows, available, rng, head=None):
    """Cross fusion with an unfolded final layer: every layer attends, the
    final one on the token's queries alone, then the token's (K, B, d) rows
    are taken and the head, if any, applied to them; shaped as ``fuse``
    shapes its output."""
    if available is None:
        available = np.array([r is not None for r in rows])
    _, z, keys = fusion._sequence(rows, available.reshape(-1, len(rows)))
    keeps = fusion._keep_masks(keys, z.shape[0], rng)
    exclude = ~keys[:, None, None, None, :]
    last = len(fusion.blocks) - 1
    for i, (block, keep) in enumerate(zip(fusion.blocks, keeps)):
        z = block.attend(z, exclude=exclude, keep=keep, first_row=i == last)
    out = z[..., 0, :] if head is None else head(z[..., 0, :])
    return out.reshape(available.shape[:-1] + out.shape[1:])


class TestHeadFold:
    """Average and concat fold the head into their per-view products, cross
    into its final layer's value projection: the outputs and gradients of
    ``fuse(..., head=head)`` equal those of the head on the no-head oracles,
    and for cross on the unfolded final layer's token rows."""

    @pytest.mark.parametrize("kind", ["average", "concat"])
    @pytest.mark.parametrize("case", list(FOLD_CASES))
    def test_fold_matches_head_of_fused_rows(self, kind, case):
        m, present, available = FOLD_CASES[case]
        d, batch = 4, 3
        rng = np.random.default_rng(40)
        fusion = build_fusion(kind, m, d, rng)
        head = Affine(fused_width(FusionConfig(kind=kind), m, d), 3, rng)
        rows = [Tensor(rng.normal(size=(batch, d)), requires_grad=True) if v in present
                else None for v in range(m)]
        params = [r for r in rows if r is not None] + head.parameters()
        folded = fusion.fuse(rows, available, head=head)
        readout = Tensor(rng.normal(size=folded.shape))
        grads = backward((folded * readout).sum(), params)
        for p in params:
            p.grad = None
        plain = head(oracle_fuse(kind, rows, available))
        want = backward((plain * readout).sum(), params)

        assert folded.shape == plain.shape
        assert relative(folded.data, plain.data) <= 1e-12
        for got, expected in zip(grads, want):
            assert relative(got, expected) <= 1e-10

    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("case", list(FOLD_CASES))
    def test_cross_fold_matches_head_of_the_token_rows(self, case, layers, heads, dropout):
        m, present, available = FOLD_CASES[case]
        d, batch = 4, 3
        rng = np.random.default_rng(43)
        fusion = make_fusion(FusionConfig(kind="cross", heads=heads, layers=layers,
                                          dropout=dropout), m, d, rng)
        rows = [Tensor(rng.normal(size=(batch, d)), requires_grad=True) if v in present
                else None for v in range(m)]
        for head in (Affine(d, 3, rng), None):
            params = ([r for r in rows if r is not None] + fusion.parameters()
                      + ([] if head is None else head.parameters()))
            for p in params:
                p.grad = None
            folded = fusion.fuse(rows, available, rng=np.random.default_rng(44), head=head)
            readout = Tensor(rng.normal(size=folded.shape))
            grads = backward((folded * readout).sum(), params)
            for p in params:
                p.grad = None
            plain = unfolded_cross(fusion, rows, available, np.random.default_rng(44), head)
            want = backward((plain * readout).sum(), params)

            assert folded.shape == plain.shape
            assert relative(folded.data, plain.data) <= 1e-12
            # a gradient near zero (the final layer's W_K, whose logits'
            # gradient cancels) is only ~1e-12 of its own largest entry
            # apart, but within 1e-12 of the largest entry of any gradient
            scale = max(np.max(np.abs(expected)) for expected in want)
            for got, expected in zip(grads, want):
                assert relative(got, expected) <= 1e-10
                assert np.max(np.abs(got - expected)) <= 1e-12 * scale

    def test_concat_com_step_never_builds_the_stack(self, monkeypatch):
        # the head is folded, so an m = 7 concat step has no zero-filled
        # (127, B, 7 d) node, forward or as the product's operand
        from mvfuse.augmentation import AugPolicy
        from mvfuse.tensor import Adam
        from mvfuse.training import train_step

        m, d, batch = 7, 4, 5
        rng = np.random.default_rng(41)
        specs = [ViewSpec(id=f"v{i}", kind="static", channels=2) for i in range(m)]
        model = FeatureFusionModel(specs, EncoderConfig(latent_dim=d, layers=1, dropout=0.0),
                                   FusionConfig(kind="concat"), "regression", 1, rng)
        views = {spec.id: rng.normal(size=(batch, 2)) for spec in specs}
        shapes = []
        result = Tensor._result

        def recorded(data, parents, backward, op):
            shapes.append(np.shape(data))
            return result(data, parents, backward, op)

        monkeypatch.setattr(Tensor, "_result", staticmethod(recorded))
        train_step(model, views, rng.normal(size=batch), AugPolicy(kind="com"),
                   enumerate_combinations(m), Adam(model.parameters()), "regression", None,
                   np.random.default_rng(0), np.random.default_rng(0))

        assert (127, batch, 1) in shapes
        assert (127, batch, m * d) not in shapes

    def test_cross_com_step_never_builds_the_token_rows(self, monkeypatch):
        # the head is folded into the final layer's values, so an m = 7
        # cross step slices no (127, B, d) token rows out of the final
        # layer's output and runs no head over 127 * B rows
        from mvfuse.augmentation import AugPolicy
        from mvfuse.tensor import Adam
        from mvfuse.training import train_step

        m, d, batch = 7, 4, 5
        rng = np.random.default_rng(45)
        specs = [ViewSpec(id=f"v{i}", kind="static", channels=2) for i in range(m)]
        model = FeatureFusionModel(specs, EncoderConfig(latent_dim=d, layers=1, dropout=0.0),
                                   FusionConfig(kind="cross", heads=2), "classification", 3,
                                   rng)
        views = {spec.id: rng.normal(size=(batch, 2)) for spec in specs}
        nodes = []
        result = Tensor._result

        def recorded(data, parents, backward, op):
            nodes.append((op, np.shape(data)))
            return result(data, parents, backward, op)

        monkeypatch.setattr(Tensor, "_result", staticmethod(recorded))
        train_step(model, views, rng.integers(0, 3, size=batch), AugPolicy(kind="com"),
                   enumerate_combinations(m), Adam(model.parameters()), "classification",
                   None, np.random.default_rng(0), np.random.default_rng(0))

        ops = {op for op, _ in nodes}
        assert "attention" in ops and "cross_entropy" in ops
        pattern_rows = [(op, shape) for op, shape in nodes
                        if op in ("slice", "window_affine") and shape[:2] == (127, batch)]
        assert not pattern_rows, pattern_rows
