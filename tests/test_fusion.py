"""Merge functions: correctness of each kind and the ignore-missing guarantee."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfuse.encoders import EncoderConfig, ViewSpec
from mvfuse.augmentation import enumerate_combinations, pattern_matrix
from mvfuse.fusion import (AverageFusion, ConcatFusion, CrossAttentionFusion,
                           FusionConfig, GatedFusion, MemoryFusion, fused_width,
                           make_fusion)
from mvfuse.gradcheck import check_gradients
from mvfuse.layers import Affine
from mvfuse.model import FeatureFusionModel, InputConcatModel
from mvfuse import fusion as fusion_module
from mvfuse import layers as layers_module
from mvfuse.tensor import Tensor, backward, lstm_scan, stack


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

    def test_mix_normalizes_only_available_slots(self, monkeypatch):
        # 127 patterns of seven views have 448 available slots of 889
        normalized = []
        mix = fusion_module.softmax_mix

        def spied(logits, values):
            normalized.append(logits.size)
            return mix(logits, values)

        monkeypatch.setattr(fusion_module, "softmax_mix", spied)
        rng = np.random.default_rng(12)
        m, d, batch = 7, 8, 4
        gated = GatedFusion(m, d, rng)
        rows = [Tensor(rng.normal(size=(batch, d))) for _ in range(m)]
        available = pattern_matrix(enumerate_combinations(m), m)
        assert gated.fuse(rows, available).shape == (127, batch, d)
        assert sum(normalized) == 448 * batch * d


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
        fused = cross.fuse(rows, rng=np.random.default_rng(6), train=True).data
        twin = np.random.default_rng(6)
        token = np.tile(cross.token.data + cross.positional.data[0], (3, 1))
        z = Tensor(np.stack([token] + [rows[v].data + cross.positional.data[1 + v]
                                       for v in (0, 2, 3)], axis=1))
        for block in cross.blocks:
            z = block(z, rng=twin, train=True)
        np.testing.assert_allclose(fused, z.data[:, 0], rtol=0, atol=1e-12)

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
        fused = memory.fuse(rows, available, rng=np.random.default_rng(5), train=True)
        twin = np.random.default_rng(5)
        for pattern, got in zip(available, fused.data):
            views = np.flatnonzero(pattern)
            order = views[twin.permutation(len(views))]
            # without dropout, train mode only permutes; evaluation feeds the
            # rows in list order
            expected = memory.fuse([rows[v] for v in order]).data
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_train_time_permutation_needs_rng(self):
        rng = np.random.default_rng(3)
        memory = MemoryFusion(6, self.cfg(permute=True), rng)
        rows = rows_for(3, 6, rng, (0, 1, 2))
        with pytest.raises(ValueError):
            memory.fuse(rows, train=True)
        out = memory.fuse(rows, rng=np.random.default_rng(1), train=True)
        assert out.shape == (1, 6)


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
    model.encoder = lambda x, rng=None, train=False: (seen.append(x.data)
                                                      or encoder(x, rng=rng, train=train))
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
        fused = fusion.fuse(rows, available, rng=np.random.default_rng(11), train=True)
        readout = rng.normal(size=fused.shape)
        grads = backward((fused * Tensor(readout)).sum(), params)

        oracle_rng = np.random.default_rng(11)
        oracle = stack([fusion.fuse([r if on else None for r, on in zip(rows, pattern)],
                                    rng=oracle_rng, train=True)
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

    def test_cross_lays_the_patterns_on_the_query_axis(self, monkeypatch):
        # one (K, n) @ (n, d/heads) product per batch row and head, not one
        # (1, n) product per pattern on a broadcast leading axis
        m, d, heads, batch = 7, 16, 4, 3
        rng = np.random.default_rng(15)
        fusion = make_fusion(FusionConfig(kind="cross", heads=heads, layers=1, dropout=0.3),
                             m, d, rng)
        available = pattern_matrix(enumerate_combinations(m), m)
        patterns = len(available)
        shapes = []
        result = Tensor._result

        def recorded(data, parents, backward, op):
            shapes.append((op, np.shape(data)))
            return result(data, parents, backward, op)

        monkeypatch.setattr(Tensor, "_result", staticmethod(recorded))
        rows = [Tensor(rng.normal(size=(batch, d)), requires_grad=True) for _ in range(m)]
        fused = fusion.fuse(rows, available, rng=np.random.default_rng(16), train=True)

        assert fused.shape == (patterns, batch, d)
        assert ("matmul", (batch, heads, patterns, d // heads)) in shapes
        broadcast = [(op, shape) for op, shape in shapes
                     if len(shape) == 5 and shape[0] == patterns
                     and shape[1:3] == (batch, heads) and shape[3] == 1]
        assert not broadcast, broadcast

    def test_memory_steps_each_prefix_and_pattern_length_once(self, monkeypatch):
        # the 31 patterns of five views hold 80 view slots; the first layer
        # steps each of the 31 distinct prefixes (and suffixes) once, as one
        # lstm_scan node per direction with a step per length; the second
        # steps each pattern length as one chain node per direction, a step
        # per position: 1 + 2 + 3 + 4 + 5 = 15 steps over 80 row blocks
        m, batch = 5, 4
        rng = np.random.default_rng(22)
        fusion = make_fusion(FusionConfig(kind="memory", layers=2, dropout=0.0), m, 4, rng)
        keys = {id(cell.W): (layer, direction)
                for layer, cells in enumerate(zip(fusion.forward_cells, fusion.backward_cells))
                for direction, cell in enumerate(cells)}
        scans = []

        def counted_scan(xs, W, b, inputs=None, parents=None, last=False):
            steps = [[t] for t in range(len(xs))] if inputs is None else inputs
            n = next(x for x in xs if x is not None).shape[0]
            scans.append((keys[id(W)], len(steps), sum(map(len, steps)) * n))
            return lstm_scan(xs, W, b, inputs, parents, last)

        def one_step(*args):
            raise AssertionError("memory fusion made a one-step lstm node")

        monkeypatch.setattr(fusion_module, "lstm_scan", counted_scan)
        monkeypatch.setattr(layers_module, "lstm", one_step)
        rows = rows_for(m, 4, rng, range(m), batch=batch)
        fusion.fuse(rows, pattern_matrix(enumerate_combinations(m), m))

        assert len(scans) == 2 + 2 * m
        for direction in (0, 1):
            first = [(s, n) for key, s, n in scans if key == (0, direction)]
            later = [(s, n) for key, s, n in scans if key == (1, direction)]
            assert first == [(m, 31 * batch)]
            assert sorted(s for s, _ in later) == [1, 2, 3, 4, 5]
            assert sum(n for _, n in later) == 80 * batch

    @pytest.mark.parametrize("kind, m", [("memory", 7), ("cross", 3)])
    def test_each_pattern_draws_its_dropout_once(self, spy, kind, m):
        # one Dropout.mask call per pattern covers every layer and position:
        # 127 for memory over seven views, not one per view slot (448), and 7
        # for two-layer cross over three, not one per layer; the tests above
        # pin the numbers drawn
        rng = np.random.default_rng(13)
        fusion = make_fusion(FusionConfig(kind=kind, heads=2, layers=2, dropout=0.3), m, 4, rng)
        calls = spy((layers_module.Dropout, "mask"))
        available = pattern_matrix(enumerate_combinations(m), m)
        fusion.fuse(rows_for(m, 4, rng, range(m), batch=2), available,
                    rng=np.random.default_rng(14), train=True)
        assert sum(calls.values()) == len(available)

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


class TestHeadFold:
    """Average and concat fold the head into their per-view products: the
    outputs and gradients of ``fuse(..., head=head)`` equal those of
    ``head(fuse(...))``."""

    CASES = {
        # all 127 patterns of seven views
        "all-patterns": (7, (0, 1, 2, 3, 4, 5, 6),
                         pattern_matrix(enumerate_combinations(7), 7)),
        # a leading (S, N, m) availability, one (N, m) matrix per scenario
        "leading-axes": (3, (0, 1, 2),
                         pattern_matrix(enumerate_combinations(3)[:6], 3).reshape(2, 3, 3)),
        # view 1 has no row, since no pattern uses it
        "unused-view": (3, (0, 2), pattern_matrix([(0,), (0, 2), (2,)], 3)),
    }

    @pytest.mark.parametrize("kind", ["average", "concat"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_fold_matches_head_of_fused_rows(self, kind, case):
        m, present, available = self.CASES[case]
        d, batch = 4, 3
        rng = np.random.default_rng(40)
        fusion = build_fusion(kind, m, d, rng)
        head = Affine(fused_width(FusionConfig(kind=kind), m, d), 3, rng)
        rows = [Tensor(rng.normal(size=(batch, d)), requires_grad=True) if v in present
                else None for v in range(m)]
        params = [r for r in rows if r is not None] + head.parameters()
        folded = fusion.fuse(rows, available, head=head)
        assert folded.shape == available.shape[:-1] + (batch, 3)
        readout = Tensor(rng.normal(size=folded.shape))
        grads = backward((folded * readout).sum(), params)
        for p in params:
            p.grad = None
        plain = head(fusion.fuse(rows, available))
        want = backward((plain * readout).sum(), params)

        assert relative(folded.data, plain.data) <= 1e-12
        for got, expected in zip(grads, want):
            assert relative(got, expected) <= 1e-10

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
