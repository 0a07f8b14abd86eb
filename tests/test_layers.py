"""Layers: affine, conv1d, layer norm, dropout, LSTM cell, attention."""

import numpy as np
import pytest

from mvfuse.gradcheck import check_gradients
from mvfuse.layers import (Affine, Conv1d, Dropout, LayerNorm, LSTMCell,
                           MultiHeadAttention)
from mvfuse.tensor import Tensor


def sum_sq(t):
    return (t * t).sum() * 0.5


class TestAffine:
    def test_identity_weights(self):
        aff = Affine(3, 3, np.random.default_rng(0))
        aff.W.data = np.eye(3)
        aff.b.data = np.zeros(3)
        x = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_allclose(aff(Tensor(x)).data, x, atol=1e-15)

    def test_zero_weights_give_bias(self):
        aff = Affine(4, 2, np.random.default_rng(0))
        aff.W.data = np.zeros((4, 2))
        aff.b.data = np.array([3.0, -1.0])
        out = aff(Tensor(np.ones((5, 4)))).data
        np.testing.assert_allclose(out, np.tile([3.0, -1.0], (5, 1)), atol=1e-15)

    def test_matches_dense_matmul_oracle(self):
        rng = np.random.default_rng(11)
        aff = Affine(6, 4, rng)
        x = rng.normal(size=(7, 6))
        expected = x @ aff.W.data + aff.b.data
        np.testing.assert_allclose(aff(Tensor(x)).data, expected, atol=1e-12)

    def test_dim_mismatch_raises(self):
        aff = Affine(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="affine expects last dim 3, got 4"):
            aff(Tensor(np.ones((2, 4))))


def conv_oracle(x, W, b):
    """Direct sliding-window convolution with zero padding over (..., T, c_in)."""
    T, c_in = x.shape[-2:]
    k, _, c_out = W.shape
    pad = k // 2
    xp = np.zeros(x.shape[:-2] + (T + 2 * pad, c_in))
    xp[..., pad:pad + T, :] = x
    out = np.zeros(x.shape[:-2] + (T, c_out))
    for t in range(T):
        for tau in range(k):
            out[..., t, :] += xp[..., t + tau, :] @ W[tau]
    return out + b


def graph_ops(*outs):
    """Ops of every non-leaf node reachable from ``outs``."""
    ops, seen, stack = [], set(), list(outs)
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.op:
            continue
        seen.add(id(node))
        ops.append(node.op)
        stack.extend(node._parents)
    return ops


# (seed, kernel, input shape); the first three keep their historical ids
ORACLE_CASES = [pytest.param(seed, 3, (7, 3), id=str(seed)) for seed in (0, 1, 2)] + [
    pytest.param(3, 1, (7, 3), id="kernel1"),
    pytest.param(4, 5, (7, 3), id="kernel5"),
    pytest.param(5, 1, (4, 6, 3), id="batched-kernel1"),
    pytest.param(6, 3, (4, 6, 3), id="batched-kernel3"),
    pytest.param(7, 5, (4, 6, 3), id="batched-kernel5"),
    pytest.param(8, 5, (1, 3), id="T1-kernel5"),
    pytest.param(9, 5, (2, 1, 3), id="batched-T1-kernel5"),
    pytest.param(10, 9, (2, 3), id="T2-kernel9"),
    pytest.param(11, 7, (2, 3, 3), id="batched-T3-kernel7"),
]


class TestConv1d:
    def test_identity_delta_kernel(self):
        conv = Conv1d(1, 1, np.random.default_rng(0), kernel=3)
        conv.W.data = np.array([[[0.0]], [[1.0]], [[0.0]]])  # center tap only
        conv.b.data = np.zeros(1)
        x = np.linspace(-1, 1, 9).reshape(9, 1)
        np.testing.assert_allclose(conv(Tensor(x)).data, x, atol=1e-15)

    def test_constant_input_averaging_kernel_interior(self):
        conv = Conv1d(1, 1, np.random.default_rng(0), kernel=3)
        conv.W.data = np.full((3, 1, 1), 1 / 3)
        conv.b.data = np.zeros(1)
        out = conv(Tensor(np.full((10, 1), 5.0))).data
        np.testing.assert_allclose(out[1:-1], np.full((8, 1), 5.0), atol=1e-12)

    @pytest.mark.parametrize("seed, kernel, shape", ORACLE_CASES)
    def test_matches_sliding_window_oracle(self, seed, kernel, shape):
        rng = np.random.default_rng(seed)
        conv = Conv1d(3, 2, rng, kernel=kernel)
        conv.b.data = rng.normal(size=2)
        x = rng.normal(size=shape)
        expected = conv_oracle(x, conv.W.data, conv.b.data)
        np.testing.assert_allclose(conv(Tensor(x)).data, expected, atol=1e-12)

    def test_kernel_five_passes_gradient_check(self):
        rng = np.random.default_rng(6)
        conv = Conv1d(2, 3, rng, kernel=5)
        conv.b.data = rng.uniform(-1, 1, 3)
        x = Tensor(rng.uniform(-1, 1, (2, 4, 2)), requires_grad=True)
        errs = check_gradients(lambda: sum_sq(conv(x)), {"x": x, "W": conv.W, "b": conv.b})
        assert max(errs.values()) < 1e-4

    def test_layer_is_one_graph_node(self):
        conv = Conv1d(3, 2, np.random.default_rng(0), kernel=3)
        # a gradient-tracked input, as for every conv layer after the first
        keep = np.full((2, 7, 2), 1.25)
        out = conv(Tensor(np.ones((2, 7, 3)), requires_grad=True), relu=True, keep=keep)
        assert graph_ops(out) == ["window_affine"]

    @pytest.mark.parametrize("T", [1, 2, 5, 11])
    def test_same_length_output(self, T):
        conv = Conv1d(2, 4, np.random.default_rng(0))
        out = conv(Tensor(np.random.default_rng(1).normal(size=(T, 2))))
        assert out.shape == (T, 4)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(5)
        conv = Conv1d(2, 3, rng)
        x = rng.normal(size=(4, 6, 2))
        batched = conv(Tensor(x)).data
        for i in range(4):
            np.testing.assert_allclose(batched[i], conv(Tensor(x[i])).data, atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv1d(1, 1, np.random.default_rng(0), kernel=2)

    def test_empty_time_axis_rejected(self):
        conv = Conv1d(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one time step"):
            conv(Tensor(np.ones((4, 0, 3))))

    def test_kernel_one_still_needs_a_time_step(self):
        # window_affine reads a 3-D W as taps by its rank, even at kernel 1
        conv = Conv1d(3, 2, np.random.default_rng(0), kernel=1)
        with pytest.raises(ValueError, match="conv1d needs at least one time step"):
            conv(Tensor(np.ones((4, 0, 3))))

    def test_channel_mismatch_rejected(self):
        conv = Conv1d(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="affine expects last dim 3, got 2"):
            conv(Tensor(np.ones((5, 2))))


class TestLayerNorm:
    def test_zero_mean_unit_variance(self):
        ln = LayerNorm(16)
        x = np.random.default_rng(2).normal(2.0, 3.0, size=(5, 16))
        out = ln(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-9)

    def test_constant_input_maps_to_shift(self):
        ln = LayerNorm(4)
        ln.shift.data = np.array([1.0, 2.0, 3.0, 4.0])
        out = ln(Tensor(np.full((2, 4), 7.0))).data
        np.testing.assert_allclose(out, np.tile(ln.shift.data, (2, 1)), atol=1e-9)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        ln = LayerNorm(6)
        ln.gain.data = rng.normal(size=6)
        ln.shift.data = rng.normal(size=6)
        x = rng.normal(size=(4, 6))
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + 1e-12) * ln.gain.data + ln.shift.data
        np.testing.assert_allclose(ln(Tensor(x)).data, expected, atol=1e-10)

    def test_too_narrow_raises(self):
        with pytest.raises(ValueError):
            LayerNorm(1)(Tensor(np.ones((3, 1))))


class TestDropout:
    def test_rate_zero_is_identity(self):
        assert Dropout(0.0).mask((3, 4), np.random.default_rng(1)) is None

    def test_eval_mode_is_identity(self):
        assert Dropout(0.5).mask((3, 4)) is None

    def test_inverted_scaling_preserves_mean(self):
        keep = Dropout(0.4).mask((200, 50), np.random.default_rng(42))
        assert abs(keep.mean() - 1.0) < 0.02
        np.testing.assert_allclose(keep[keep != 0.0], 1.0 / 0.6, atol=1e-12)

    def test_keep_of_a_transposed_view_is_c_contiguous(self):
        drawn = np.random.default_rng(3).random((4, 6))
        keep = Dropout(0.4).keep(drawn.T)
        assert keep.flags.c_contiguous
        np.testing.assert_array_equal(keep, (drawn.T < 0.6) / 0.6)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


def lstm_oracle(x, h, c, W, b):
    """Hand-rolled gate equations: input, forget, output, candidate order."""
    d = h.shape[-1]
    z = np.concatenate([x, h], axis=-1) @ W + b
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i, f, o = sig(z[..., :d]), sig(z[..., d:2 * d]), sig(z[..., 2 * d:3 * d])
    g = np.tanh(z[..., 3 * d:])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


class TestLSTM:
    def test_all_zero_parameters_give_zero_hidden(self):
        cell = LSTMCell(3, 4, np.random.default_rng(0))
        cell.W.data = np.zeros_like(cell.W.data)
        cell.b.data = np.zeros_like(cell.b.data)
        h, c = Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4)))
        h2, c2 = cell.step(Tensor(np.ones((2, 3))), h, c)
        np.testing.assert_allclose(h2.data, np.zeros((2, 4)), atol=1e-15)
        np.testing.assert_allclose(c2.data, np.zeros((2, 4)), atol=1e-15)

    def test_seeded_step_matches_gate_oracle(self):
        rng = np.random.default_rng(9)
        cell = LSTMCell(3, 5, rng)
        x = rng.normal(size=(2, 3))
        h = rng.normal(size=(2, 5))
        c = rng.normal(size=(2, 5))
        got_h, got_c = cell.step(Tensor(x), Tensor(h), Tensor(c))
        exp_h, exp_c = lstm_oracle(x, h, c, cell.W.data, cell.b.data)
        np.testing.assert_allclose(got_h.data, exp_h, atol=1e-12)
        np.testing.assert_allclose(got_c.data, exp_c, atol=1e-12)

    def test_three_chained_steps_pass_gradient_check(self):
        rng = np.random.default_rng(1)
        cell = LSTMCell(2, 3, rng)
        xs = [Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True) for _ in range(3)]

        def loss():
            h, c = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))
            for x in xs:
                h, c = cell.step(x, h, c)
            return sum_sq(h)

        params = {"W": cell.W, "b": cell.b, "x0": xs[0], "x2": xs[2]}
        errs = check_gradients(loss, params)
        assert max(errs.values()) < 1e-4

    def test_step_is_one_scan_node_with_contiguous_h_and_c(self):
        cell = LSTMCell(3, 4, np.random.default_rng(0))
        x, h, c = (Tensor(np.ones((10, d)), requires_grad=True) for d in (3, 4, 4))
        h2, c2 = cell.step(x, h, c)
        assert sorted(graph_ops(h2, c2)) == ["lstm_scan", "lstm_scan_c", "lstm_scan_h"]
        assert h2.shape == c2.shape == (10, 4)
        assert h2.data.flags.c_contiguous and c2.data.flags.c_contiguous

    def test_input_dim_mismatch_raises(self):
        cell = LSTMCell(3, 4, np.random.default_rng(0))
        h, c = Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4)))
        with pytest.raises(ValueError, match=r"lstm_scan needs input blocks \(1, 3\), got \(1, 5\)"):
            cell.step(Tensor(np.ones((1, 5))), h, c)


class TestMultiHeadAttention:
    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        mha = MultiHeadAttention(8, heads=2, rng=rng)
        weights = mha.probs(Tensor(rng.normal(size=(1, 5, 8))))
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones((1, 2, 5)), atol=1e-12)

    def test_single_row_returns_its_value_projection(self):
        rng = np.random.default_rng(1)
        mha = MultiHeadAttention(6, heads=3, rng=rng)
        z = rng.normal(size=(1, 1, 6))
        out = mha(Tensor(z)).data
        np.testing.assert_allclose(out, z @ mha.W_V.data, atol=1e-12)

    def test_single_head_matches_explicit_matrix_oracle(self):
        rng = np.random.default_rng(2)
        mha = MultiHeadAttention(4, heads=1, rng=rng)
        z = rng.normal(size=(1, 3, 4))
        q, k, v = z[0] @ mha.W_Q.data, z[0] @ mha.W_K.data, z[0] @ mha.W_V.data
        logits = q @ k.T / np.sqrt(4.0)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(mha(Tensor(z)).data[0], probs @ v, atol=1e-12)

    def test_scaling_flag_changes_logits(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(1, 4, 8))
        scaled = MultiHeadAttention(8, 2, np.random.default_rng(5), scaling=True)
        literal = MultiHeadAttention(8, 2, np.random.default_rng(5), scaling=False)
        assert not np.allclose(scaled(Tensor(z)).data, literal(Tensor(z)).data)

    @pytest.mark.parametrize("first_row", [False, True], ids=["all-rows", "first-row"])
    def test_rows_of_another_width_rejected(self, first_row):
        # a width-4 row must not be read as two taps of the (8, 8) projections
        mha = MultiHeadAttention(8, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="affine expects last dim 8, got 4"):
            mha.attend(Tensor(np.ones((3, 5, 4))), first_row=first_row)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(6, heads=4, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("case", ["no-exclusion", "per-row", "key-sets", "far-logit"])
    def test_probs_match_the_reference_softmax(self, case):
        # K = 3 key sets over 4 keys, all keeping key 0: per row, each row of
        # a leading pattern axis under its set; as key sets, the shared input
        # under all three on the query axis, the first row querying
        sets = np.array([[False, True, False, True], [False, False, False, False],
                         [False, False, True, True]])
        rng = np.random.default_rng(6)
        mha = MultiHeadAttention(8, 2, rng)
        z = rng.normal(size=(2, 4, 8))
        exclude, first_row = None, case in ("key-sets", "far-logit")
        if case == "per-row":
            z = np.stack([z + i for i in range(3)])
            exclude = sets[:, None, None, None, :]
        if first_row:
            exclude = sets[:, None, None, None, :]
        if case == "far-logit":  # key 3 sits about 100 above the token: no shared shift
            mha.W_Q.data = mha.W_K.data = np.eye(8)
            z[:, 0], z[:, 3] = 1.0, 50.0
        got = mha.probs(Tensor(z), exclude, first_row)

        def heads(x):  # (..., n, 8) -> (..., 2, n, 4)
            return np.moveaxis(x.reshape(x.shape[:-1] + (2, 4)), -2, -3)

        q = heads((z[..., :1, :] if first_row else z) @ mha.W_Q.data)
        logits = q @ np.swapaxes(heads(z @ mha.W_K.data), -1, -2) * mha.scale
        if first_row:  # (B, heads, 1, n) under the sets: (B, heads, K, 1, n)
            logits, exclude = logits[..., None, :, :], np.moveaxis(exclude, 0, -3)
        shape = np.broadcast_shapes(logits.shape, () if exclude is None else exclude.shape)
        want = Tensor(np.broadcast_to(logits, shape)).softmax(axis=-1, exclude=exclude).data
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        if exclude is not None:
            assert np.all(got[np.broadcast_to(exclude, shape)] == 0.0)

    def test_gradients_through_attention(self):
        rng = np.random.default_rng(4)
        mha = MultiHeadAttention(4, heads=2, rng=rng)
        z = Tensor(rng.uniform(-1, 1, (1, 3, 4)), requires_grad=True)
        errs = check_gradients(lambda: sum_sq(mha(z)),
                               {"z": z, "W_Q": mha.W_Q, "W_V": mha.W_V})
        assert max(errs.values()) < 1e-4
