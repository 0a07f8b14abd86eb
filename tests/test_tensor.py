"""Tensor core: softmax, reverse-mode gradients, Adam."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfuse import gradcheck
from mvfuse import tensor as tensor_module
from mvfuse.gradcheck import check_gradients, numerical_gradient, relative_error
from mvfuse.layers import LSTMCell
from mvfuse.tensor import (WINDOW_BLOCK, Adam, EmptySupportError, Tensor, attention,
                           backward, bilstm_layers, concat, cross_entropy, gated_mix,
                           layer_norm, lstm_scan, no_grad, stack, window_affine)


def sum_sq(t):
    return (t * t).sum() * 0.5


def softmax(x, exclude=()):
    """Tensor.softmax over a vector, excluding the positions listed in ``exclude``."""
    mask = np.zeros(len(x), dtype=bool)
    mask[list(exclude)] = True
    return Tensor(x).softmax(axis=0, exclude=mask if exclude else None).data


class TestSoftmax:
    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_analytic_two_logits(self):
        out = softmax(np.array([0.0, np.log(2.0)]))
        np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-15)

    def test_masked_matches_removal_oracle(self):
        # oracle: drop the excluded entry, softmax what remains, reinsert a zero
        x = np.array([5.0, 9.9, -1.2])
        out = softmax(x, exclude={1})
        kept = np.exp(x[[0, 2]] - x[[0, 2]].max())
        oracle = kept / kept.sum()
        np.testing.assert_allclose(out[[0, 2]], oracle, atol=1e-15)
        assert out[1] == 0.0
        assert abs(out.sum() - 1.0) < 1e-12

    def test_all_excluded_raises(self):
        with pytest.raises(EmptySupportError):
            softmax(np.array([1.0, 2.0]), exclude={0, 1})

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8),
           st.floats(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_simplex_and_shift_invariance(self, logits, shift):
        x = np.array(logits)
        out = softmax(x)
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-12
        shifted = softmax(x + shift)
        np.testing.assert_allclose(out, shifted, atol=1e-12)

    def test_masked_shift_invariance_on_support(self):
        x = np.array([0.3, -1.0, 2.0, 0.1])
        base = softmax(x, exclude={2})
        moved = x.copy()
        moved[[0, 1, 3]] += 7.5
        np.testing.assert_allclose(base, softmax(moved, exclude={2}), atol=1e-12)

    @pytest.mark.parametrize("exclude", [None, np.array([False, True, False, False]),
                                         np.array([[True, False, False, True]])],
                             ids=["none", "mask", "broadcast"])
    def test_bit_identical_to_separate_buffers(self, exclude):
        # the softmax as separate where, exp and division buffers
        x = np.random.default_rng(4).normal(size=(3, 4)) * 20.0
        if exclude is None:
            e = np.exp(x - x.max(axis=-1, keepdims=True))
        else:
            excl = np.broadcast_to(exclude, x.shape)
            mx = np.where(excl, -np.inf, x).max(axis=-1, keepdims=True)
            e = np.where(excl, 0.0, np.exp(np.where(excl, 0.0, x - mx)))
        expected = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_array_equal(Tensor(x).softmax(axis=-1, exclude=exclude).data,
                                      expected)

    @pytest.mark.parametrize("keys", [1, 2, 8, 32, 33])
    def test_shift_is_the_exact_maximum(self, keys):
        # up to 32 keys the shift is a fold of np.maximum, not max()
        rng = np.random.default_rng(keys)
        logits = rng.normal(size=(6, 5, keys)) * 30.0
        excl = rng.random(logits.shape) < 0.3
        excl[..., 0] = False
        masked = np.where(excl, -np.inf, logits)
        for axis in (-1, 0):
            np.testing.assert_array_equal(tensor_module._shift(masked, axis),
                                          masked.max(axis=axis, keepdims=True))
        e = np.exp(masked - masked.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(Tensor(logits).softmax(axis=-1, exclude=excl).data,
                                      e / e.sum(axis=-1, keepdims=True))

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 1, 3), (1, 1, 3)])
    def test_exclusion_larger_than_the_input_raises(self, shape):
        # one softmax per input: an exclusion may broadcast only to its shape
        with pytest.raises(ValueError, match=r"exclusion of shape .* is larger than the "
                                             r"input \(2, 3\)"):
            Tensor(np.ones((2, 3))).softmax(axis=-1, exclude=np.zeros(shape, dtype=bool))

    def test_differentiable_through_mask(self):
        x = Tensor(np.array([0.5, -0.2, 1.0]), requires_grad=True)
        exclude = np.array([False, True, False])
        errs = check_gradients(lambda: sum_sq(x.softmax(axis=0, exclude=exclude)), {"x": x})
        assert errs["x"] < 1e-4


class TestBackward:
    def test_sum_gives_ones(self):
        p = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        (grad,) = backward(p.sum(), [p])
        np.testing.assert_array_equal(grad, np.ones((3, 4)))

    def test_half_sum_of_squares_gives_identity(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        (grad,) = backward(sum_sq(p), [p])
        np.testing.assert_allclose(grad, p.data, atol=1e-15)

    def test_untouched_leaf_gets_zero(self):
        p = Tensor(np.ones(3), requires_grad=True)
        q = Tensor(np.ones(2), requires_grad=True)
        grads = backward(p.sum(), [p, q])
        np.testing.assert_array_equal(grads[1], np.zeros(2))

    def test_non_scalar_root_raises(self):
        p = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (p * 2.0).backward()

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        w1 = Tensor(rng.uniform(-1, 1, (3, 5)), requires_grad=True)
        b1 = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        w2 = Tensor(rng.uniform(-1, 1, (5, 2)), requires_grad=True)

        def loss():
            return sum_sq(window_affine(x, w1, b1, relu=True) @ w2)

        errs = check_gradients(loss, {"x": x, "w1": w1, "b1": b1, "w2": w2})
        assert max(errs.values()) < 1e-4

    def test_shared_node_accumulates_once_per_path(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        y = p * p  # dy/dp = 2p through two paths
        (grad,) = backward(y.sum(), [p])
        np.testing.assert_allclose(grad, [4.0])

    def test_node_reused_after_later_nodes_matches_finite_differences(self):
        # h and the leaf x feed the last op again, after nodes created later
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True)

        def loss():
            h = x @ w
            deep = (h.softmax(axis=-1) * h).log_softmax(axis=-1) @ w
            return sum_sq(deep + h + x)

        errs = check_gradients(loss, {"x": x, "w": w})
        assert max(errs.values()) < 1e-4

    def test_size_one_root_and_item(self):
        p = Tensor(np.array([1.5]), requires_grad=True)
        y = p * p
        y.backward()
        assert y.item() == 2.25
        np.testing.assert_array_equal(p.grad, [3.0])
        with pytest.raises(ValueError, match=r"size 1, got shape \(2,\)"):
            Tensor(np.ones(2)).item()

    def test_non_finite_parameter_fails_backward_naming_the_op(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        w.data = np.where(np.eye(3, 2) > 0, np.inf, 1.0)
        with pytest.raises(ValueError, match="backward root is not finite: .*op 'matmul'"):
            sum_sq(x @ w).backward()

    def test_shared_gradient_arrays_are_never_written_in_place(self):
        # add hands one gradient array to both operands, so a's second
        # contribution must not be added into the array b and y also hold
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        y = a + b
        z = y + a
        z.sum().backward()
        np.testing.assert_array_equal(a.grad, np.full(3, 2.0))
        np.testing.assert_array_equal(b.grad, np.ones(3))
        np.testing.assert_array_equal(y.grad, np.ones(3))


# a scaled dropout keep mask at rate 0.2
KEEP = np.array([[1.25, 0.0], [1.25, 1.25], [0.0, 1.25], [1.25, 1.25], [1.25, 0.0], [0.0, 1.25]])

OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "matmul": lambda a, b: a @ b.transpose((1, 0)),
    "matmul_3d_2d": lambda a, b: a.reshape((2, 1, 3)) @ b.transpose((1, 0)),
    "pow": lambda a, b: ((a * a) + 0.5) ** 1.5,
    # window_affine: K=1 reads W (3, 2) and bias (2,) off b; K=3 reads a as
    # (2, 3, 1) series of 3 steps, W (3, 1, 2) and bias (2,) off b
    "window_affine_k1": lambda a, b: window_affine(a, b.transpose((1, 0)), b[:, 0]),
    "window_affine_k1_relu_keep": lambda a, b: window_affine(
        a, b.transpose((1, 0)), b[:, 0], relu=True, keep=KEEP[:2, :2]),
    "window_affine_k3": lambda a, b: window_affine(
        a.reshape((2, 3, 1)), b.reshape((3, 1, 2)), b[0, :2]),
    "window_affine_k3_relu": lambda a, b: window_affine(
        a.reshape((2, 3, 1)), b.reshape((3, 1, 2)), b[0, :2], relu=True),
    "window_affine_k3_keep": lambda a, b: window_affine(
        a.reshape((2, 3, 1)), b.reshape((3, 1, 2)), b[0, :2], keep=KEEP.reshape((2, 3, 2))),
    "window_affine_k3_relu_keep": lambda a, b: window_affine(
        a.reshape((2, 3, 1)), b.reshape((3, 1, 2)), b[0, :2], relu=True,
        keep=KEEP.reshape((2, 3, 2))),
    "mean_axis": lambda a, b: a.mean(axis=0),
    "sum_keepdims": lambda a, b: a.sum(axis=1, keepdims=True),
    "reshape": lambda a, b: a.reshape((6,)),
    "slice": lambda a, b: a[1:, :2],
    "softmax_rows": lambda a, b: a.softmax(axis=-1),
    "softmax_broadcast_exclude": lambda a, b: (a * b).softmax(
        axis=-1, exclude=np.array([[False, True, False]])),
    "log_softmax_rows": lambda a, b: a.log_softmax(axis=-1),
    "concat": lambda a, b: concat([a, b], axis=1),
    "stack": lambda a, b: stack([a, b], axis=0),
}


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_op_gradients_match_finite_differences(name, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    errs = check_gradients(lambda: sum_sq(OPS[name](a, b)), {"a": a, "b": b})
    assert max(errs.values()) < 1e-4, f"{name}: {errs}"


@pytest.mark.parametrize("key", [np.array([0, 0, 1]), np.array([True, False]), [0, 1],
                                 (slice(None), np.array([2, 0]))],
                         ids=["int-array", "bool-array", "list", "tuple-with-array"])
def test_array_index_raises_and_points_to_one_hot_product(key):
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(TypeError, match="not (ndarray|list); gather with a one-hot product"):
        a[key]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lstm_gradients_match_finite_differences(seed):
    # one LSTMCell.step with every input requiring grad, h and c both read
    rng = np.random.default_rng(seed)
    k, d, rows = 3, 2, 6
    x, h, c = (Tensor(rng.uniform(-1, 1, (rows, w)), requires_grad=True) for w in (k, d, d))
    cell = LSTMCell(k, d, np.random.default_rng(0))
    cell.W.data, cell.b.data = rng.uniform(-1, 1, (k + d, 4 * d)), rng.uniform(-1, 1, 4 * d)
    errs = check_gradients(lambda: sum(map(sum_sq, cell.step(x, h, c)), Tensor(0.0)),
                           {"x": x, "h": h, "c": c, "W": cell.W, "b": cell.b})
    assert max(errs.values()) < 1e-4, errs


def test_lstm_scan_state_of_wrong_shape_raises():
    # two blocks of 3 rows at step 0 need a state h, c of (6, 2)
    xs, W, b = [Tensor(np.ones((3, 3)))] * 2, Tensor(np.ones((5, 8))), Tensor(np.ones(8))
    fits, short = Tensor(np.ones((6, 2))), Tensor(np.ones((3, 2)))
    for state, got in [((fits, short), r"\(6, 2\) and \(3, 2\)"),
                       ((short, fits), r"\(3, 2\) and \(6, 2\)")]:
        with pytest.raises(ValueError, match=rf"state h, c \(6, 2\), got {got}"):
            lstm_scan(xs, W, b, inputs=[[0, 1]], state=state)


@pytest.mark.parametrize("W_shape, b_shape, words", [
    ((6, 8), (8,), r"lstm_scan needs input blocks \(6, 4\), got \(6, 3\)"),
    ((5, 12), (12,), r"lstm_scan needs a state h, c \(6, 3\), got \(6, 2\) and \(6, 2\)"),
    ((5, 8), (6,), r"lstm_scan needs W \(k\+d, 4\*d\) and b \(4\*d,\), got \(5, 8\), \(6,\)"),
    ((1, 5, 8), (8,), r"lstm_scan needs W \(k\+d, 4\*d\) and b \(4\*d,\), got \(1, 5, 8\)")],
    ids=["other-input-width", "other-state-width", "short-bias", "3d-weight"])
def test_lstm_weights_for_other_widths_raise(W_shape, b_shape, words):
    # x (6, 3) and a state of width 2 need W (5, 8) and b (8,)
    cell = LSTMCell(3, 2, np.random.default_rng(0))
    cell.W, cell.b = Tensor(np.ones(W_shape)), Tensor(np.ones(b_shape))
    x, h, c = Tensor(np.ones((6, 3))), Tensor(np.ones((6, 2))), Tensor(np.ones((6, 2)))
    with pytest.raises(ValueError, match=words):
        cell.step(x, h, c)


def composed_lstm(x, h, c, W, b, gh, gc):
    """The LSTM step as separate numpy ops, concat, matmul, bias and gates in
    row-major (..., 4*d) layout, with each op's backward written out: returns
    h, c and the gradients of x, h, c, W and b under output gradients gh, gc."""
    d = h.shape[-1]
    xh = np.concatenate([x, h], axis=-1)
    z = xh @ W + b
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-z[..., :3 * d]))
    i, f, o = sig[..., :d], sig[..., d:2 * d], sig[..., 2 * d:]
    g = np.tanh(z[..., 3 * d:])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    dc = gc + gh * o * (1.0 - tanh_c * tanh_c)
    dsig = np.concatenate([dc * g, dc * c, gh * tanh_c], axis=-1) * sig * (1.0 - sig)
    dz = np.concatenate([dsig, dc * i * (1.0 - g * g)], axis=-1)
    dxh = dz @ W.T
    dz2, xh2 = dz.reshape(-1, 4 * d), xh.reshape(-1, xh.shape[-1])
    return (o * tanh_c, c_new, dxh[..., :-d], dxh[..., -d:], dc * f, xh2.T @ dz2,
            dz2.sum(axis=0))


def assert_relative(got, want, rtol=1e-12):
    scale = max(np.abs(want).max(), np.finfo(float).tiny)
    assert np.abs(got - want).max() <= rtol * scale


@pytest.mark.parametrize("state_grad", [True, False], ids=["state-grad", "constant-state"])
def test_lstm_matches_composed_ops_with_saturated_rows(state_grad):
    rng = np.random.default_rng(11)
    k, d, rows = 4, 3, 6
    x, h, c = rng.normal(size=(rows, k)), rng.normal(size=(rows, d)), rng.normal(size=(rows, d))
    W, b = rng.normal(size=(k + d, 4 * d)) * 0.5, rng.normal(size=4 * d) * 0.1
    # rows 4 and 5 read only x[:, 0] = +-1 through weights of +-800, so their
    # pre-activations are about +-800: in row 4 i = f = o = 1 and g = -1, in
    # row 5 i = f = o = 0 and g = 1
    x[4:], h[4:] = 0.0, 0.0
    x[4:, 0] = [1.0, -1.0]
    W[0] = np.repeat([800.0, 800.0, 800.0, -800.0], d)
    gh, gc = rng.normal(size=(rows, d)), rng.normal(size=(rows, d))
    cell = LSTMCell(k, d, rng)
    cell.W.data, cell.b.data = W, b
    ts = [Tensor(x, requires_grad=True), Tensor(h, requires_grad=state_grad),
          Tensor(c, requires_grad=state_grad)]
    h_new, c_new = cell.step(*ts)
    ((h_new * Tensor(gh)).sum() + (c_new * Tensor(gc)).sum()).backward()
    want = composed_lstm(x, h, c, W, b, gh, gc)
    got = [h_new.data, c_new.data] + [t.grad for t in ts + [cell.W, cell.b]]
    for name, value, expected in zip(["h", "c", "dx", "dh", "dc", "dW", "db"], got, want):
        if value is None:
            assert not state_grad and name in ("dh", "dc")
            continue
        assert np.isfinite(value).all(), name
        assert_relative(value, expected)
    np.testing.assert_array_equal(c_new.data[4], c[4] - 1.0)
    np.testing.assert_array_equal(h_new.data[4], np.tanh(c[4] - 1.0))
    np.testing.assert_array_equal(h_new.data[5], np.zeros(d))
    np.testing.assert_array_equal(c_new.data[5], np.zeros(d))


def scan_oracle(cell, xs, inputs, parents):
    """``lstm_scan``'s h per step as a loop of ``LSTMCell.step``: each step
    stacks its input blocks and each block's parent state from the step
    before, the first from a zero state."""
    n, hs = xs[inputs[0][0]].shape[0], []
    for t, step in enumerate(inputs):
        x = concat([xs[i] for i in step], axis=0)
        if t == 0:
            h, c = (Tensor(np.zeros((x.shape[0], cell.d_h))) for _ in range(2))
        else:
            h, c = (concat([s[p * n:(p + 1) * n] for p in parents[t - 1]], axis=0)
                    for s in (h, c))
        h, c = cell.step(x, h, c)
        hs.append(h)
    return hs


# (k, d, blocks of n rows, inputs per step, parents per step after the first)
SCANS = {
    "chain-d16": (32, 16, 40, [[0], [1], [2], [3]], [[0], [0], [0]]),
    "chain-d32": (64, 32, 24, [[0], [1], [2], [3], [4]], [[0], [0], [0], [0]]),
    # step 1's blocks 0 and 1 share parent 0, step 2's blocks both continue block 1
    "tree": (6, 4, 5, [[0, 1, 2], [1, 2, 2, 0], [0, 2]], [[0, 0, 1, 2], [1, 1]]),
    "one-row": (2, 3, 1, [[0], [1], [2]], [[0], [0]]),
}


def scan_case(name, seed=0):
    k, d, n, inputs, parents = SCANS[name]
    rng = np.random.default_rng(seed)
    cell = LSTMCell(k, d, rng)
    cell.b.data = rng.normal(size=4 * d)
    xs = [Tensor(rng.normal(size=(n, k)), requires_grad=True)
          for _ in range(max(map(max, inputs)) + 1)]
    return cell, xs, inputs, parents


@pytest.mark.parametrize("name", sorted(SCANS))
def test_unrecorded_lstm_scan_is_bit_identical_to_step_loop(name):
    cell, xs, inputs, parents = scan_case(name)
    with no_grad():
        want = [h.data for h in scan_oracle(cell, xs, inputs, parents)]
        got = lstm_scan(xs, cell.W, cell.b, inputs, parents)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.data, w)
        assert g.data.flags.c_contiguous and not g.requires_grad


def test_lstm_scan_defaults_to_a_chain_over_its_blocks():
    cell, xs, inputs, parents = scan_case("chain-d16")
    with no_grad():
        want = lstm_scan(xs, cell.W, cell.b, inputs, parents)
        got = lstm_scan(xs, cell.W, cell.b)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.data, w.data)


@pytest.mark.parametrize("last", [False, True], ids=["every", "last"])
@pytest.mark.parametrize("name", sorted(SCANS))
def test_recorded_lstm_scan_matches_step_loop(name, last):
    # outputs bit for bit; the gradients of the input blocks (the rows behind
    # the shared parents of the tree), W and b within 1e-12, with every
    # step's h read or only the last one, so no earlier step hands a gradient
    cell, xs, inputs, parents = scan_case(name, seed=3)
    rng = np.random.default_rng(4)
    params = xs + [cell.W, cell.b]

    def run(hs):
        hs = hs[-1:] if last else hs
        weights = [Tensor(rng.normal(size=h.shape)) for h in hs]
        for p in params:
            p.grad = None
        sum(((h * w).sum() for h, w in zip(hs, weights)), Tensor(0.0)).backward()
        return [h.data for h in hs], [p.grad for p in params]

    want_h, want_g = run(scan_oracle(cell, xs, inputs, parents))
    rng = np.random.default_rng(4)
    got_h, got_g = run(lstm_scan(xs, cell.W, cell.b, inputs, parents))
    for g, w in zip(got_h, want_h):
        np.testing.assert_array_equal(g, w)
    for g, w in zip(got_g, want_g):
        assert_relative(g, w)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lstm_scan_gradients_match_finite_differences(seed):
    # a prefix tree with shared parents from a tracked state of its first
    # step's 3 blocks, every output read: each step's h and the last c
    cell, xs, inputs, parents = scan_case("tree", seed)
    rows = len(inputs[0]) * xs[0].shape[0]
    rng = np.random.default_rng(seed + 10)
    state = tuple(Tensor(rng.normal(size=(rows, cell.d_h)), requires_grad=True) for _ in "hc")
    ts = {f"x{i}": x for i, x in enumerate(xs)} | {"W": cell.W, "b": cell.b, "h0": state[0],
                                                   "c0": state[1]}
    errs = check_gradients(
        lambda: sum(map(sum_sq, lstm_scan(xs, cell.W, cell.b, inputs, parents, state=state)),
                    Tensor(0.0)), ts)
    assert max(errs.values()) < 1e-4, errs


@pytest.mark.parametrize("record", [True, False], ids=["recorded", "unrecorded"])
def test_lstm_scan_saturated_rows_stay_finite(record):
    # rows 0 and 1 of every block read x[:, 0] = +-1 through weights of +-800,
    # so their pre-activations stay near +-800 at every step: in row 0
    # i = f = o = 1 and g = -1, so c falls by exactly 1 a step; in row 1
    # i = f = o = 0 and g = 1, so h and c stay exactly 0
    k, d, n, steps = 4, 3, 5, 3
    rng = np.random.default_rng(12)
    cell = LSTMCell(k, d, rng)
    cell.W.data *= 0.1
    cell.W.data[0] = np.repeat([800.0, 800.0, 800.0, -800.0], d)
    xs = []
    for _ in range(steps):
        x = rng.normal(size=(n, k)) * 0.1
        x[:2] = 0.0
        x[:2, 0] = [1.0, -1.0]
        xs.append(Tensor(x, requires_grad=record))
    if record:
        hs = lstm_scan(xs, cell.W, cell.b)
        sum((h.sum() for h in hs), Tensor(0.0)).backward()
        for p in xs + [cell.W, cell.b]:
            assert np.isfinite(p.grad).all()
    else:
        with no_grad():
            hs = lstm_scan(xs, cell.W, cell.b)
    for t, h in enumerate(hs):
        assert np.isfinite(h.data).all()
        np.testing.assert_array_equal(h.data[0], np.full(d, np.tanh(-(t + 1.0))))
        np.testing.assert_array_equal(h.data[1], np.zeros(d))


@pytest.mark.parametrize("xs_shape, W_shape, parents, words", [
    ((6, 3), (6, 8), None, r"input blocks \(6, 4\), got \(6, 3\)"),
    ((6, 4), (6, 12), None, r"W \(k\+d, 4\*d\) and b \(4\*d,\), got \(6, 12\), \(8,\)"),
    ((6, 4), (6, 8), [[0, 0]], "one parent per block"),
    ((6, 4), (6, 8), [[1]], "a block of the step before")],
    ids=["other-input-width", "other-bias-width", "parent-count", "parent-out-of-range"])
def test_lstm_scan_operand_checks(xs_shape, W_shape, parents, words):
    xs = [Tensor(np.ones(xs_shape)), Tensor(np.ones(xs_shape))]
    with pytest.raises(ValueError, match=words):
        lstm_scan(xs, Tensor(np.ones(W_shape)), Tensor(np.ones(8)), parents=parents)


def bilstm_case(seed, layers=2, dropout=True):
    """Three sequences of three positions over tables of (2, 2) blocks, d = 2:
    blocks are shared within a position, so their gradients add up."""
    s, G, n, d = 3, 3, 2, 2
    rng = np.random.default_rng(seed)
    tables = [tuple(Tensor(rng.uniform(-1, 1, (count * n, d)), requires_grad=True)
                    for count in (2, 3)) for _ in range(s)]
    blocks = np.array([[[0, 1, 0], [2, 2, 1]], [[1, 1, 0], [0, 1, 2]], [[0, 0, 0], [2, 0, 1]]])
    cells = []
    for _ in range(layers):
        f, b = LSTMCell(2 * d, d, rng), LSTMCell(2 * d, d, rng)
        f.b.data, b.b.data = rng.normal(size=4 * d), rng.normal(size=4 * d)
        cells.append((f.W, f.b, b.W, b.b))
    keep = (rng.random((layers, s, 2 * d, G * n)) < 0.7) / 0.7 if dropout else None
    return tables, blocks, n, cells, keep


def composed_bilstm(tables, blocks, n, cells, keep):
    """``bilstm_layers`` from generic ops and ``lstm_scan`` chains: each
    position's blocks gathered by one-hot products, the keep masks as ``mul``
    nodes, one chain per layer and direction."""
    s, G = len(tables), blocks.shape[-1]

    def gather(table, index):
        onehot = np.zeros((G, table.shape[0] // n))
        onehot[np.arange(G), index] = 1.0
        return (Tensor(onehot) @ table.reshape((table.shape[0] // n, -1))).reshape((G * n, -1))

    seq = [concat([gather(tables[t][0], blocks[t, 0]), gather(tables[t][1], blocks[t, 1])],
                  axis=-1) for t in range(s)]
    for layer, (Wf, bf, Wb, bb) in enumerate(cells):
        if keep is not None:
            seq = [x * Tensor(keep[layer, t].T) for t, x in enumerate(seq)]
        fwd, bwd = lstm_scan(seq, Wf, bf), lstm_scan(seq[::-1], Wb, bb)[::-1]
        seq = [concat([f, b], axis=-1) for f, b in zip(fwd, bwd)]
    d = cells[0][1].shape[0] // 4
    return concat([seq[-1][:, :d], seq[0][:, d:]], axis=-1)


@pytest.mark.parametrize("layers, dropout", [(1, False), (2, True), (3, True)],
                         ids=["one-layer", "two-layers-dropout", "three-layers-dropout"])
def test_bilstm_layers_matches_composed_chains(layers, dropout):
    # outputs and the gradients of every table, W and b within 1e-12; the
    # unrecorded call gives the recorded bits
    case = bilstm_case(4, layers, dropout)
    tables, _, _, cells, _ = case
    params = [t for pair in tables for t in pair] + [p for cell in cells for p in cell]
    weights = np.random.default_rng(5).normal(size=(6, 4))

    def run(node):
        for p in params:
            p.grad = None
        out = node(*case)
        (out * Tensor(weights)).sum().backward()
        return out.data, [p.grad for p in params]

    got, got_grads = run(bilstm_layers)
    want, want_grads = run(composed_bilstm)
    assert_relative(got, want)
    for g, w in zip(got_grads, want_grads):
        assert_relative(g, w)
    with no_grad():
        np.testing.assert_array_equal(bilstm_layers(*case).data, got)


@pytest.mark.parametrize("seed", [0, 1])
def test_bilstm_layers_gradients_match_finite_differences(seed):
    tables, blocks, n, cells, keep = bilstm_case(seed)
    params = {f"table{t}{half}": table for t, pair in enumerate(tables)
              for half, table in enumerate(pair)}
    params.update({f"{name}{i}": p for i, cell in enumerate(cells)
                   for name, p in zip(("Wf", "bf", "Wb", "bb"), cell)})
    errs = check_gradients(lambda: sum_sq(bilstm_layers(tables, blocks, n, cells, keep)), params)
    assert max(errs.values()) < 1e-6, errs


def test_bilstm_layers_operand_checks():
    tables, blocks, n, cells, keep = bilstm_case(0)
    with pytest.raises(ValueError, match=r"per layer W \(6, 8\) and b \(8,\) twice"):
        bilstm_layers(tables, blocks, n, [cells[0][:2] + (cells[0][3], cells[0][2])], None)
    with pytest.raises(ValueError, match=r"blocks \(s, 2, G\) of \(n, 2\) table blocks"):
        bilstm_layers(tables, blocks[:2], n, cells, keep)
    with pytest.raises(ValueError, match=r"blocks \(s, 2, G\)"):
        bilstm_layers(tables, np.where(blocks == 2, 3, blocks), n, cells, keep)
    with pytest.raises(ValueError, match=r"keep masks \(2, 3, 4, 6\), got \(2, 3, 6, 4\)"):
        bilstm_layers(tables, blocks, n, cells, np.swapaxes(keep, -1, -2))


@pytest.mark.parametrize("record", [False, True], ids=["unrecorded", "recorded"])
def test_scratch_slots(record):
    # unrecorded, arrays of one slot share memory and arrays of different
    # slots never overlap; recorded, every array is fresh
    sizes = [6, 4, 8]
    array = tensor_module._scratch(record, sizes)
    first = [array(slot, (size,)) for slot, size in enumerate(sizes)]
    again = [array(slot, (2, size // 2)) for slot, size in enumerate(sizes)]
    for slot, arrays in enumerate(zip(first, again)):
        assert np.shares_memory(*arrays) == (not record)
        for a in arrays:
            assert not any(np.shares_memory(a, b) for b in first[slot + 1:] + again[slot + 1:])


def scan_call(name, state=False):
    cell, xs, inputs, parents = scan_case(name)
    rng = np.random.default_rng(9)
    rows = len(inputs[0]) * xs[0].shape[0]
    states = tuple(Tensor(rng.normal(size=(rows, cell.d_h)), requires_grad=True) for _ in "hc")
    return lstm_scan(xs, cell.W, cell.b, inputs, parents, state=states if state else None)


def gated_call():
    m, d = 3, 2
    rng = np.random.default_rng(6)
    rows = [Tensor(rng.normal(size=(4, d)), requires_grad=True) for _ in range(m)]
    W, b = (Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in ((m * d, d * m), (d * m,)))
    patterns = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1], [1, 1, 1]], dtype=bool)
    return gated_mix(rows, W, b, patterns)


@pytest.mark.parametrize("seed", range(3))
def test_pattern_groups_partition_the_rows_by_count_in_first_appearance_order(seed):
    rng = np.random.default_rng(seed)
    on = rng.random((40, 6)) < 0.4
    on[~on.any(axis=1), 0] = True
    on[0] = np.arange(6) == 2  # single views first
    sizes = on.sum(axis=1)
    groups = tensor_module.pattern_groups(on)
    assert [columns.shape[1] for _, columns in groups] == list(dict.fromkeys(sizes.tolist()))
    assert sorted(np.concatenate([members for members, _ in groups]).tolist()) == list(range(40))
    for members, columns in groups:
        assert np.all(np.diff(members) > 0)
        assert columns.shape == (len(members), sizes[members[0]])
        assert np.all(sizes[members] == columns.shape[1])
        for member, row in zip(members, columns):
            np.testing.assert_array_equal(row, np.flatnonzero(on[member]))
    # the gated plan takes the same groups with single views last
    rows = [Tensor(np.zeros((2, 3))) for _ in range(6)]
    W, b = Tensor(np.zeros((18, 18))), Tensor(np.zeros(18))
    plan = tensor_module._gated_plan(rows, W, b, on)[2]
    assert [len(slots) for _, slots in plan] == sorted(dict.fromkeys(sizes.tolist()),
                                                       key=lambda s: s == 1)
    assert [members.tolist() for members, _ in plan] == [
        members.tolist() for members, _ in sorted(groups, key=lambda g: g[1].shape[1] == 1)]


def norm_operands(shape, seed):
    """x (..., n) and a gain and shift (n,) off their initial values, all
    requiring gradients."""
    rng = np.random.default_rng(seed)
    n = shape[-1]
    return tuple(Tensor(v, requires_grad=True) for v in (
        rng.normal(2.0, 3.0, size=shape), rng.uniform(0.5, 1.5, size=n), rng.normal(size=n)))


def composed_layer_norm(x, gain, shift):
    """The layer norm as the composed ops the ``layer_norm`` node replaced."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + 1e-12) ** -0.5 * gain + shift


def loss_operands(weighted, rows=12, seed=0):
    """Logits (rows, 3) requiring gradients, labels and optional class weights."""
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(scale=2.0, size=(rows, 3)), requires_grad=True)
    return logits, rng.integers(0, 3, rows), rng.uniform(0.5, 2.0, 3) if weighted else None


def composed_cross_entropy(logits, y, weights=None):
    """The mean weighted cross-entropy as the composed ops the
    ``cross_entropy`` node replaced."""
    one_hot = np.zeros(logits.shape)
    one_hot[np.arange(len(y)), y] = 1.0
    picked = (logits.log_softmax(axis=-1) * Tensor(one_hot)).sum(axis=-1)
    if weights is not None:
        picked = picked * Tensor(weights[y])
    return -picked.mean()


def conv_call(kernel):
    rng = np.random.default_rng(kernel)  # K=3 runs three blocks unrecorded
    x = Tensor(rng.normal(size=(400, 16, 8)), requires_grad=True)
    W = Tensor(rng.normal(size=(kernel, 8, 5) if kernel > 1 else (8, 5)), requires_grad=True)
    return window_affine(x, W, Tensor(rng.normal(size=5), requires_grad=True), relu=True)


NODE_CALLS = {
    "window_affine_k1": lambda: conv_call(1),
    "window_affine_k3": lambda: conv_call(3),
    "lstm_scan_tree": lambda: scan_call("tree"),
    "lstm_scan_tree_state": lambda: scan_call("tree", state=True),
    # one block of one row: its last c is (1, d) in either layout
    "lstm_scan_one_row_state": lambda: scan_call("one-row", state=True),
    "bilstm_layers": lambda: bilstm_layers(*bilstm_case(0, layers=3)),
    "gated_mix": gated_call,
    "layer_norm": lambda: layer_norm(*norm_operands((4, 3, 5), seed=0)),
    "cross_entropy": lambda: cross_entropy(*loss_operands(weighted=True)),
}
# nodes that take no temporary from the scratch: K = 1 reads its input as the
# window, and the layer norm and the loss allocate what their graphs keep
NO_SCRATCH = {"window_affine_k1", "layer_norm", "cross_entropy"}


@pytest.mark.parametrize("name", sorted(NODE_CALLS))
def test_unrecorded_node_outputs_hold_no_graph_and_no_scratch(name, monkeypatch):
    # under no_grad every output drops its parents and backward, so none
    # keeps what a recorded call saves, and no output lies in the scratch
    taken = []
    scratch = tensor_module._scratch

    def spied(record, sizes):
        array = scratch(record, sizes)
        return lambda slot, shape: taken.append(array(slot, shape)) or taken[-1]

    def outputs():
        outs = NODE_CALLS[name]()
        return outs if isinstance(outs, list) else [outs]

    assert all(out.requires_grad for out in outputs())  # operands that need gradients
    monkeypatch.setattr(tensor_module, "_scratch", spied)
    with no_grad():
        outs = outputs()
    assert bool(taken) == (name not in NO_SCRATCH)
    for out in outs:
        assert not out.requires_grad and out._parents == () and out._backward is None
        assert not any(np.shares_memory(out.data, a) for a in taken)


def composed_unfold(a, kernel):
    """Zero-padded windows, (..., T, c) -> (..., T, kernel*c), as a node of
    their own: the op a convolution layer ran before ``window_affine``."""
    T, c = a.shape[-2:]
    pad = kernel // 2
    padded = np.pad(a.data, [(0, 0)] * (a.ndim - 2) + [(pad, pad), (0, 0)])
    out = np.concatenate([padded[..., tau:tau + T, :] for tau in range(kernel)], axis=-1)

    def backward(g):
        folded = np.zeros(padded.shape)
        for tau in range(kernel):
            folded[..., tau:tau + T, :] += g[..., tau * c:(tau + 1) * c]
        a._accumulate(folded[..., pad:pad + T, :])

    return Tensor._result(out, (a,), backward, "unfold")


def composed_relu(a):
    def backward(g):
        a._accumulate(g * (a.data > 0.0))

    return Tensor._result(np.maximum(a.data, 0.0), (a,), backward, "relu")


def composed_layer(x, W, b, relu=False, keep=None):
    """An encoder layer as the graph unfold -> matmul -> add -> relu -> mul,
    the matmul folding the leading axes into one 2-D product."""
    if W.ndim == 3:
        x = composed_unfold(x, W.shape[0])
        W = W.reshape((-1, W.shape[-1]))
    out = (x.reshape((-1, x.shape[-1])) @ W).reshape(x.shape[:-1] + W.shape[-1:]) + b
    if relu:
        out = composed_relu(out)
    return out if keep is None else out * Tensor(keep)


# n = 3 outputs: every case takes the weight gradient as (g^T a)^T but k1-wide
@pytest.mark.parametrize("kernel, shape", [(None, (5, 4)), (1, (2, 5, 2)), (3, (5, 4)),
                                           (3, (2, 5, 4)), (5, (2, 3, 5, 4)), (9, (2, 2, 4))],
                         ids=["affine", "k1-wide", "k3", "batched-k3", "batched2-k5", "T2-k9"])
@pytest.mark.parametrize("relu, keep", [(False, False), (True, False), (False, True),
                                        (True, True)],
                         ids=["plain", "relu", "keep", "relu-keep"])
def test_window_affine_matches_composed_graph(kernel, shape, relu, keep):
    rng = np.random.default_rng(12)
    c, n = shape[-1], 3
    x = rng.normal(size=shape)
    W = rng.normal(size=(c, n) if kernel is None else (kernel, c, n))
    b = rng.normal(size=n)
    mask = (rng.random(shape[:-1] + (n,)) < 0.8) / 0.8 if keep else None
    readout = rng.normal(size=shape[:-1] + (n,))
    results = []
    for layer in (window_affine, composed_layer):
        ts = [Tensor(v, requires_grad=True) for v in (x, W, b)]
        out = layer(*ts, relu=relu, keep=mask)
        (out * Tensor(readout)).sum().backward()
        results.append([out.data] + [t.grad for t in ts])
    (fused, *grads), (composed, *expected) = results
    np.testing.assert_array_equal(fused, composed)
    for got, want in zip(grads, expected):
        assert_relative(got, want)


@pytest.mark.parametrize("x_shape, W_shape, b_shape, words", [
    ((5, 4), (3, 2), (2,), r"affine expects last dim 3, got 4"),
    ((2, 5, 4), (3, 3, 2), (2,), r"affine expects last dim 3, got 4"),
    ((5, 3), (1, 1, 3, 2), (2,), r"needs W \(c, n\) or \(K, c, n\) and b \(n,\), "
                                 r"got \(1, 1, 3, 2\) and \(2,\)"),
    ((5, 3), (3, 2), (3,), r"and b \(n,\), got \(3, 2\) and \(3,\)"),
    ((2, 0, 3), (1, 3, 2), (2,), "conv1d needs at least one time step"),
    ((3,), (1, 3, 2), (2,), "conv1d needs at least one time step"),
    ((5, 1), (2, 1, 1), (1,), r"odd tap count for a 'same' window, got K=2")],
    ids=["affine-width", "taps-width", "4d-weight", "long-bias", "k1-empty-series",
         "k1-no-time-axis", "even-taps"])
def test_window_affine_rejects_operands_of_other_shapes(x_shape, W_shape, b_shape, words):
    x, W, b = (Tensor(np.ones(shape)) for shape in (x_shape, W_shape, b_shape))
    with pytest.raises(ValueError, match=words):
        window_affine(x, W, b)


# (shape, K, blocks): at c = 8 a block holds 170 rows of T = 16, K = 3 and
# 819 of T = 2, K = 5; every multi-block case ends ragged. K = 1 runs in one
# block, as an affine call does
@pytest.mark.parametrize("shape, kernel, blocks", [
    ((400, 16, 8), 3, 3), ((7, 60, 16, 8), 3, 3), ((1000, 2, 8), 5, 2), ((3, 5, 8), 3, 1),
    ((7, 60, 16, 8), 1, 1)],
    ids=["ragged-blocks", "two-leading-axes", "T-below-K", "one-block", "k1-two-leading-axes"])
@pytest.mark.parametrize("bias, relu, keep", [(False, False, False), (True, True, False),
                                              (True, True, True)],
                         ids=["plain", "bias-relu", "bias-relu-keep"])
def test_unrecorded_convolution_is_bit_identical_to_recorded(shape, kernel, blocks, bias,
                                                             relu, keep):
    rng = np.random.default_rng(sum(shape))
    T, c, n = shape[-2], shape[-1], 5
    rows = int(np.prod(shape[:-2]))
    assert -(-rows // (WINDOW_BLOCK // (T * kernel * c))) == blocks
    x = rng.normal(size=shape)
    W = rng.normal(size=(kernel, c, n))
    b = rng.normal(size=n) if bias else None
    mask = (rng.random(shape[:-1] + (n,)) < 0.8) / 0.8 if keep else None

    def call(requires_grad):
        return window_affine(Tensor(x), Tensor(W, requires_grad=requires_grad),
                             None if b is None else Tensor(b), relu=relu, keep=mask)

    recorded = call(True)
    with no_grad():
        unrecorded = call(True)
    assert recorded.requires_grad and not unrecorded.requires_grad
    np.testing.assert_array_equal(unrecorded.data, recorded.data)
    np.testing.assert_array_equal(call(False).data, recorded.data)  # no operand needs one


def test_unrecorded_convolution_never_holds_the_whole_window():
    # an eval-sized (512, 24, 64) -> 64, K=3 layer: its whole window is 18.9 MB
    import tracemalloc
    rng = np.random.default_rng(0)
    x, W, b = (Tensor(rng.normal(size=s)) for s in ((512, 24, 64), (3, 64, 64), (64,)))
    whole = 512 * 24 * 3 * 64 * 8
    peaks = []
    for requires_grad in (False, True):
        W.requires_grad = requires_grad
        tracemalloc.start()
        try:
            out = window_affine(x, W, b, relu=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    unrecorded, recorded = peaks
    assert recorded > whole
    assert unrecorded < out.data.nbytes + 4 * 8 * WINDOW_BLOCK < whole / 2

def test_batched_matmul_gradients():
    rng = np.random.default_rng(3)
    a = Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
    errs = check_gradients(lambda: sum_sq(a @ w), {"a": a, "w": w})
    assert max(errs.values()) < 1e-4


@pytest.mark.parametrize("a_shape, w_shape", [((40, 9), (9, 3)), ((40, 3), (3, 9)),
                                               ((2, 20, 9), (9, 3)), ((2, 20, 3), (2, 3, 9)),
                                               ((2, 20, 9), (2, 9, 3))],
                         ids=["narrow", "wide", "folded-narrow", "batched-wide",
                              "batched-narrow"])
def test_weight_gradient_is_input_transpose_times_output_gradient(a_shape, w_shape):
    # the product is taken in either orientation, chosen by shape
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=a_shape))
    w = Tensor(rng.normal(size=w_shape), requires_grad=True)
    readout = rng.normal(size=a_shape[:-1] + w_shape[-1:])
    (a @ w * Tensor(readout)).sum().backward()
    expected = np.swapaxes(a.data, -1, -2) @ readout
    if len(w_shape) < len(a_shape):
        expected = expected.sum(axis=0)
    np.testing.assert_allclose(w.grad, expected, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("shapes", [(4, (4, 3)), ((3, 4), 4), (4, 4)],
                         ids=["vector-matrix", "matrix-vector", "vector-vector"])
def test_vector_operand_to_matmul_raises(shapes):
    a, b = (Tensor(np.ones(shape)) for shape in shapes)
    with pytest.raises(ValueError, match="at least two dimensions"):
        a @ b


def test_log_softmax_matches_log_of_softmax():
    x = np.random.default_rng(6).normal(size=(4, 5)) * 30.0
    np.testing.assert_allclose(Tensor(x).log_softmax(axis=-1).data,
                               np.log(Tensor(x).softmax(axis=-1).data), rtol=0, atol=1e-12)


# three key sets over four keys, key 0 kept by all, as cross fusion's token is
KEY_SETS = np.array([[False, True, False, True], [False, False, True, False],
                     [False, False, False, False]])


def composed_attention(q, k, v, scale, exclude, keep):
    """The generic ops the attention node replaces: logits, scale, masked
    softmax (the logits broadcast to the key sets on a new axis before the
    query rows), keep mask and value product."""
    logits = (q @ k.transpose((0, 1, 3, 2))) * scale
    if exclude is not None and exclude.ndim > logits.ndim:
        exclude = np.moveaxis(exclude, 0, -3)
        logits = logits.reshape(logits.shape[:-2] + (1,) + logits.shape[-2:])
        logits = logits + Tensor(np.zeros(np.broadcast_shapes(logits.shape, exclude.shape)))
    probs = logits.softmax(axis=-1, exclude=exclude)
    if keep is not None:
        probs = probs * Tensor(keep)
    v = v.reshape(v.shape[:2] + (1,) * (probs.ndim - 4) + v.shape[2:]) if probs.ndim > 4 else v
    return probs @ v


def attention_case(rng, sets, queries, keep):
    """q, k, v Tensors of 2 rows and 2 heads over 4 keys, the exclusion of
    ``sets`` (K, 4) or None, and a keep mask over the kept keys or None."""
    q, k, v = (Tensor(rng.normal(size=(2, 2, n, 3)), requires_grad=True)
               for n in (queries, 4, 4))
    exclude = None if sets is None else sets[:, None, None, None, :]
    probs = (2, 2) + (() if sets is None else (len(sets),)) + (queries, 4)
    mask = None
    if keep:
        mask = (rng.random(probs) < 0.6) / 0.6
        if sets is not None:
            mask *= ~sets[:, None, :]
    return q, k, v, exclude, mask


@pytest.mark.parametrize("keep", [False, True], ids=["no-keep", "keep"])
@pytest.mark.parametrize("sets, queries", [(None, 4), (KEY_SETS, 1), (KEY_SETS, 4),
                                           (KEY_SETS[1:], 1)],
                         ids=["per-row", "key-sets-first-row", "key-sets-all-rows",
                              "no-set-keeps-all"])
def test_attention_matches_composed_ops(sets, queries, keep):
    rng = np.random.default_rng(queries + (0 if sets is None else len(sets)))
    q, k, v, exclude, mask = attention_case(rng, sets, queries, keep)
    fused = attention(q, k, v, 0.5, exclude, mask)
    readout = Tensor(rng.normal(size=fused.shape))
    grads = backward((fused * readout).sum(), [q, k, v])
    for t in (q, k, v):
        t.grad = None
    composed = composed_attention(q, k, v, 0.5, exclude, mask)
    assert composed.shape == fused.shape
    want = backward((composed * readout).sum(), [q, k, v])
    assert_relative(fused.data, composed.data)
    for got, expected in zip(grads, want):
        assert_relative(got, expected)


@pytest.mark.parametrize("far", ["excluded-key", "kept-key"])
def test_attention_far_logits_match_reference_softmax(far):
    # one query row whose logits are the keys themselves: key 3, excluded by
    # the first set, or key 1, kept by the first and third, sits 1000 above
    # the token; each set's masked softmax over the others stays exact
    keys = np.array([0.0, 0.5, -0.25, 0.75])
    keys[3 if far == "excluded-key" else 1] += 1000.0
    q = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
    k = Tensor(keys.reshape(1, 1, 4, 1), requires_grad=True)
    v = Tensor(np.arange(8.0).reshape(1, 1, 4, 2) / 8.0, requires_grad=True)
    exclude = KEY_SETS[:, None, None, None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = attention(q, k, v, 1.0, exclude)
        out.sum().backward()
        probs = attention(q, k, Tensor(np.eye(4).reshape(1, 1, 4, 4)), 1.0, exclude).data
    for s, kept in enumerate(~KEY_SETS):
        e = np.exp(keys[kept] - keys[kept].max())
        want = e / e.sum()
        np.testing.assert_allclose(probs[0, 0, s, 0, kept], want, rtol=0, atol=1e-12)
        assert np.all(probs[0, 0, s, 0, ~kept] == 0.0)
        np.testing.assert_allclose(out.data[0, 0, s, 0], want @ v.data[0, 0, kept],
                                   rtol=0, atol=1e-12)
    assert all(np.isfinite(t.grad).all() for t in (q, k, v))


@pytest.mark.parametrize("exclude, keep, words", [
    (KEY_SETS[:, None, None, :], None, "does not broadcast"),
    (KEY_SETS[:, None, None, None, None, :], None, "key sets must be"),
    (KEY_SETS.reshape(3, 1, 1, 1, 4), np.ones((2, 2, 1, 4)), "keep mask of shape"),
    (None, np.ones((2, 2, 3, 1, 4)), "keep mask of shape"),
])
def test_attention_operand_checks(exclude, keep, words):
    q, k, v = (Tensor(np.zeros((2, 2, n, 3))) for n in (1, 4, 4))
    with pytest.raises(ValueError, match=words):
        attention(q, k, v, 1.0, exclude, keep)


def test_attention_key_set_excluding_every_key_raises():
    q, k, v = (Tensor(np.zeros((2, 2, n, 3))) for n in (1, 4, 4))
    sets = np.array([[False, False, False, False], [True, True, True, True]])
    with pytest.raises(EmptySupportError):
        attention(q, k, v, 1.0, sets[:, None, None, None, :])


@pytest.mark.parametrize("shape", [(6, 5), (3, 4, 7)], ids=["2d", "3d"])
def test_layer_norm_matches_composed_ops(shape):
    # bit-identical outputs; x, gain and shift gradients within 1e-12 relative,
    # the backward being the closed form
    readout = np.random.default_rng(1).normal(size=shape)
    results = []
    for norm in (layer_norm, composed_layer_norm):
        operands = norm_operands(shape, seed=2)
        out = norm(*operands)
        (out * Tensor(readout)).sum().backward()
        results.append([out.data] + [t.grad for t in operands])
    (fused, *grads), (composed, *expected) = results
    np.testing.assert_array_equal(fused, composed)
    for got, want in zip(grads, expected):
        assert_relative(got, want)


@pytest.mark.parametrize("x_shape, gain_shape, shift_shape, words", [
    ((3, 1), (1,), (1,), "at least two features"),
    ((3, 4), (5,), (4,), r"gain and shift \(4,\) for input \(3, 4\), got \(5,\) and \(4,\)"),
    ((3, 4), (4,), (1, 4), r"got \(4,\) and \(1, 4\)")],
    ids=["narrow", "gain", "shift"])
def test_layer_norm_operand_checks(x_shape, gain_shape, shift_shape, words):
    with pytest.raises(ValueError, match=words):
        layer_norm(*(Tensor(np.ones(shape)) for shape in (x_shape, gain_shape, shift_shape)))


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("root", [True, False], ids=["root", "scaled-part"])
def test_cross_entropy_matches_composed_ops(weighted, root):
    # value and logits gradient bit-identical, as the backward root or, as
    # sensd builds its loss, as parts scaled by their share of the batch
    results = []
    for loss in (cross_entropy, composed_cross_entropy):
        logits, y, weights = loss_operands(weighted, rows=12, seed=3)
        if root:
            total = loss(logits, y, weights)
        else:
            halves = [logits[:5], logits[5:]]
            total = None
            for part, labels in zip(halves, (y[:5], y[5:])):
                scaled = loss(part, labels, weights) * (len(labels) / len(y))
                total = scaled if total is None else total + scaled
        total.backward()
        results.append((total.data, logits.grad))
    (value, grad), (want_value, want_grad) = results
    assert value.tobytes() == want_value.tobytes()
    np.testing.assert_array_equal(grad, want_grad)


@pytest.mark.parametrize("labels, shape, words", [
    ([0, 3], (2, 3), r"label out of range \[0, 3\)"),
    ([-1, 0], (2, 3), "label out of range"),
    ([0, 1, 2], (2, 3), r"logits \(B >= 1, K\) and labels \(B,\), got \(2, 3\) and \(3,\)"),
    ([], (0, 3), r"got \(0, 3\) and \(0,\)")],
    ids=["above", "negative", "rows", "empty"])
def test_cross_entropy_rejects_bad_labels(labels, shape, words):
    with pytest.raises(ValueError, match=words):
        cross_entropy(Tensor(np.zeros(shape)), np.array(labels, dtype=int))


def test_operand_without_gradient_gets_no_gradient_work(monkeypatch):
    # the mask of a product needs no gradient, so its side is never computed
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    mask = Tensor(np.full((2, 3), 2.0))
    seen = []
    unbroadcast = tensor_module._unbroadcast

    def spied(grad, shape):
        seen.append(shape)
        return unbroadcast(grad, shape)

    monkeypatch.setattr(tensor_module, "_unbroadcast", spied)
    for op in (lambda: x * mask, lambda: x + mask):
        seen.clear()
        op().sum().backward()
        assert seen == [(2, 3)]


def summed_at_once(grad, shape):
    """A gradient summed down to ``shape`` with one sum over all extra leading
    axes, then one over the size-1 axes that broadcast."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    return grad.sum(axis=axes, keepdims=True) if axes else grad


@pytest.mark.parametrize("grad_shape, shape", [
    ((4, 3), (4, 3)), ((5, 4, 3), (5, 1, 3)), ((128, 32), (32,)), ((6, 5, 7), (1, 7)),
    ((127, 128, 3), (3,)), ((3, 5, 6, 2), (6, 1)), ((1, 9, 4), (4,)), ((2, 1, 3), (1,))],
    ids=["none", "size-1-axis", "one-extra", "one-extra-size-1", "head-bias", "two-extra-size-1",
         "size-1-extra", "to-one-element"])
def test_unbroadcast_matches_one_sum_over_the_extra_axes(grad_shape, shape):
    # one sum over axis 0 per extra axis adds in another order than one sum
    # over all of them, so two extra axes may move the last bits
    grad = np.random.default_rng(3).normal(size=grad_shape)
    got, want = tensor_module._unbroadcast(grad, shape), summed_at_once(grad, shape)
    assert got.shape == want.shape == shape
    if len(grad_shape) - len(shape) < 2:
        assert np.array_equal(got, want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_ops_are_deterministic():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    first = (Tensor(a).log_softmax(axis=-1) @ Tensor(a)).softmax(axis=-1).data
    second = (Tensor(a).log_softmax(axis=-1) @ Tensor(a)).softmax(axis=-1).data
    np.testing.assert_array_equal(first, second)


def test_non_finite_values_rejected():
    with pytest.raises(ValueError):
        Tensor(np.array([1.0, np.inf]))


class TestAdam:
    def test_zero_gradient_fresh_state_leaves_params(self):
        p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.5, -2.0])

    def test_first_step_matches_hand_evaluation(self):
        # m_hat = v_hat = 1 at step one, so the update is lr / (1 + eps)
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
        assert abs(p.data[0] - expected) < 1e-15
        assert abs(p.data[0] - 0.9) < 1e-8

    def test_identical_inputs_update_identically(self):
        p1 = Tensor(np.array([0.3, 0.7]), requires_grad=True)
        p2 = Tensor(np.array([0.3, 0.7]), requires_grad=True)
        opt = Adam([p1, p2], lr=0.01)
        p1.grad = np.array([0.5, -0.25])
        p2.grad = np.array([0.5, -0.25])
        opt.step()
        np.testing.assert_array_equal(p1.data, p2.data)

    def test_shape_mismatch_raises(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([p])
        p.grad = np.zeros(2)
        with pytest.raises(ValueError):
            opt.step()

    def test_non_finite_gradient_raises_before_any_parameter_moves(self):
        # the loss sqrt(0) is finite, its gradient at 0 is not
        p = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        x = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([p, x], lr=0.1)
        before = [p.data.tobytes(), x.data.tobytes()]
        with np.errstate(divide="ignore"):
            ((p * p).sum() + (x ** 0.5).sum()).backward()
        with pytest.raises(ValueError, match=r"gradient of parameter 1 \(shape \(3,\)\)"):
            opt.step()
        assert [p.data.tobytes(), x.data.tobytes()] == before
        assert opt.step_count == 0

    def test_three_steps_match_the_allocating_update(self):
        # moments updated in place give the bits of the formula that made new
        # arrays; a parameter without a gradient steps as one with a zero
        # gradient. Parameters smaller than a step keep each update's last bits.
        rng = np.random.default_rng(4)
        start = [rng.normal(scale=1e-3, size=shape) for shape in ((6, 5), (8,), (4,))]
        params = [Tensor(v.copy(), requires_grad=True) for v in start]
        opt = Adam(params, lr=0.01)
        want = [a.copy() for a in start]
        m, v = [np.zeros_like(a) for a in start], [np.zeros_like(a) for a in start]
        for t in range(1, 4):
            grads = [rng.normal(size=a.shape) for a in start]
            grads[2] = grads[2] if t == 1 else None  # moments from step 1 decay without one
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            bc1, bc2 = 1.0 - Adam.BETA1**t, 1.0 - Adam.BETA2**t
            for i, g in enumerate(grads):
                g = np.zeros_like(want[i]) if g is None else g
                m[i] = Adam.BETA1 * m[i] + (1.0 - Adam.BETA1) * g
                v[i] = Adam.BETA2 * v[i] + (1.0 - Adam.BETA2) * g * g
                want[i] = want[i] - 0.01 * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + Adam.EPS)
        for got, expected in zip((params, opt.m, opt.v), (want, m, v)):
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(getattr(a, "data", a), b)

    def test_step_counter_and_decay(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(3):
            p.grad = np.array([1.0])
            opt.step()
        assert opt.step_count == 3
        assert p.data[0] < 0.9  # keeps moving against a persistent gradient


def test_numerical_gradient_on_quadratic():
    x = np.array([1.0, -2.0, 0.5])
    grad = numerical_gradient(lambda: float(0.5 * np.sum(x**2)), x)
    np.testing.assert_allclose(grad, [1.0, -2.0, 0.5], atol=1e-9)
    assert relative_error(grad, np.array([1.0, -2.0, 0.5])) < 1e-9


def test_gradient_battery_cases_are_independent(monkeypatch):
    # each case draws from its own named stream, so dropping the table's
    # first entry leaves every other case's error bit-identical
    full = gradcheck.run_suite(seeds=[0])
    monkeypatch.delitem(gradcheck.CASES, "affine")
    assert gradcheck.run_suite(seeds=[0]) == {k: v for k, v in full.items() if k != "affine"}
