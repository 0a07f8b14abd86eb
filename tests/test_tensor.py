"""Tensor core: softmax, reverse-mode gradients, Adam."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfuse import tensor as tensor_module
from mvfuse.gradcheck import check_gradients, numerical_gradient, relative_error
from mvfuse.tensor import (WINDOW_BLOCK, Adam, EmptySupportError, Tensor, backward, concat,
                           lstm, lstm_scan, no_grad, softmax_mix, stack, window_affine)


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
                                         np.array([[[True, False, False, True]],
                                                   [[False, False, False, False]]])],
                             ids=["none", "mask", "broadcast"])
    def test_bit_identical_to_separate_buffers(self, exclude):
        # the softmax as separate where, exp and division buffers
        x = np.random.default_rng(4).normal(size=(3, 4)) * 20.0
        if exclude is None:
            e = np.exp(x - x.max(axis=-1, keepdims=True))
        else:
            excl = np.broadcast_to(exclude, np.broadcast_shapes(x.shape, exclude.shape))
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

    def test_exclude_broadcasts_the_input(self):
        # one set of logits under two exclusion patterns, each as its own softmax
        x = np.array([[0.5, -0.2, 1.0], [2.0, 0.1, -1.0]])
        patterns = np.array([[False, True, False], [True, False, False]])
        out = Tensor(x).softmax(axis=-1, exclude=patterns[:, None, :]).data
        assert out.shape == (2, 2, 3)
        for pattern, got in zip(patterns, out):
            np.testing.assert_array_equal(got, Tensor(x).softmax(axis=-1, exclude=pattern).data)

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
        axis=-1, exclude=np.array([[[False, True, False]], [[True, False, True]]])),
    "log_softmax_rows": lambda a, b: a.log_softmax(axis=-1),
    "softmax_mix": lambda a, b: softmax_mix(a.reshape((3, 1, 2)), b.reshape((3, 2, 1))),
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
    # every input requires grad, over leading axes (2, 3)
    rng = np.random.default_rng(seed)
    k, d = 3, 2
    inputs = {"x": (2, 3, k), "h": (2, 3, d), "c": (2, 3, d), "W": (k + d, 4 * d), "b": (4 * d,)}
    ts = {name: Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
          for name, shape in inputs.items()}
    errs = check_gradients(lambda: sum_sq(lstm(*ts.values())), ts)
    assert max(errs.values()) < 1e-4, errs


def test_lstm_inputs_over_different_leading_axes_raise():
    x, h, c = Tensor(np.ones((6, 3))), Tensor(np.ones((2, 3, 2))), Tensor(np.ones((2, 3, 2)))
    W, b = Tensor(np.ones((5, 8))), Tensor(np.ones(8))
    with pytest.raises(ValueError, match="same leading axes"):
        lstm(x, h, c, W, b)


@pytest.mark.parametrize("W_shape, b_shape, words", [
    ((6, 8), (8,), r"lstm step expects input dim 4, got 3"),
    ((5, 12), (12,), r"lstm needs W \(k\+2, 8\), b \(8,\), got \(5, 12\), \(12,\)"),
    ((5, 8), (6,), r"lstm needs W \(k\+2, 8\), b \(8,\), got \(5, 8\), \(6,\)"),
    ((1, 5, 8), (8,), r"lstm needs W \(k\+2, 8\)")],
    ids=["other-input-width", "other-state-width", "short-bias", "3d-weight"])
def test_lstm_weights_for_other_widths_raise(W_shape, b_shape, words):
    # x (6, 3) and a state of width 2 need W (5, 8) and b (8,)
    x, h, c = Tensor(np.ones((6, 3))), Tensor(np.ones((6, 2))), Tensor(np.ones((6, 2)))
    with pytest.raises(ValueError, match=words):
        lstm(x, h, c, Tensor(np.ones(W_shape)), Tensor(np.ones(b_shape)))


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
    ts = [Tensor(x, requires_grad=True), Tensor(h, requires_grad=state_grad),
          Tensor(c, requires_grad=state_grad), Tensor(W, requires_grad=True),
          Tensor(b, requires_grad=True)]
    hc = lstm(*ts)
    (hc * Tensor(np.stack([gh, gc]))).sum().backward()
    want = composed_lstm(x, h, c, W, b, gh, gc)
    got = [hc.data[0], hc.data[1]] + [t.grad for t in ts]
    for name, value, expected in zip(["h", "c", "dx", "dh", "dc", "dW", "db"], got, want):
        if value is None:
            assert not state_grad and name in ("dh", "dc")
            continue
        assert np.isfinite(value).all(), name
        assert_relative(value, expected)
    np.testing.assert_array_equal(hc.data[1, 4], c[4] - 1.0)
    np.testing.assert_array_equal(hc.data[0, 4], np.tanh(c[4] - 1.0))
    np.testing.assert_array_equal(hc.data[:, 5], np.zeros((2, d)))


def scan_oracle(cell, xs, inputs, parents):
    """``lstm_scan``'s h per step as a loop of ``LSTMCell.step``: each step
    stacks its input blocks and each block's parent state from the step
    before, the first from the cell's zero state."""
    n, hs = xs[inputs[0][0]].shape[0], []
    for t, step in enumerate(inputs):
        x = concat([xs[i] for i in step], axis=0)
        if t == 0:
            h, c = cell.zero_state((x.shape[0],))
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
}


def scan_case(name, seed=0):
    from mvfuse.layers import LSTMCell
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
        last = lstm_scan(xs, cell.W, cell.b, inputs, parents, last=True)
    assert len(got) == len(want) and len(last) == 1
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.data, w)
        assert g.data.flags.c_contiguous and not g.requires_grad
    np.testing.assert_array_equal(last[0].data, want[-1])


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
    # the shared parents of the tree), W and b within 1e-12
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
    got_h, got_g = run(lstm_scan(xs, cell.W, cell.b, inputs, parents, last=last))
    for g, w in zip(got_h, want_h):
        np.testing.assert_array_equal(g, w)
    for g, w in zip(got_g, want_g):
        assert_relative(g, w)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lstm_scan_gradients_match_finite_differences(seed):
    # a prefix tree with shared parents, every output read
    cell, xs, inputs, parents = scan_case("tree", seed)
    ts = {f"x{i}": x for i, x in enumerate(xs)} | {"W": cell.W, "b": cell.b}
    errs = check_gradients(
        lambda: sum((sum_sq(h) for h in lstm_scan(xs, cell.W, cell.b, inputs, parents)),
                    Tensor(0.0)), ts)
    assert max(errs.values()) < 1e-4, errs


@pytest.mark.parametrize("record", [True, False], ids=["recorded", "unrecorded"])
def test_lstm_scan_saturated_rows_stay_finite(record):
    # rows 0 and 1 of every block read x[:, 0] = +-1 through weights of +-800,
    # so their pre-activations stay near +-800 at every step: in row 0
    # i = f = o = 1 and g = -1, so c falls by exactly 1 a step; in row 1
    # i = f = o = 0 and g = 1, so h and c stay exactly 0
    from mvfuse.layers import LSTMCell
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


# (shape, K, leading rows per block): at c = 8 a block holds 170 rows of
# T = 16, K = 3 and 819 of T = 2, K = 5; every multi-block case ends ragged
@pytest.mark.parametrize("shape, kernel, blocks", [
    ((400, 16, 8), 3, 3), ((7, 60, 16, 8), 3, 3), ((1000, 2, 8), 5, 2), ((3, 5, 8), 3, 1)],
    ids=["ragged-blocks", "two-leading-axes", "T-below-K", "one-block"])
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


def test_softmax_mix_matches_composed_ops():
    rng = np.random.default_rng(7)
    logits, values = rng.normal(size=(4, 3, 2, 5)), rng.normal(size=(4, 1, 2, 5))
    out = softmax_mix(Tensor(logits), Tensor(values)).data
    weights = Tensor(logits).softmax(axis=0).data
    assert out.shape == (3, 2, 5)
    np.testing.assert_allclose(out, (weights * values).sum(axis=0), rtol=0, atol=1e-14)


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
    for op in (lambda: x * mask, lambda: x + mask,
               lambda: softmax_mix(x, mask)):
        seen.clear()
        op().sum().backward()
        assert seen == [(2, 3)]


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
