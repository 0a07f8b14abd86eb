"""Finite-difference gradient verification.

Central differences are the independent oracle for every differentiable
operation in this package; nothing here reuses the reverse-mode machinery
beyond calling the forward pass. ``run_suite`` drives the standard battery
over all layers and fusion functions and is what the command line
``gradcheck`` subcommand executes.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .tensor import Tensor, backward, gated_mix

STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4


def numerical_gradient(f: Callable[[], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of ``f`` with respect to ``x``.

    ``f`` must read ``x`` afresh on every call; ``x`` is perturbed in place
    one coordinate at a time and restored afterwards.
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        up = f()
        flat[i] = orig - STEP
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * STEP)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise error, relative for large entries, absolute for small."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(build_loss: Callable[[], Tensor],
                    params: Mapping[str, Tensor]) -> dict[str, float]:
    """Compare reverse-mode gradients of a scalar loss against central differences.

    ``build_loss`` must run a deterministic forward pass that closes over the
    given parameters. Returns the max relative error per parameter.
    """
    for p in params.values():
        p.grad = None
    analytic = backward(build_loss(), list(params.values()))
    errors = {}
    for (name, p), grad in zip(params.items(), analytic):
        numeric = numerical_gradient(lambda: build_loss().item(), p.data)
        errors[name] = relative_error(grad, numeric)
    return errors


def _sum_squares(t: Tensor) -> Tensor:
    return (t * t).sum() * 0.5


def run_suite(seeds: Sequence[int] = tuple(range(20))) -> dict[str, float]:
    """Gradient-check every layer and fusion path over the given seeds.

    Returns the max relative error per case, aggregated over seeds. Shapes
    are kept tiny so the whole battery runs in seconds.
    """
    from . import layers
    from .fusion import (AverageFusion, ConcatFusion, CrossAttentionFusion, FusionConfig,
                         GatedFusion, MemoryFusion, make_fusion)

    results: dict[str, float] = {}

    def record(name: str, err: float) -> None:
        results[name] = max(results.get(name, 0.0), err)

    for seed in seeds:
        rng = np.random.default_rng(seed)

        def unit(shape):
            return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)

        # affine
        x = unit((3, 4))
        aff = layers.Affine(4, 5, rng)
        params = {"x": x, "W": aff.W, "b": aff.b}
        errs = check_gradients(lambda: _sum_squares(aff(x)), params)
        record("affine", max(errs.values()))

        # conv1d, same padding
        x = unit((6, 3))
        conv = layers.Conv1d(3, 4, rng, kernel=3)
        params = {"x": x, "W": conv.W, "b": conv.b}
        errs = check_gradients(lambda: _sum_squares(conv(x)), params)
        record("conv1d", max(errs.values()))

        # layer norm
        x = unit((3, 6))
        ln = layers.LayerNorm(6)
        ln.gain.data = rng.uniform(0.5, 1.5, size=6)
        ln.shift.data = rng.uniform(-0.5, 0.5, size=6)
        params = {"x": x, "gain": ln.gain, "shift": ln.shift}
        errs = check_gradients(lambda: _sum_squares(ln(x)), params)
        record("layer_norm", max(errs.values()))

        # lstm cell, three chained steps
        cell = layers.LSTMCell(3, 4, rng)
        xs = [unit((2, 3)) for _ in range(3)]
        params = {"W": cell.W, "b": cell.b}
        params.update({f"x{i}": x for i, x in enumerate(xs)})

        def lstm_loss():
            h_t = Tensor(np.zeros((2, 4)))
            c_t = Tensor(np.zeros((2, 4)))
            for x_t in xs:
                h_t, c_t = cell.step(x_t, h_t, c_t)
            return _sum_squares(h_t)

        errs = check_gradients(lstm_loss, params)
        record("lstm", max(errs.values()))

        # multi-head attention
        z = unit((1, 3, 8))
        mha = layers.MultiHeadAttention(8, heads=2, rng=rng)
        params = {"z": z, "W_Q": mha.W_Q, "W_K": mha.W_K, "W_V": mha.W_V}
        errs = check_gradients(lambda: _sum_squares(mha(z)), params)
        record("attention", max(errs.values()))

        # masked softmax
        x = unit((4, 5))
        mask = np.zeros(5, dtype=bool)
        mask[[1, 3]] = True
        errs = check_gradients(lambda: _sum_squares(x.softmax(axis=-1, exclude=mask)), {"x": x})
        record("masked_softmax", max(errs.values()))

        # fusion paths over available subset {0, 2} of 3 views, and over
        # three views under mixed patterns, one batch fused under each; the
        # mixed patterns share the prefix (0, 1) and the suffix (1, 2) and
        # have two lengths, so memory fusion shares first-layer states
        m, d = 3, 4
        rows_avail = [unit((2, d)), None, unit((2, d))]
        rows_all = [unit((2, d)) for _ in range(m)]
        mixed = np.array([[True, True, False], [False, True, True], [True, True, True]])

        fusions = [("fusion_average", AverageFusion()),
                   ("fusion_gated", GatedFusion(m, d, rng)),
                   ("fusion_cross", CrossAttentionFusion(
                       m, d, FusionConfig(kind="cross", heads=2, layers=1, dropout=0.0), rng)),
                   ("fusion_memory", MemoryFusion(
                       d, FusionConfig(kind="memory", layers=2, dropout=0.0), rng))]
        for name, fusion in fusions:
            for suffix, rows, available in (("", rows_avail, None),
                                            ("_mixed", rows_all, mixed)):
                params = {f"z{i}": r for i, r in enumerate(rows) if r is not None}
                params.update(dict(fusion.named_parameters(name)))
                errs = check_gradients(lambda: _sum_squares(fusion.fuse(rows, available)), params)
                record(name + suffix, max(errs.values()))

        # encoder layer: conv1d, ReLU and a fixed keep mask in one node; last,
        # so that no other case's data moves
        x, conv = unit((2, 5, 3)), layers.Conv1d(3, 4, rng, kernel=3)
        keep = (rng.random((2, 5, 4)) < 0.7) / 0.7
        errs = check_gradients(lambda: _sum_squares(conv(x, relu=True, keep=keep)),
                               {"x": x, "W": conv.W, "b": conv.b})
        record("encoder_layer", max(errs.values()))

        # concat over the same rows, then average and concat with the head
        # folded into their per-view products; after the encoder layer, so
        # that no earlier case's data moves
        concat_fusion = ConcatFusion(m, d)
        for suffix, rows, available in (("", rows_avail, None), ("_mixed", rows_all, mixed)):
            params = {f"z{i}": r for i, r in enumerate(rows) if r is not None}
            errs = check_gradients(
                lambda: _sum_squares(concat_fusion.fuse(rows, available)), params)
            record("fusion_concat" + suffix, max(errs.values()))
        for name, fusion, width in (("fusion_average_head_mixed", AverageFusion(), d),
                                    ("fusion_concat_head_mixed", concat_fusion, m * d)):
            head = layers.Affine(width, 3, rng)
            params = {f"z{i}": r for i, r in enumerate(rows_all)}
            params.update({"W": head.W, "b": head.b})
            errs = check_gradients(
                lambda: _sum_squares(fusion.fuse(rows_all, mixed, head=head)), params)
            record(name, max(errs.values()))

        # cross and memory in train mode over the mixed patterns, the rows'
        # gradients only: a freshly seeded generator per loss evaluation fixes
        # the keep masks and the permutation; last, so no other data moves
        for kind in ("cross", "memory"):
            fusion = make_fusion(FusionConfig(kind=kind, heads=2, layers=2, dropout=0.4,
                                              permute=kind == "memory"), m, d, rng)
            params = {f"z{i}": r for i, r in enumerate(rows_all)}
            errs = check_gradients(lambda: _sum_squares(
                fusion.fuse(rows_all, mixed, rng=np.random.default_rng(seed))), params)
            record(f"fusion_{kind}_train_mixed", max(errs.values()))

        # attention under three key sets on the query axis, the first row's
        # queries alone and a fixed keep mask over the kept keys; then a
        # layer's own train-time forward, a freshly seeded generator per loss
        # evaluation fixing its keep mask; last, so no other data moves
        z, mha = unit((2, 4, 4)), layers.MultiHeadAttention(4, heads=2, rng=rng)
        params = {"z": z, "W_Q": mha.W_Q, "W_K": mha.W_K, "W_V": mha.W_V}
        sets = np.array([[False, True, False, True], [False, False, True, False],
                         [False, False, False, False]])
        exclude = sets[:, None, None, None, :]
        keep = (rng.random((2, 2, 3, 1, 4)) < 0.7) / 0.7 * ~sets[:, None, :]
        errs = check_gradients(lambda: _sum_squares(
            mha.attend(z, exclude=exclude, keep=keep, first_row=True)), params)
        record("attention_key_sets", max(errs.values()))
        mha.dropout = layers.Dropout(0.4)
        errs = check_gradients(lambda: _sum_squares(mha(z, rng=np.random.default_rng(seed))),
                               params)
        record("attention_train", max(errs.values()))

        # the gated mix alone over four views, view 2 unused, under patterns
        # of unsorted lengths, one of them repeated; last, so no other data
        # moves
        rows = [unit((2, 3)), unit((2, 3)), None, unit((2, 3))]
        W, b = unit((12, 12)), unit((12,))
        patterns = np.array([[1, 1, 0, 1], [1, 0, 0, 0], [0, 1, 0, 1], [1, 0, 0, 0],
                             [1, 1, 0, 0]], dtype=bool)
        params = {"z0": rows[0], "z1": rows[1], "z3": rows[3], "W": W, "b": b}
        errs = check_gradients(lambda: _sum_squares(gated_mix(rows, W, b, patterns)), params)
        record("gated_mix", max(errs.values()))

    return results
