"""Finite-difference gradient verification.

Central differences are the independent oracle for every differentiable
operation in this package; nothing here reuses the reverse-mode machinery
beyond calling the forward pass. ``CASES``, the standard battery over all
layers and fusion functions, maps each case's name to a builder that takes
the case's own generator, ``rng.stream(seed, "gradcheck", name)``, and
returns its forward and named parameters; so a case's numbers depend on the
seed and its name alone. The cases named in ``SCALES`` take their output
times a constant, so that their gradients are large enough for the bound to
be a relative one. ``run_suite`` checks every case over a range of seeds and
is what the command line ``gradcheck`` subcommand executes.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from . import layers
from .fusion import FusionConfig, fused_width, make_fusion
from .rng import stream
from .tensor import Tensor, backward, cross_entropy, gated_mix

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


# three patterns over three views that share the prefix (0, 1) and the suffix
# (1, 2) and have two lengths, so memory fusion shares first-layer states
MIXED = np.array([[True, True, False], [False, True, True], [True, True, True]])


def _unit(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)


def _named(rows: list) -> dict[str, Tensor]:
    return {f"z{i}": r for i, r in enumerate(rows) if r is not None}


def _fresh(forward: Callable[[np.random.Generator], Tensor],
           rng: np.random.Generator) -> Callable[[], Tensor]:
    """``forward`` under a generator made afresh from one drawn seed on each
    call, so every loss evaluation draws the same keep masks and permutation."""
    seed = int(rng.integers(2**63))
    return lambda: forward(np.random.default_rng(seed))


def _linear(layer, shape, d_out: int, rng):
    """An affine or a same-padded conv1d layer."""
    x, lin = _unit(rng, shape), layer(shape[-1], d_out, rng)
    return (lambda: lin(x)), {"x": x, "W": lin.W, "b": lin.b}


def _encoder_layer(rng, pool: bool = False):
    """Conv1d, ReLU and a fixed keep mask in one node; with ``pool``, a
    temporal encoder's last layer, which returns its mean over time."""
    x, conv = _unit(rng, (2, 5, 3)), layers.Conv1d(3, 4, rng, kernel=3)
    keep = (rng.random((2, 5, 4)) < 0.7) / 0.7
    return ((lambda: conv(x, relu=True, keep=keep, pool=pool)),
            {"x": x, "W": conv.W, "b": conv.b})


def _layer_norm(rng):
    x, ln = _unit(rng, (3, 6)), layers.LayerNorm(6)
    ln.gain.data = rng.uniform(0.5, 1.5, size=6)
    ln.shift.data = rng.uniform(-0.5, 0.5, size=6)
    return (lambda: ln(x)), {"x": x, "gain": ln.gain, "shift": ln.shift}


def _lstm(rng):
    """Three chained steps from a zero state."""
    cell = layers.LSTMCell(3, 4, rng)
    xs = [_unit(rng, (2, 3)) for _ in range(3)]

    def forward():
        h_t = c_t = Tensor(np.zeros((2, 4)))
        for x_t in xs:
            h_t, c_t = cell.step(x_t, h_t, c_t)
        return h_t

    return forward, {"W": cell.W, "b": cell.b, **{f"x{i}": x for i, x in enumerate(xs)}}


def _mha(rng, shape, dropout=0.0):
    z = _unit(rng, shape)
    mha = layers.MultiHeadAttention(shape[-1], heads=2, rng=rng, dropout=dropout)
    return z, mha, {"z": z, "W_Q": mha.W_Q, "W_K": mha.W_K, "W_V": mha.W_V}


def _attention(shape, dropout: float, rng):
    """A layer's own forward, at train time if it has dropout."""
    z, mha, params = _mha(rng, shape, dropout)
    return _fresh(lambda gen: mha(z, rng=gen), rng), params


def _attention_key_sets(rng):
    """Three key sets on the query axis, the first row's queries alone and a
    fixed keep mask over the kept keys."""
    z, mha, params = _mha(rng, (2, 4, 4))
    sets = np.array([[0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 0]], dtype=bool)
    keep = (rng.random((2, 2, 3, 1, 4)) < 0.7) / 0.7 * ~sets[:, None, :]
    return (lambda: mha.attend(z, exclude=sets[:, None, None, None, :], keep=keep,
                               first_row=True)), params


def _masked_softmax(rng):
    x = _unit(rng, (4, 5))
    exclude = np.isin(np.arange(5), [1, 3])
    return (lambda: x.softmax(axis=-1, exclude=exclude)), {"x": x}


def _gated_mix(rng):
    """The gated mix alone over four views, view 2 unused, under patterns of
    unsorted lengths, one of them repeated."""
    rows = [_unit(rng, (2, 3)), _unit(rng, (2, 3)), None, _unit(rng, (2, 3))]
    W, b = _unit(rng, (12, 12)), _unit(rng, (12,))
    patterns = np.array([[1, 1, 0, 1], [1, 0, 0, 0], [0, 1, 0, 1], [1, 0, 0, 0],
                         [1, 1, 0, 0]], dtype=bool)
    return (lambda: gated_mix(rows, W, b, patterns)), {**_named(rows), "W": W, "b": b}


def _cross_entropy(rng):
    """The class-weighted loss over five rows of three logits."""
    logits = _unit(rng, (5, 3))
    y, weights = rng.integers(0, 3, 5), rng.uniform(0.5, 2.0, 3)
    return (lambda: cross_entropy(logits, y, weights)), {"logits": logits}


def _rows(rng, mixed: bool) -> tuple[list, np.ndarray | None]:
    """Rows of width 4 over three views: all three under ``MIXED``, one batch
    fused under each pattern, or views 0 and 2 under their one pattern."""
    if mixed:
        return [_unit(rng, (2, 4)) for _ in range(3)], MIXED
    return [_unit(rng, (2, 4)), None, _unit(rng, (2, 4))], None


def _fusion(kind: str, mixed: bool, rng):
    """A fusion in evaluation mode, the rows' and its own gradients."""
    rows, available = _rows(rng, mixed)
    fusion = make_fusion(FusionConfig(kind=kind, heads=2, dropout=0.0), 3, 4, rng)
    return ((lambda: fusion.fuse(rows, available)),
            {**_named(rows), **dict(fusion.named_parameters("fusion"))})


def _fusion_head(kind: str, rng):
    """Average or concat with the head folded into their per-view products,
    or cross in evaluation mode with it folded into its final layer's values."""
    rows, available = _rows(rng, mixed=True)
    cfg = FusionConfig(kind=kind, heads=2)
    fusion, head = make_fusion(cfg, 3, 4, rng), layers.Affine(fused_width(cfg, 3, 4), 3, rng)
    return ((lambda: fusion.fuse(rows, available, head=head)),
            {**_named(rows), **dict(fusion.named_parameters("fusion")), "W": head.W,
             "b": head.b})


def _fusion_train(kind: str, rng):
    """Two layers in train mode, the rows' gradients only."""
    rows, available = _rows(rng, mixed=True)
    fusion = make_fusion(FusionConfig(kind=kind, heads=2, layers=2, dropout=0.4,
                                      permute=kind == "memory"), 3, 4, rng)
    return _fresh(lambda gen: fusion.fuse(rows, available, rng=gen), rng), _named(rows)


def _memory_layers3_train(rng):
    """Three memory layers in train mode, dropout and permutation included;
    the rows' gradients only."""
    rows, available = _rows(rng, mixed=True)
    fusion = make_fusion(FusionConfig(kind="memory", layers=3, dropout=0.4, permute=True),
                         3, 4, rng)
    return _fresh(lambda gen: fusion.fuse(rows, available, rng=gen), rng), _named(rows)


def _scaled(scale: float, build: Callable, rng: np.random.Generator):
    """``build``'s case with its output times ``scale``."""
    forward, params = build(rng)
    return (lambda: forward() * scale), params


CASES: dict[str, Callable] = {
    "affine": partial(_linear, layers.Affine, (3, 4), 5),
    "conv1d": partial(_linear, layers.Conv1d, (6, 3), 4),
    "encoder_layer": _encoder_layer, "encoder_layer_pool": partial(_encoder_layer, pool=True),
    "layer_norm": _layer_norm, "lstm": _lstm,
    "attention": partial(_attention, (1, 3, 8), 0.0),
    "attention_train": partial(_attention, (2, 4, 4), 0.4),
    "attention_key_sets": _attention_key_sets,
    "masked_softmax": _masked_softmax, "gated_mix": _gated_mix, "cross_entropy": _cross_entropy,
    **{f"fusion_{kind}{suffix}": partial(_fusion, kind, mixed)
       for kind in ("average", "gated", "cross", "memory", "concat")
       for suffix, mixed in (("", False), ("_mixed", True))},
    **{f"fusion_{kind}_head_mixed": partial(_fusion_head, kind)
       for kind in ("average", "concat", "cross")},
    **{f"fusion_{kind}_train_mixed": partial(_fusion_train, kind) for kind in ("cross", "memory")},
    "fusion_memory_layers3_train": _memory_layers3_train,
}

# Some cases' outputs are small, so their losses' gradients are too, and where
# all entries are below 1 ``relative_error`` is an absolute error and the bound
# loose. These scales lift the largest entry over seeds 0-19 to at least 1
# (unscaled -> scaled): lstm 0.18 -> 2.9, masked_softmax 0.12 -> 1.9,
# cross_entropy 1.1 -> 4.3, fusion_memory 0.066 -> 4.2, fusion_memory_mixed
# 0.23 -> 3.6, fusion_memory_train_mixed 0.031 -> 2.0 and three memory layers
# 0.0055 -> 1.4.
SCALES = {"lstm": 4.0, "masked_softmax": 4.0, "cross_entropy": 2.0, "fusion_memory": 8.0,
          "fusion_memory_mixed": 4.0, "fusion_memory_train_mixed": 8.0,
          "fusion_memory_layers3_train": 16.0}
CASES.update({name: partial(_scaled, scale, CASES[name]) for name, scale in SCALES.items()})


def run_suite(seeds: Sequence[int] = tuple(range(20))) -> dict[str, float]:
    """Gradient-check every case of ``CASES`` over the given seeds.

    Returns the max relative error per case, aggregated over seeds. Shapes
    are kept tiny so the whole battery runs in seconds.
    """
    results: dict[str, float] = {}
    for seed in seeds:
        for name, build in CASES.items():
            forward, params = build(stream(seed, "gradcheck", name))
            errs = check_gradients(lambda: _sum_squares(forward()), params)
            results[name] = max(results.get(name, 0.0), *errs.values())
    return results
