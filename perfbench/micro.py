"""Single layers and fusions timed alone at the shapes the workloads feed them."""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from mvfuse.fusion import FusionConfig, make_fusion
from mvfuse.layers import Affine, Conv1d, LayerNorm, LSTMCell, MultiHeadAttention
from mvfuse.tensor import Tensor

from workloads import BATCH, KINDS

MIN_REPS = 5
BUDGET_S = 0.1


def _median_s(fn, reset=None) -> float:
    """Median wall time of ``fn`` after one untimed call; at least MIN_REPS
    repetitions and as many more as fit in BUDGET_S."""
    if reset is not None:
        reset()
    fn()
    times: list[float] = []
    while len(times) < MIN_REPS or sum(times) < BUDGET_S:
        if reset is not None:
            reset()
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _leaf(rng, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _pair(name: str, forward, leaves: list[Tensor]) -> dict[str, float]:
    def clear():
        for t in leaves:
            t.grad = None
    return {f"{name}.fwd_ms": 1e3 * _median_s(forward),
            f"{name}.fwdbwd_ms": 1e3 * _median_s(lambda: forward().sum().backward(), clear)}


def layer_metrics() -> dict[str, float]:
    """Affine, LayerNorm and Conv1d at encoders-d128 shapes; LSTMCell and
    attention at the memory and cross fusions of combos-m7."""
    rng = np.random.default_rng(0)
    out: dict[str, float] = {}
    affine = Affine(128, 128, rng)
    x = _leaf(rng, (BATCH, 128))
    out.update(_pair("layers.Affine", lambda: affine(x), [x] + affine.parameters()))
    conv = Conv1d(128, 128, rng)
    xs = _leaf(rng, (BATCH, 48, 128))
    out.update(_pair("layers.Conv1d", lambda: conv(xs), [xs] + conv.parameters()))
    norm = LayerNorm(128)
    out.update(_pair("layers.LayerNorm", lambda: norm(x), [x] + norm.parameters()))
    cell = LSTMCell(32, 16, rng)
    xc, h, c = _leaf(rng, (BATCH, 32)), _leaf(rng, (BATCH, 16)), _leaf(rng, (BATCH, 16))
    out.update(_pair("layers.LSTMCell", lambda: cell.step(xc, h, c)[0],
                     [xc, h, c] + cell.parameters()))
    mha = MultiHeadAttention(32, 8, rng)
    z = _leaf(rng, (BATCH, 8, 32))
    out.update(_pair("layers.MultiHeadAttention", lambda: mha(z), [z] + mha.parameters()))
    return out


def fusion_metrics() -> dict[str, float]:
    """Every fusion over all views present, B=128, d=32, at 3, 5 and 7 views."""
    rng = np.random.default_rng(1)
    out: dict[str, float] = {}
    for kind in KINDS:
        for m in (3, 5, 7):
            fusion = make_fusion(FusionConfig(kind=kind), m, 32, rng)
            rows = [_leaf(rng, (BATCH, 32)) for _ in range(m)]
            out.update(_pair(f"fusion.{kind}.m{m}", lambda: fusion.fuse(rows),
                             rows + fusion.parameters()))
    return out


def construct_metrics() -> dict[str, float]:
    """Cost of wrapping an existing array in a Tensor, finiteness scan included:
    a 128x128 array, and a conv activation of eval-m5 (512 samples, T=24, d=64)."""
    rng = np.random.default_rng(2)
    out = {}
    for label, shape in (("small", (128, 128)), ("large", (512, 24, 64))):
        arr = rng.standard_normal(shape)
        out[f"tensor.construct_us.{label}"] = 1e6 * _median_s(lambda: Tensor(arr))
    return out
