"""View-dedicated feature extractors.

Each view gets its own encoder mapping raw data to a latent vector of shared
width d, with a trailing learnable layer normalization so the different view
representations live on a common scale. Temporal views go through a 1D CNN
stack with global average pooling over time; static views through an MLP
stack; categorical views are one-hot encoded and routed through the MLP path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Affine, Conv1d, Dropout, LayerNorm, Module
from .tensor import Tensor

# kind -> the dimensions it takes, in ``raw_shape`` order, with each one's least value
VIEW_DIMS = {"temporal": {"time_steps": 1, "channels": 1},
             "static": {"channels": 1},
             "categorical": {"cardinality": 2}}


@dataclass(frozen=True)
class ViewSpec:
    """Identity and raw dimensions of one view.

    Temporal views are (time_steps, channels) series; static views are
    channel vectors; categorical views are single integer codes with the
    given cardinality. A dimension the kind does not take stays unset.
    """

    id: str
    kind: str
    time_steps: int | None = None
    channels: int | None = None
    cardinality: int | None = None

    def __post_init__(self):
        if self.kind not in VIEW_DIMS:
            raise ValueError(f"unknown view kind {self.kind!r}")
        dims = VIEW_DIMS[self.kind]
        for name in ("time_steps", "channels", "cardinality"):
            value = getattr(self, name)
            if name not in dims:
                if value is not None:
                    raise ValueError(f"{self.kind} view takes no {name}")
            elif value is None or value < dims[name]:
                raise ValueError(f"{self.kind} view needs {name} >= {dims[name]}")

    @property
    def raw_shape(self) -> tuple[int, ...]:
        """Per-sample shape of the view as its encoder reads it; categorical
        codes arrive one-hot."""
        return tuple(getattr(self, name) for name in VIEW_DIMS[self.kind])


@dataclass
class EncoderConfig:
    latent_dim: int = 128
    layers: int = 2
    dropout: float = 0.2
    conv_kernel: int = 3

    def __post_init__(self):
        if self.latent_dim < 2 or self.layers < 1:
            raise ValueError("latent_dim must be >= 2, since every encoder ends in a layer "
                             "norm over it, and layers must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.conv_kernel < 1 or self.conv_kernel % 2 == 0:
            raise ValueError("conv_kernel must be odd and positive")


def one_hot_batch(indices: np.ndarray, cardinality: int) -> np.ndarray:
    """One-hot rows (N, cardinality) for integer codes or class labels (N,);
    raises on out-of-range values."""
    idx = np.asarray(indices, dtype=int)
    if idx.min() < 0 or idx.max() >= cardinality:
        raise ValueError(f"code out of range [0, {cardinality})")
    out = np.zeros((idx.shape[0], cardinality))
    out[np.arange(idx.shape[0]), idx] = 1.0
    return out


def _run_layers(layers: list[Affine], dropout: Dropout, x: Tensor,
                rng: np.random.Generator | None) -> Tensor:
    """Each layer as one node with ReLU and a keep mask drawn on its output shape."""
    for layer in layers:
        keep = dropout.mask(x.shape[:-1] + (layer.W.shape[-1],), rng)
        x = layer(x, relu=True, keep=keep)
    return x


class TemporalEncoder(Module):
    """Conv1d stack with ReLU and dropout, mean-pooled over time, layer normalized;
    each layer is one ``window_affine`` node with its dropout keep mask."""

    def __init__(self, channels: int, cfg: EncoderConfig, rng: np.random.Generator):
        d = cfg.latent_dim
        self.convs = [Conv1d(channels if i == 0 else d, d, rng, kernel=cfg.conv_kernel)
                      for i in range(cfg.layers)]
        self.norm = LayerNorm(d)
        self.dropout = Dropout(cfg.dropout)

    def __call__(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        return self.norm(_run_layers(self.convs, self.dropout, x, rng).mean(axis=-2))


class StaticEncoder(Module):
    """Affine stack with ReLU and dropout, layer normalized; each layer is one
    ``window_affine`` node with its dropout keep mask."""

    def __init__(self, channels: int, cfg: EncoderConfig, rng: np.random.Generator):
        d = cfg.latent_dim
        self.affines = [Affine(channels if i == 0 else d, d, rng)
                        for i in range(cfg.layers)]
        self.norm = LayerNorm(d)
        self.dropout = Dropout(cfg.dropout)

    def __call__(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        return self.norm(_run_layers(self.affines, self.dropout, x, rng))


def make_encoder(spec: ViewSpec, cfg: EncoderConfig, rng: np.random.Generator) -> Module:
    """Build the encoder matching a view's kind; categorical views reuse the MLP."""
    encoder = TemporalEncoder if spec.kind == "temporal" else StaticEncoder
    return encoder(spec.raw_shape[-1], cfg, rng)
