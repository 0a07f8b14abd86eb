"""Model assembly: per-view encoders, a merge function, and a prediction head.

Two families cover all configurations. The feature-fusion family runs one
encoder per view and merges the encodings; missing views are either ignored
at the merge (feature level) or zero-imputed in the raw input (input level).
The input-concat family is the classical input-level baseline: one MLP over
the flattened, zero-imputed concatenation of all views.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .encoders import (EncoderConfig, StaticEncoder, ViewSpec, make_encoder,
                       one_hot_batch)
from .fusion import FusionConfig, fused_width, make_fusion
from .layers import Affine, Module
from .tensor import Tensor, check_finite, concat, no_grad, stack

LEVELS = ("input", "feature")


def batch_views(views: dict[str, np.ndarray], indices) -> dict[str, np.ndarray]:
    return {vid: arr[indices] for vid, arr in views.items()}


def raw_input(spec: ViewSpec, arr: np.ndarray) -> np.ndarray:
    """A view's raw batch as its encoder reads it: one-hot rows for
    categorical codes, float64 values otherwise."""
    if spec.kind == "categorical":
        return one_hot_batch(arr, spec.cardinality)
    return np.asarray(arr, dtype=np.float64)


class _BaseModel(Module):
    """Shared prediction plumbing for both model families."""

    view_specs: list[ViewSpec]
    task: str
    level: str

    @property
    def view_ids(self) -> list[str]:
        return [s.id for s in self.view_specs]

    def forward_masks(self, views: dict[str, np.ndarray], masks: list[tuple[int, ...]],
                      rng=None, train: bool = False) -> Tensor:
        """Outputs (K, B, n_outputs) for the batch under each of the K
        index-tuple masks."""
        raise NotImplementedError

    def forward_masked(self, views: dict[str, np.ndarray], mask: tuple[int, ...],
                       rng=None, train: bool = False) -> Tensor:
        return self.forward_masks(views, [mask], rng=rng, train=train)[0]

    def raw_inputs(self, views: dict[str, np.ndarray],
                   mask: tuple[int, ...]) -> list[np.ndarray]:
        """Every view's raw batch under ``mask``, the input-level zero imputation.

        A view outside the mask becomes zeros of its per-sample shape; its
        data is never read.
        """
        if not mask:
            raise ValueError("a mask needs at least one available view")
        batch = views[self.view_specs[mask[0]].id].shape[0]
        return [raw_input(spec, views[spec.id]) if i in mask
                else np.zeros((batch,) + spec.raw_shape)
                for i, spec in enumerate(self.view_specs)]

    def check_outputs(self, views: dict[str, np.ndarray], masks: list[tuple[int, ...]],
                      outs: Tensor, what: str) -> None:
        """Raise ValueError if an evaluation-mode output is not finite.

        Outputs built under ``no_grad`` have no graph, so on failure only the
        failing mask's forward runs again with its graph recorded and the
        error names the op of its first non-finite node.
        """
        for k, mask in enumerate(masks):
            if not np.isfinite(outs.data[k]).all():
                check_finite(self.forward_masked(views, mask), f"{what} under mask {mask}")

    def predict(self, views: dict[str, np.ndarray],
                available: np.ndarray) -> np.ndarray:
        """Evaluation-mode predictions under per-sample availability.

        ``available`` is a boolean (..., N, m) array, such as one (N, m) matrix
        per scenario stacked as (S, N, m). One ``forward_masks`` call runs all
        N samples under each distinct pattern and each sample takes the row of
        its own pattern: at feature level every view is encoded once per call
        and all patterns are fused together. Every scenario kind adds at most
        one pattern to the full one, so stacked scenarios never cost more
        than a forward per scenario. Returns probabilities (..., N, K) or
        values (..., N); a non-finite output raises ValueError.
        """
        m = available.shape[-1]
        patterns, inverse = np.unique(available.reshape(-1, m), axis=0, return_inverse=True)
        masks = [tuple(int(v) for v in np.flatnonzero(pattern)) for pattern in patterns]
        with no_grad():
            outs = self.forward_masks(views, masks)
        self.check_outputs(views, masks, outs, "prediction")
        rows = (outs.softmax(axis=-1).data if self.task == "classification"
                else outs.data[..., 0])
        return rows[inverse.reshape(available.shape[:-1]), np.arange(available.shape[-2])]


def pattern_matrix(masks: list[tuple[int, ...]], m: int) -> np.ndarray:
    """Index-tuple masks as a boolean (K, m) availability matrix."""
    patterns = np.zeros((len(masks), m), dtype=bool)
    for k, mask in enumerate(masks):
        patterns[k, list(mask)] = True
    return patterns


# Pattern rows (patterns x batch rows) fused per call. It covers all 127
# patterns of seven views at the default batch of 128, and bounds evaluation,
# which fuses every validation row under every pattern.
PATTERN_ROWS = 2**14


class FeatureFusionModel(_BaseModel):
    """Encoders per view, merge function, one-layer prediction head.

    The head consumes width d for dynamic merges and m*d for feature-level
    concatenation. At feature level ``forward_masks`` encodes each view that
    some mask needs once and fuses all masks in one ``fuse_head`` call per
    group of at most ``PATTERN_ROWS // B`` masks. At input level the model
    zero-imputes the raw data of missing views, so every mask is a full
    forward that fuses all m encodings.
    """

    def __init__(self, view_specs: list[ViewSpec], encoder_cfg: EncoderConfig,
                 fusion_cfg: FusionConfig, task: str, n_outputs: int,
                 rng: np.random.Generator, level: str = "feature"):
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}")
        m, d = len(view_specs), encoder_cfg.latent_dim
        self.view_specs = list(view_specs)
        self.encoders = [make_encoder(spec, encoder_cfg, rng) for spec in self.view_specs]
        self.fusion = make_fusion(fusion_cfg, m, d, rng)
        self.head = Affine(fused_width(fusion_cfg, m, d), n_outputs, rng)
        self.task = task
        self.level = level

    def encode_view(self, index: int, arr: np.ndarray, rng=None,
                    train: bool = False) -> Tensor:
        spec = self.view_specs[index]
        return self.encoders[index](Tensor(raw_input(spec, arr)), rng=rng, train=train)

    def fuse_head(self, rows: list, available=None, rng=None, train: bool = False) -> Tensor:
        return self.head(self.fusion.fuse(rows, available, rng=rng, train=train))

    def forward_masks(self, views: dict[str, np.ndarray], masks: list[tuple[int, ...]],
                      rng=None, train: bool = False) -> Tensor:
        m = len(self.view_specs)
        if self.level == "input":
            return stack([self.fuse_head([enc(Tensor(x), rng=rng, train=train)
                                          for enc, x in zip(self.encoders,
                                                            self.raw_inputs(views, mask))],
                                         rng=rng, train=train)
                          for mask in masks])
        patterns = pattern_matrix(masks, m)
        rows = [self.encode_view(i, views[self.view_specs[i].id], rng=rng, train=train)
                if patterns[:, i].any() else None for i in range(m)]
        batch = next((r.shape[0] for r in rows if r is not None), 1)
        group = max(1, PATTERN_ROWS // batch)
        outs = [self.fuse_head(rows, patterns[start:start + group], rng=rng, train=train)
                for start in range(0, len(masks), group)]
        return outs[0] if len(outs) == 1 else concat(outs, axis=0)


class InputConcatModel(_BaseModel):
    """Input-level fusion baseline: zero-imputed flat concatenation into one MLP."""

    def __init__(self, view_specs: list[ViewSpec], encoder_cfg: EncoderConfig,
                 task: str, n_outputs: int, rng: np.random.Generator):
        self.view_specs = list(view_specs)
        width = sum(int(np.prod(spec.raw_shape)) for spec in self.view_specs)
        self.encoder = StaticEncoder(width, encoder_cfg, rng)
        self.head = Affine(encoder_cfg.latent_dim, n_outputs, rng)
        self.task = task
        self.level = "input"

    def forward_masks(self, views: dict[str, np.ndarray], masks: list[tuple[int, ...]],
                      rng=None, train: bool = False) -> Tensor:
        outs = []
        for mask in masks:
            flat = np.concatenate([x.reshape(x.shape[0], -1)
                                   for x in self.raw_inputs(views, mask)], axis=1)
            outs.append(self.head(self.encoder(Tensor(flat), rng=rng, train=train)))
        return stack(outs)


def build_model(view_specs: list[ViewSpec], encoder_cfg: EncoderConfig,
                fusion_cfg: FusionConfig, task: str, n_outputs: int,
                level: str, rng: np.random.Generator) -> _BaseModel:
    """Pick the model family for a fusion kind and missing-handling level."""
    if fusion_cfg.kind == "concat" and level == "input":
        return InputConcatModel(view_specs, encoder_cfg, task, n_outputs, rng)
    return FeatureFusionModel(view_specs, encoder_cfg, fusion_cfg, task,
                              n_outputs, rng, level=level)


# -- snapshots -------------------------------------------------------------------


def _replace_atomically(path: Path, write) -> None:
    """``write(fh)`` into a temporary file, then rename it over ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_model(model: _BaseModel, encoder_cfg: EncoderConfig, fusion_cfg: FusionConfig,
               n_outputs: int, out_dir: str | Path) -> Path:
    """Write ``model.npz``, then ``model.json``, each atomically, so a failed
    save never leaves a ``model.json`` without its ``model.npz``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arch = {
        "views": [vars(s) for s in model.view_specs],
        "encoder": vars(encoder_cfg),
        "fusion": vars(fusion_cfg),
        "task": model.task,
        "n_outputs": n_outputs,
        "level": model.level,
    }
    arrays = {name: p.data for name, p in model.named_parameters()}
    # np.savez appends ".npz" to a path without it, so it gets the open handle
    _replace_atomically(out / "model.npz", lambda fh: np.savez(fh, **arrays))
    text = json.dumps(arch, indent=2, sort_keys=True) + "\n"
    _replace_atomically(out / "model.json", lambda fh: fh.write(text.encode()))
    return out / "model.json"


def load_model(model_dir: str | Path) -> _BaseModel:
    model_dir = Path(model_dir)
    arch_path = model_dir / "model.json"
    with open(arch_path) as fh:
        arch = json.load(fh)
    for key in ("views", "encoder", "fusion", "task", "n_outputs", "level"):
        if not isinstance(arch, dict) or key not in arch:
            raise ValueError(f"{arch_path} is missing required key {key!r}")
    try:
        specs = [ViewSpec(**entry) for entry in arch["views"]]
        encoder_cfg = EncoderConfig(**arch["encoder"])
        fusion_cfg = FusionConfig(**arch["fusion"])
        model = build_model(specs, encoder_cfg, fusion_cfg, arch["task"],
                            arch["n_outputs"], arch["level"], np.random.default_rng(0))
    except (TypeError, ValueError) as exc:  # an unknown, missing or ill-typed field
        raise ValueError(f"{arch_path}: {exc}") from exc
    with np.load(model_dir / "model.npz") as arrays:
        params = dict(model.named_parameters())
        if set(arrays.files) != set(params):
            raise ValueError("snapshot parameters do not match the architecture")
        for name, p in params.items():
            value = arrays[name]
            if value.shape != p.data.shape:
                raise ValueError(f"snapshot parameter {name} has shape {value.shape}, "
                                 f"the architecture expects {p.data.shape}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"snapshot parameter {name} has non-finite values")
            p.data = value
    return model
