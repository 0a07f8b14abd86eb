"""Model assembly: per-view encoders, a merge function, and a prediction head.

Two families cover all configurations. The feature-fusion family runs one
encoder per view and merges the encodings; missing views are either ignored
at the merge (feature level) or zero-imputed in the raw input (input level).
The input-concat family is the classical input-level baseline: one MLP over
the flattened, zero-imputed concatenation of all views.

Which views are present is a boolean availability pattern, one (m,) row per
pattern, checked by ``fusion.check_available``. The input level is one loop
in ``_BaseModel.forward_masks``: each pattern zero-imputes its missing views'
raw inputs and runs the family's ``_forward_inputs``.

A snapshot is ``model.npz`` plus ``model.json``, a ``Snapshot`` in the config schema.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .data import MultiViewDataset
from .encoders import (EncoderConfig, StaticEncoder, ViewSpec, make_encoder,
                       one_hot_batch)
from .fusion import FusionConfig, check_available, fused_width, make_fusion
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


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)`` of boolean rows (n, m),
    from one ``lexsort`` of the rows packed into bytes, first column most
    significant: the same lexicographic order, many times faster."""
    packed = np.packbits(rows, axis=1)
    order = np.lexsort(packed.T[::-1])
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (packed[order[1:]] != packed[order[:-1]]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[order[first]], inverse


class _BaseModel(Module):
    """Shared prediction plumbing for both model families."""

    view_specs: list[ViewSpec]
    task: str
    level: str

    @property
    def view_ids(self) -> list[str]:
        return [s.id for s in self.view_specs]

    def forward_masks(self, views: dict[str, np.ndarray], available: np.ndarray,
                      rng=None) -> Tensor:
        """Outputs (K, B, n_outputs) under each of the K boolean availability
        patterns of ``available`` (K, m); a generator ``rng`` draws dropout.

        This is the input level: every pattern, in order, is a full forward of
        ``_forward_inputs`` over its zero-imputed inputs.
        """
        available = check_available(available, len(self.view_specs))
        return stack([self._forward_inputs(self._raw_inputs(views, pattern), rng=rng)
                      for pattern in available])

    def _forward_inputs(self, inputs: list[np.ndarray], rng=None) -> Tensor:
        """Outputs (B, n_outputs) from every view's raw batch."""
        raise NotImplementedError

    def forward_masked(self, views: dict[str, np.ndarray], pattern: np.ndarray, rng=None) -> Tensor:
        """Outputs (B, n_outputs) under one boolean (m,) availability pattern."""
        return self.forward_masks(views, [pattern], rng=rng)[0]

    def _raw_inputs(self, views: dict[str, np.ndarray],
                    pattern: np.ndarray) -> list[np.ndarray]:
        """Every view's raw batch under one checked boolean (m,) ``pattern``,
        the input-level zero imputation.

        A view the pattern leaves out becomes zeros of its per-sample shape;
        its data is never read.
        """
        batch = views[self.view_specs[int(np.argmax(pattern))].id].shape[0]
        return [raw_input(spec, views[spec.id]) if present
                else np.zeros((batch,) + spec.raw_shape)
                for spec, present in zip(self.view_specs, pattern)]

    def check_outputs(self, views: dict[str, np.ndarray], available: np.ndarray,
                      what: str) -> Tensor:
        """Evaluation-mode outputs (K, B, n_outputs) under the K patterns of
        ``available``, built under ``no_grad``. If one is not finite, only its
        pattern's forward runs again with its graph recorded, and the
        ValueError names the pattern's views and its first non-finite op."""
        with no_grad():
            outs = self.forward_masks(views, available)
        for pattern, out in zip(available, outs.data):
            if not np.isfinite(out).all():
                names = tuple(s.id for s, present in zip(self.view_specs, pattern) if present)
                check_finite(self.forward_masked(views, pattern), f"{what} under views {names}")
        return outs

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
        values (..., N). An availability without one (m,) row per sample, or a
        non-finite output, raises ValueError.
        """
        m = len(self.view_specs)
        available = check_available(available, m)
        counts = sorted({len(views[vid]) for vid in self.view_ids if vid in views})
        if available.ndim < 2 or counts != [available.shape[-2]]:
            raise ValueError(f"availability of shape {available.shape} needs one row per "
                             f"sample; the views have {'/'.join(map(str, counts))} rows")
        patterns, inverse = unique_rows(available.reshape(-1, m))
        outs = self.check_outputs(views, patterns, "prediction")
        rows = (outs.softmax(axis=-1).data if self.task == "classification"
                else outs.data[..., 0])
        return rows[inverse.reshape(available.shape[:-1]), np.arange(available.shape[-2])]


# Pattern rows (patterns x batch rows) fused per call. It covers all 127
# patterns of seven views at the default batch of 128, and bounds evaluation,
# which fuses every validation row under every pattern.
PATTERN_ROWS = 2**14


class FeatureFusionModel(_BaseModel):
    """Encoders per view, merge function, one-layer prediction head.

    The head consumes width d for dynamic merges and m*d for feature-level
    concatenation; average and concat fold it into their per-view products.
    At feature level ``forward_masks`` encodes each view that some pattern
    uses once and fuses all patterns in one ``fuse_head`` call per group of
    at most ``PATTERN_ROWS // B`` patterns. At input level the
    model zero-imputes the raw data of missing views, so every pattern is a
    full forward that fuses all m encodings.
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

    def encode_view(self, index: int, arr: np.ndarray, rng=None) -> Tensor:
        spec = self.view_specs[index]
        return self.encoders[index](Tensor(raw_input(spec, arr)), rng=rng)

    def fuse_head(self, rows: list, available=None, rng=None) -> Tensor:
        """Head outputs ``available.shape[:-1] + (B, n_outputs)`` of the
        fused rows, from one ``fuse`` call that is passed the head."""
        return self.fusion.fuse(rows, available, rng=rng, head=self.head)

    def _forward_inputs(self, inputs, rng=None):
        rows = [enc(Tensor(x), rng=rng) for enc, x in zip(self.encoders, inputs)]
        return self.fuse_head(rows, rng=rng)

    def forward_masks(self, views: dict[str, np.ndarray], available: np.ndarray,
                      rng=None) -> Tensor:
        if self.level == "input":
            return super().forward_masks(views, available, rng=rng)
        m = len(self.view_specs)
        available = check_available(available, m)
        rows = [self.encode_view(i, views[self.view_specs[i].id], rng=rng)
                if available[:, i].any() else None for i in range(m)]
        batch = next(r.shape[0] for r in rows if r is not None)
        group = max(1, PATTERN_ROWS // batch)
        outs = [self.fuse_head(rows, available[start:start + group], rng=rng)
                for start in range(0, len(available), group)]
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

    def _forward_inputs(self, inputs, rng=None):
        flat = np.concatenate([x.reshape(x.shape[0], -1) for x in inputs], axis=1)
        return self.head(self.encoder(Tensor(flat), rng=rng))


def build_model(view_specs: list[ViewSpec], encoder_cfg: EncoderConfig,
                fusion_cfg: FusionConfig, task: str, n_outputs: int,
                level: str, rng: np.random.Generator) -> _BaseModel:
    """Pick the model family for a fusion kind and missing-handling level."""
    if fusion_cfg.kind == "concat" and level == "input":
        return InputConcatModel(view_specs, encoder_cfg, task, n_outputs, rng)
    return FeatureFusionModel(view_specs, encoder_cfg, fusion_cfg, task,
                              n_outputs, rng, level=level)


# -- snapshots -------------------------------------------------------------------


@dataclass
class Snapshot:
    """``build_model``'s arguments but the rng, as ``model.json`` holds them."""

    views: list[ViewSpec]
    encoder: EncoderConfig
    fusion: FusionConfig
    task: str
    n_outputs: int
    level: str


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
               out_dir: str | Path) -> Path:
    """Write ``model.npz``, then ``model.json``, each atomically, so a failed
    save never leaves a ``model.json`` without its ``model.npz``."""
    from .config import resolved_dict  # config imports augmentation, which imports this module
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    snap = Snapshot(model.view_specs, encoder_cfg, fusion_cfg, model.task,
                    model.head.W.shape[-1], model.level)
    arrays = {name: p.data for name, p in model.named_parameters()}
    # np.savez appends ".npz" to a path without it, so it gets the open handle
    _replace_atomically(out / "model.npz", lambda fh: np.savez(fh, **arrays))
    text = json.dumps(resolved_dict(snap), indent=2, sort_keys=True) + "\n"
    _replace_atomically(out / "model.json", lambda fh: fh.write(text.encode()))
    return out / "model.json"


class _Unallocated:
    """A generator stand-in whose draws are zero-stride zeros: the
    architecture ``load_model`` builds allocates no weight before the
    archive's arrays replace them."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)


def load_model(model_dir: str | Path, data: MultiViewDataset) -> _BaseModel:
    """The snapshot in ``model_dir``, checked to fit ``data`` before the
    architecture is built, and with weights that are only the archive's
    arrays. A fault is a ValueError naming its file."""
    from .config import ConfigError, _build
    model_dir = Path(model_dir)
    arch_path = model_dir / "model.json"
    with open(arch_path) as fh:
        try:
            snap = _build(Snapshot, json.load(fh), "")
        except ValueError as exc:  # only json raises one; _build raises ConfigError
            raise ValueError(f"cannot parse {arch_path}: {exc}") from exc
        except ConfigError as exc:
            raise ValueError(f"{arch_path}: {exc}") from exc
    fit = [(f"view {i}", have, want)
           for i, (have, want) in enumerate(zip_longest(snap.views, data.view_specs))]
    fit += [("task", snap.task, data.task), ("head width", snap.n_outputs, data.n_outputs)]
    for name, have, want in fit:
        if have != want:
            raise ValueError(f"snapshot {model_dir} does not fit the data: "
                             f"its {name} is {have!r}, the data's is {want!r}")
    try:
        model = build_model(snap.views, snap.encoder, snap.fusion, snap.task, snap.n_outputs,
                            snap.level, _Unallocated())
    except ValueError as exc:
        raise ValueError(f"{arch_path}: {exc}") from exc
    npz = model_dir / "model.npz"
    try:
        with np.load(npz) as archive:
            arrays = dict(archive)
    except (EOFError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        # empty, a lone .npy array (no context manager), not a zip, or truncated
        raise ValueError(f"{npz} is not a readable snapshot: {exc}") from exc
    params = dict(model.named_parameters())
    if set(arrays) != set(params):
        missing, extra = sorted(params.keys() - arrays), sorted(arrays.keys() - params)
        raise ValueError(f"{npz} does not match the architecture: missing {missing}, extra {extra}")
    for name, p in params.items():
        value = arrays[name]
        if value.shape != p.data.shape:
            raise ValueError(f"{npz}: parameter {name} has shape {value.shape}, "
                             f"the architecture expects {p.data.shape}")
        if not np.issubdtype(value.dtype, np.floating):
            raise ValueError(f"{npz}: parameter {name} has dtype {value.dtype}, "
                             f"not a real floating type")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{npz}: parameter {name} has non-finite values")
        p.data = value.astype(np.float64, copy=False)
    return model
