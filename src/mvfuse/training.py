"""Training loop with combination augmentation and baselines.

The core step encodes each view once per batch, then fuses and predicts all
view combinations in one call. Every augmentation kind's step loss is one
``batch_loss``, the mean per-sample loss over the rows it stacks: for
``com`` the mean over combinations of the mean per-sample loss, so every
availability pattern weighs the same. The classification loss is
``tensor.cross_entropy``, one autodiff node, which this module exports as
its own; regression's ``mse`` is composed. Early stopping watches the
unweighted full-view validation loss.

Combinations and masks are index tuples here: they name the patterns in the
validation losses and the training log, and fix the order of ``sensd``'s
mask groups. The model takes them as boolean patterns from ``pattern_matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .augmentation import (AugPolicy, enumerate_combinations, pattern_matrix, sensd_mask,
                           tempd_mask)
from .data import MultiViewDataset
from .model import _BaseModel, batch_views
from .rng import stream
from .tensor import Adam, Tensor, concat, cross_entropy


@dataclass
class TrainConfig:
    batch_size: int = 128
    lr: float = 1e-3
    max_epochs: int = 50
    patience: int = 5
    class_weighting: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError("lr must be finite and >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


# -- losses ------------------------------------------------------------------------


def class_weights(labels: np.ndarray, n_classes: int | None = None) -> np.ndarray:
    """Per-class weights inverse to class counts, normalized to mean 1."""
    labels = np.asarray(labels, dtype=int)
    k = n_classes if n_classes is not None else int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"class {missing} has no samples")
    w = 1.0 / counts
    return w * (k / w.sum())


def mse(pred: Tensor, y: np.ndarray) -> Tensor:
    diff = pred - Tensor(np.asarray(y, dtype=np.float64))
    return (diff * diff).mean()


def batch_loss(outputs: Tensor, y: np.ndarray, task: str,
               weights: np.ndarray | None = None) -> Tensor:
    """The mean loss over a batch of outputs: ``tensor.cross_entropy``, one
    node, for classification; the composed ``mse`` of the first output
    column for regression."""
    if task == "classification":
        return cross_entropy(outputs, y, weights)
    return mse(outputs[:, 0], y)


# -- early stopping ------------------------------------------------------------------


class EarlyStopper:
    """Stop after ``patience`` consecutive epochs without strict improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.bad_epochs = 0

    def update(self, value: float) -> tuple[bool, bool]:
        """Returns (improved, should_stop)."""
        if value < self.best:
            self.best = value
            self.bad_epochs = 0
            return True, False
        self.bad_epochs += 1
        return False, self.bad_epochs >= self.patience


# -- steps ---------------------------------------------------------------------------


def _apply_tempd(model: _BaseModel, views: dict[str, np.ndarray], ratio: float,
                 rng: np.random.Generator) -> dict[str, np.ndarray]:
    out = dict(views)
    for spec in model.view_specs:
        if spec.kind != "temporal":
            continue
        arr = out[spec.id]
        out[spec.id] = np.stack([tempd_mask(arr[i], ratio, rng)
                                 for i in range(arr.shape[0])])
    return out


def train_step(model: _BaseModel, views: dict[str, np.ndarray], y: np.ndarray,
               aug: AugPolicy, combos: list[tuple], optimizer: Adam, task: str,
               weights: np.ndarray | None, mask_rng: np.random.Generator,
               dropout_rng: np.random.Generator) -> float:
    """One optimizer update; returns the step loss.

    View dropping (``sensd``) draws a mask per sample and runs each mask's
    samples as one batch, masks ascending, stacking the outputs in that
    order. Every other kind runs one ``model.forward_masks`` over the
    combinations (``com``) or the full mask alone and stacks its
    (combination, sample) rows: at feature level the encoders run once per
    step and all combinations are fused together, at input level every
    combination is a full forward over zero-imputed inputs. The loss is one
    ``batch_loss`` over the stacked rows, so every row weighs the same.
    """
    if aug.kind == "tempd":
        views = _apply_tempd(model, views, aug.tempd_ratio, mask_rng)
    m = len(model.view_specs)
    optimizer.zero_grad()
    if aug.kind == "sensd":
        groups: dict[tuple[int, ...], list[int]] = {}
        for i in range(y.shape[0]):
            groups.setdefault(sensd_mask(m, mask_rng), []).append(i)
        masks = sorted(groups)
        outs = concat([model.forward_masked(batch_views(views, groups[mask]), pattern,
                                            rng=dropout_rng)
                       for mask, pattern in zip(masks, pattern_matrix(masks, m))])
        y = y[np.concatenate([groups[mask] for mask in masks])]
    else:
        masks = combos if aug.kind == "com" else [tuple(range(m))]
        outs = model.forward_masks(views, pattern_matrix(masks, m), rng=dropout_rng)
        outs, y = outs.reshape((-1, outs.shape[-1])), np.tile(y, len(masks))
    loss = batch_loss(outs, y, task, weights)
    loss.backward()
    optimizer.step()
    return loss.item()


def validation_losses(model: _BaseModel, ds: MultiViewDataset,
                      masks: list[tuple]) -> dict[tuple, float]:
    """Unweighted evaluation-mode loss per mask over the whole validation set;
    a non-finite model output raises ValueError."""
    patterns = pattern_matrix(masks, len(model.view_specs))
    outs = model.check_outputs(ds.views, patterns, "validation output")
    return {mask: batch_loss(outs[k], ds.y, model.task).item() for k, mask in enumerate(masks)}


@dataclass
class TrainResult:
    log: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = math.inf


def train_model(model: _BaseModel, ds_train: MultiViewDataset,
                ds_val: MultiViewDataset, aug: AugPolicy,
                cfg: TrainConfig) -> TrainResult:
    """Fit in place; restores the best snapshot by full-view validation loss.
    A ValueError of a step or of the validation pass, such as a non-finite
    loss, is raised again prefixed with its epoch and step."""
    task = model.task
    m = len(model.view_specs)
    full = tuple(range(m))
    combos = enumerate_combinations(m) if aug.kind == "com" else [full]
    weights = None
    if task == "classification" and cfg.class_weighting:
        weights = class_weights(ds_train.y, ds_train.n_classes)

    named = model.named_parameters()
    optimizer = Adam([p for _, p in named], lr=cfg.lr, names=[name for name, _ in named])
    shuffle_rng = stream(cfg.seed, "aug", "shuffle")
    mask_rng = stream(cfg.seed, "aug", "masks")
    dropout_rng = stream(cfg.seed, "aug", "dropout")
    stopper = EarlyStopper(cfg.patience)
    result = TrainResult()
    best_snapshot = [p.data.copy() for _, p in named]

    n = ds_train.n_samples
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        steps = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            views = batch_views(ds_train.views, idx)
            try:
                epoch_loss += train_step(model, views, ds_train.y[idx], aug, combos,
                                         optimizer, task, weights, mask_rng, dropout_rng)
            except ValueError as exc:
                raise ValueError(f"epoch {epoch}, step {steps + 1}: {exc}") from exc
            steps += 1
        try:
            val = validation_losses(model, ds_val, combos)
        except ValueError as exc:
            raise ValueError(f"epoch {epoch}, validation: {exc}") from exc
        val_loss = val[full]
        record = {"epoch": epoch, "train_loss": epoch_loss / steps, "val_loss": val_loss}
        if aug.kind == "com":
            record["val_loss_combos"] = {",".join(map(str, k)): v for k, v in val.items()}
        result.log.append(record)
        improved, stop = stopper.update(val_loss)
        if improved:
            best_snapshot = [p.data.copy() for _, p in named]
            result.best_epoch = epoch
            result.best_val_loss = val_loss
        if stop:
            break
    for (_, p), data in zip(named, best_snapshot):
        p.data = data
    return result
