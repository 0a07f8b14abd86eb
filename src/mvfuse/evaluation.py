"""Missing-view simulation, performance metrics, and robustness scores.

Scenarios mask views in the validation data; metrics compare predictions to
targets and, for the robustness scores, to the full-view predictions of the
same model. All metrics are plain functions of arrays and invariant to sample
order. An evaluation predicts each distinct availability pattern only once.

Each metric scores a stack of scenarios in one call: targets (1, N) against
predictions (S, N) give S values. Arrays of one rank broadcast over leading
axes, with the sample axis (then any class axis) last; unstacked ones give a float.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import MultiViewDataset, UnknownViewError, write_json
from .encoders import one_hot_batch
from .model import _BaseModel
from .rng import stream

SCENARIO_KINDS = ("none", "only_missing", "only_available", "fraction")


@dataclass(frozen=True)
class MissingScenario:
    kind: str
    view: str | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "none" and self.view is not None:
            raise ValueError("scenario 'none' takes no view")
        if self.kind != "none" and self.view is None:
            raise ValueError(f"scenario {self.kind!r} needs a view")
        if self.kind != "fraction" and self.p is not None:
            raise ValueError(f"scenario {self.kind!r} takes no p")
        if self.kind == "fraction" and (self.p is None or not 0.0 <= self.p <= 1.0):
            raise ValueError("fraction scenario needs p in [0, 1]")

    def key(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "fraction":
            return f"fraction:{self.view}:{self.p:g}"
        return f"{self.kind}:{self.view}"


def scenario_availability(scenario: MissingScenario, n: int, view_ids: list[str],
                          seed: int) -> np.ndarray:
    """Boolean (n, m) availability matrix for a scenario.

    Fraction masks take the first floor(p*n) samples of a seed-determined
    permutation, so masked sets are nested across p for a fixed seed and
    the sweep endpoints coincide with the none and only-missing scenarios.
    """
    avail = np.ones((n, len(view_ids)), dtype=bool)
    if scenario.kind == "none":
        return avail
    if scenario.view not in view_ids:
        raise UnknownViewError(f"view {scenario.view!r} not declared")
    v = view_ids.index(scenario.view)
    if scenario.kind == "only_missing":
        avail[:, v] = False
    elif scenario.kind == "only_available":
        avail[:] = False
        avail[:, v] = True
    else:
        rng = stream(seed, "eval", "fraction", scenario.view)
        chosen = rng.permutation(n)[: int(scenario.p * n)]
        avail[chosen, v] = False
    return avail


# -- performance metrics -----------------------------------------------------------


def _aligned(y_true, y_pred, dtype, what: str = "vectors") -> tuple[np.ndarray, np.ndarray]:
    """Both as ``dtype`` arrays, non-empty, of one rank and sample count, and broadcastable."""
    y_true, y_pred = np.asarray(y_true, dtype=dtype), np.asarray(y_pred, dtype=dtype)
    if (y_true.size == 0 or y_true.ndim != y_pred.ndim or y_true.ndim == 0
            or y_true.shape[-1] != y_pred.shape[-1]
            or any(a != b and 1 not in (a, b) for a, b in zip(y_true.shape, y_pred.shape))):
        raise ValueError(f"need non-empty aligned {what}")
    return y_true, y_pred


def _value(v: np.ndarray):
    return float(v) if v.ndim == 0 else v  # a float for an unstacked call


def f1_macro(y_true: np.ndarray, y_pred: np.ndarray):
    """Macro-averaged F1 over the union of each scenario's observed classes:
    those with ``2 tp + fp + fn > 0``."""
    y_true, y_pred = _aligned(y_true, y_pred, int, "label vectors")
    classes = np.union1d(y_true, y_pred)
    true, pred = y_true[..., None] == classes, y_pred[..., None] == classes
    tp = (true & pred).sum(axis=-2)
    denom = true.sum(axis=-2) + pred.sum(axis=-2)
    scores = np.divide(2 * tp, denom, out=np.zeros(denom.shape), where=denom > 0)
    return _value(scores.sum(axis=-1) / (denom > 0).sum(axis=-1))


def r2(y_true: np.ndarray, y_pred: np.ndarray):
    y_true, y_pred = _aligned(y_true, y_pred, np.float64)
    ss_tot = np.sum((y_true - y_true.mean(axis=-1, keepdims=True)) ** 2, axis=-1)
    if np.any(ss_tot == 0.0):
        raise ValueError("targets are constant, R2 undefined")
    return _value(1.0 - np.sum((y_true - y_pred) ** 2, axis=-1) / ss_tot)


def _average_precision(y: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Step-interpolated area under the precision-recall curve of each row of
    (R, N) labels and scores, exact over all score thresholds."""
    n_pos = y.sum(axis=-1, keepdims=True)
    if np.any((n_pos == 0) | (n_pos == y.shape[-1])):
        raise ValueError("precision-recall AUC needs both classes present")
    order = np.argsort(-scores, axis=-1, kind="stable")
    s_sorted = np.take_along_axis(scores, order, axis=-1)
    tp = np.cumsum(np.take_along_axis(y, order, axis=-1), axis=-1)
    # only the last index of each tied score block is a threshold; the recall
    # before it is that of the threshold before, the running maximum of tp there
    last_of_block = np.ones(tp.shape, dtype=bool)
    last_of_block[:, :-1] = s_sorted[:, 1:] != s_sorted[:, :-1]
    tp_prev = np.zeros(tp.shape, dtype=tp.dtype)
    np.maximum.accumulate(np.where(last_of_block, tp, 0)[:, :-1], axis=-1, out=tp_prev[:, 1:])
    precision = tp / np.arange(1, tp.shape[-1] + 1)
    gain = np.where(last_of_block, tp / n_pos - tp_prev / n_pos, 0.0)
    return np.sum(gain * precision, axis=-1)


def auc_pr(y_true: np.ndarray, scores: np.ndarray):
    """Precision-recall AUC of (..., N) binary scores, or the one-vs-rest macro
    average over the classes of (..., N, C) scores; one stable argsort sorts
    every (scenario, class) row at once."""
    y_true, scores = np.asarray(y_true, dtype=int), np.asarray(scores, dtype=np.float64)
    multi = scores.ndim == y_true.ndim + 1
    if multi:  # one (..., C, N) row per one-vs-rest problem
        y_true = np.swapaxes(y_true[..., None] == np.arange(scores.shape[-1]), -1, -2)
        scores = np.swapaxes(scores, -1, -2)
    rows = (-1, scores.shape[-1])
    ap = _average_precision(np.broadcast_to(y_true == 1, scores.shape).reshape(rows),
                            scores.reshape(rows)).reshape(scores.shape[:-1])
    return _value(ap.mean(axis=-1) if multi else ap)


def mape(y_true: np.ndarray, y_pred: np.ndarray):
    y_true, y_pred = _aligned(y_true, y_pred, np.float64)
    if np.any(y_true == 0.0):
        raise ValueError("MAPE undefined for zero targets")
    return _value(np.mean(np.abs((y_true - y_pred) / y_true), axis=-1))


# -- robustness and shift scores -----------------------------------------------------


def _rmse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean((np.asarray(a, dtype=np.float64) - b) ** 2, axis=-1))


def prs(y_true: np.ndarray, y_miss: np.ndarray, y_full: np.ndarray):
    """Predictive robustness: min(1, exp(1 - RMSE_miss / RMSE_full)), the RMSE
    over the last axis. For classification, pass one-hot targets and
    probabilities flattened to (..., N*C); the RMSE then runs over all class entries."""
    rmse_full = _rmse(y_true, y_full)
    if np.any(rmse_full == 0.0):
        raise ValueError("full-view RMSE is zero, PRS undefined")
    return _value(np.minimum(1.0, np.exp(1.0 - _rmse(y_true, y_miss) / rmse_full)))


def class_change_ratio(y_full: np.ndarray, y_miss: np.ndarray):
    """Fraction of samples whose predicted class changed, from (N,) labels or
    from (..., N, C) probabilities."""
    full, miss = np.asarray(y_full), np.asarray(y_miss)
    if full.ndim > 1:
        full, miss = full.argmax(axis=-1), miss.argmax(axis=-1)
    return _value(np.mean(full != miss, axis=-1))


def deformation(y_full: np.ndarray, y_miss: np.ndarray):
    """Prediction shift normalized by the spread of the full-view predictions."""
    full = np.asarray(y_full, dtype=np.float64)
    spread = full.std(axis=-1)
    if np.any(spread == 0.0):
        raise ValueError("full-view predictions are constant, deformation undefined")
    return _value(_rmse(full, y_miss) / spread)


# -- report -----------------------------------------------------------------------


class EvalReport:
    """Metric rows keyed by (scenario, view, p, metric, fold, seed)."""

    COLUMNS = ("scenario", "view", "p", "metric", "fold", "seed", "value")

    def __init__(self):
        self.rows: list[dict] = []

    def add(self, scenario: str, view: str | None, p: float | None, metric: str,
            fold: int, seed: int, value: float) -> None:
        self.rows.append({"scenario": scenario, "view": view or "", "p": p,
                          "metric": metric, "fold": fold, "seed": seed,
                          "value": float(value)})

    def extend(self, other: "EvalReport") -> None:
        self.rows.extend(other.rows)

    def values(self, scenario: str, metric: str) -> list[float]:
        return [r["value"] for r in self.rows
                if r["scenario"] == scenario and r["metric"] == metric]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            for r in self.rows:
                p = "" if r["p"] is None else repr(float(r["p"]))
                writer.writerow([r["scenario"], r["view"], p, r["metric"],
                                 r["fold"], r["seed"], repr(r["value"])])

    def summary(self) -> list[dict]:
        """Mean and std per (scenario, view, p, metric) over folds and seeds."""
        groups: dict[tuple, list[float]] = {}
        for r in self.rows:
            key = (r["scenario"], r["view"], r["p"], r["metric"])
            groups.setdefault(key, []).append(r["value"])
        out = []
        for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
            vals = np.asarray(groups[key])
            out.append({"scenario": key[0], "view": key[1], "p": key[2],
                        "metric": key[3], "mean": float(vals.mean()),
                        "std": float(vals.std()), "n": int(vals.size)})
        return out

    def write_summary(self, path: str | Path, config: dict, seed: int) -> None:
        write_json(path, {"results": self.summary(), "config": config, "seed": seed})


# -- harness -----------------------------------------------------------------------


def evaluate_scenarios(model: _BaseModel, ds: MultiViewDataset,
                       scenarios: list[MissingScenario], seed: int,
                       fold: int = 0) -> EvalReport:
    """Metrics for each scenario on one validation dataset: one ``predict``
    call over the full-view and every scenario's availability matrix, then
    one call per metric over the stacked (S, N, ...) scenario predictions."""
    available = np.stack([scenario_availability(s, ds.n_samples, model.view_ids, seed)
                          for s in [MissingScenario("none")] + scenarios])
    full, preds = np.split(model.predict(ds.views, available), [1])
    y = ds.y[None]
    if ds.task == "classification":
        onehot = one_hot_batch(ds.y, preds.shape[-1]).reshape(1, -1)
        columns = {"f1": f1_macro(y, preds.argmax(axis=-1)), "auc_pr": auc_pr(y, preds),
                   "class_change": class_change_ratio(full, preds),
                   "prs": prs(onehot, preds.reshape(-1, onehot.size), full.reshape(1, -1))}
    else:
        columns = {"r2": r2(y, preds), "mape": mape(y, preds),
                   "deformation": deformation(full, preds), "prs": prs(y, preds, full)}
    report = EvalReport()
    for i, s in enumerate(scenarios):
        for metric, values in columns.items():
            report.add(s.key(), s.view, s.p, metric, fold, seed, values[i])
    return report
