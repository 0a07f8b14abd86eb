"""Missing-view simulation, performance metrics, and robustness scores.

Scenarios mask views in the validation data; metrics compare predictions to
targets and, for the robustness scores, to the full-view predictions of the
same model. All metrics are plain functions of arrays and invariant to sample
order. An evaluation predicts each distinct availability pattern only once.
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
        if self.kind != "none" and self.view is None:
            raise ValueError(f"scenario {self.kind!r} needs a view")
        if self.kind == "fraction":
            if self.p is None or not 0.0 <= self.p <= 1.0:
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
    """Both vectors as ``dtype`` arrays, checked non-empty and of one shape."""
    y_true, y_pred = np.asarray(y_true, dtype=dtype), np.asarray(y_pred, dtype=dtype)
    if y_true.size == 0 or y_true.shape != y_pred.shape:
        raise ValueError(f"need non-empty aligned {what}")
    return y_true, y_pred


def f1_macro(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Macro-averaged F1 over the union of observed classes."""
    y_true, y_pred = _aligned(y_true, y_pred, int, "label vectors")
    classes = np.union1d(y_true, y_pred)
    scores = []
    for c in classes:
        tp = np.sum((y_pred == c) & (y_true == c))
        fp = np.sum((y_pred == c) & (y_true != c))
        fn = np.sum((y_pred != c) & (y_true == c))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


def r2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = _aligned(y_true, y_pred, np.float64)
    ss_tot = np.sum((y_true - y_true.mean()) ** 2)
    if ss_tot == 0.0:
        raise ValueError("targets are constant, R2 undefined")
    ss_res = np.sum((y_true - y_pred) ** 2)
    return float(1.0 - ss_res / ss_tot)


def _average_precision(y: np.ndarray, scores: np.ndarray) -> float:
    """Step-interpolated area under the precision-recall curve, exact over
    all score thresholds."""
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.shape[0]:
        raise ValueError("precision-recall AUC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    y_sorted = y[order]
    s_sorted = scores[order]
    tp = np.cumsum(y_sorted)
    fp = np.cumsum(1 - y_sorted)
    # evaluate only at the last index of each tied score block
    last_of_block = np.append(s_sorted[1:] != s_sorted[:-1], True)
    tp, fp = tp[last_of_block], fp[last_of_block]
    precision = tp / (tp + fp)
    recall = tp / n_pos
    recall_prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - recall_prev) * precision))


def auc_pr(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Precision-recall AUC; one-vs-rest macro average for multi-class scores."""
    y_true = np.asarray(y_true, dtype=int)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        return _average_precision((y_true == 1).astype(int), scores)
    per_class = [_average_precision((y_true == c).astype(int), scores[:, c])
                 for c in range(scores.shape[1])]
    return float(np.mean(per_class))


def mape(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = _aligned(y_true, y_pred, np.float64)
    if np.any(y_true == 0.0):
        raise ValueError("MAPE undefined for zero targets")
    return float(np.mean(np.abs((y_true - y_pred) / y_true)))


# -- robustness and shift scores -----------------------------------------------------


def _rmse(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def prs(y_true: np.ndarray, y_miss: np.ndarray, y_full: np.ndarray) -> float:
    """Predictive robustness: min(1, exp(1 - RMSE_miss / RMSE_full)).

    For classification, pass one-hot targets and probability matrices; the
    RMSE then runs over all class entries.
    """
    rmse_full = _rmse(y_true, y_full)
    if rmse_full == 0.0:
        raise ValueError("full-view RMSE is zero, PRS undefined")
    return float(min(1.0, np.exp(1.0 - _rmse(y_true, y_miss) / rmse_full)))


def class_change_ratio(y_full: np.ndarray, y_miss: np.ndarray) -> float:
    """Fraction of samples whose predicted class changed."""
    full = np.asarray(y_full)
    miss = np.asarray(y_miss)
    if full.ndim == 2:
        full = full.argmax(axis=1)
        miss = miss.argmax(axis=1)
    return float(np.mean(full != miss))


def deformation(y_full: np.ndarray, y_miss: np.ndarray) -> float:
    """Prediction shift normalized by the spread of the full-view predictions."""
    full = np.asarray(y_full, dtype=np.float64)
    spread = float(full.std())
    if spread == 0.0:
        raise ValueError("full-view predictions are constant, deformation undefined")
    return _rmse(full, y_miss) / spread


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

    def write_summary(self, path: str | Path, config: dict | None = None,
                      seed: int | None = None) -> None:
        payload = {"results": self.summary()}
        if config is not None:
            payload["config"] = config
        if seed is not None:
            payload["seed"] = seed
        write_json(path, payload)


# -- harness -----------------------------------------------------------------------


def _performance_rows(report: EvalReport, scenario: MissingScenario, ds,
                      preds: np.ndarray, full_preds: np.ndarray, fold: int,
                      seed: int) -> None:
    key, view, p = scenario.key(), scenario.view, scenario.p
    if ds.task == "classification":
        report.add(key, view, p, "f1", fold, seed, f1_macro(ds.y, preds.argmax(axis=1)))
        report.add(key, view, p, "auc_pr", fold, seed, auc_pr(ds.y, preds))
        report.add(key, view, p, "class_change", fold, seed,
                   class_change_ratio(full_preds, preds))
        onehot = one_hot_batch(ds.y, preds.shape[1])
        report.add(key, view, p, "prs", fold, seed, prs(onehot, preds, full_preds))
    else:
        report.add(key, view, p, "r2", fold, seed, r2(ds.y, preds))
        report.add(key, view, p, "mape", fold, seed, mape(ds.y, preds))
        report.add(key, view, p, "deformation", fold, seed,
                   deformation(full_preds, preds))
        report.add(key, view, p, "prs", fold, seed, prs(ds.y, preds, full_preds))


def evaluate_scenarios(model: _BaseModel, ds: MultiViewDataset,
                       scenarios: list[MissingScenario], seed: int,
                       fold: int = 0) -> EvalReport:
    """Metrics for each scenario on one validation dataset, from one ``predict``
    call over the full-view and every scenario's availability matrix."""
    report = EvalReport()
    available = np.stack([scenario_availability(s, ds.n_samples, model.view_ids, seed)
                          for s in [MissingScenario("none")] + scenarios])
    full_preds, *preds = model.predict(ds.views, available)
    for scenario, scenario_preds in zip(scenarios, preds):
        _performance_rows(report, scenario, ds, scenario_preds, full_preds, fold, seed)
    return report


def sweep(model: _BaseModel, ds: MultiViewDataset, view: str, grid: list[float],
          seed: int) -> EvalReport:
    """Fraction sweep over one view; masked sets are nested across the grid."""
    scenarios = [MissingScenario(kind="fraction", view=view, p=float(p)) for p in grid]
    return evaluate_scenarios(model, ds, scenarios, seed)
