"""End-to-end workflows wiring configs to data, training, and evaluation.

These functions back the command line but are plain Python so tests and
notebooks can drive them directly. ``run_evaluate`` and ``run_sweep`` differ
only in the scenarios they hand one scoring loop, ``_score``. Every artifact
embeds the resolved config and seed, and all randomness comes from named
streams under the config seed, so reruns are byte-for-byte reproducible.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from . import data as data_mod
from .augmentation import AugPolicy
from .config import ConfigError, ExperimentConfig, load_config, resolved_dict
from .evaluation import EvalReport, MissingScenario, evaluate_scenarios
from .fusion import FusionConfig
from .gradcheck import DEFAULT_TOLERANCE, run_suite
from .model import build_model, load_model, save_model
from .rng import stream
from .training import train_model


def load_raw_dataset(cfg: ExperimentConfig) -> data_mod.MultiViewDataset:
    if cfg.data.source == "manifest":
        return data_mod.load_dataset(cfg.data.manifest)
    return data_mod.generate_synthetic(cfg.data.synthetic)


def split_dataset(cfg: ExperimentConfig, ds: data_mod.MultiViewDataset, train_idx, val_idx):
    """Training and validation subsets, normalized with training statistics."""
    if cfg.data.normalize:
        ds = data_mod.zscore_apply(ds, data_mod.zscore_fit(ds, train_idx))
    return ds.subset(train_idx), ds.subset(val_idx)


def configured_split(cfg: ExperimentConfig, ds: data_mod.MultiViewDataset):
    """Training and validation indices drawn by the seed's ``data/split`` stream."""
    return data_mod.train_val_split(ds.n_samples, cfg.data.val_fraction,
                                    stream(cfg.seed, "data", "split"))


def prepare_data(cfg: ExperimentConfig):
    """The dataset split as ``configured_split`` draws it."""
    ds = load_raw_dataset(cfg)
    return split_dataset(cfg, ds, *configured_split(cfg, ds))


def check_scorable(cfg: ExperimentConfig, ds: data_mod.MultiViewDataset, y,
                   fold: int | None = None) -> None:
    """Raise ValueError unless the validation targets ``y`` can be scored: a
    classification split must hold each of ``ds``'s classes and a regression
    split at least two distinct targets and no zero, where MAPE is undefined.
    The error names the fold as ``report.csv`` numbers it, or else the
    configured split."""
    split = (f"validation fold {fold}" if fold is not None
             else f"the validation split (data.val_fraction {cfg.data.val_fraction:g})")
    seen = set(y.tolist())
    missing = sorted(set(range(ds.n_outputs)) - seen) if ds.task == "classification" else []
    if missing:
        raise ValueError(f"{split} has no sample of class "
                         f"{' or '.join(map(str, missing))}, so its metrics are undefined")
    if len(seen) < 2:  # a classification split with one class misses another
        raise ValueError(f"{split} holds fewer than two distinct targets, "
                         f"so its metrics are undefined")
    zeros = sum(v == 0.0 for v in y.tolist()) if ds.task == "regression" else 0
    if zeros:
        raise ValueError(f"{split} holds {zeros} zero target(s), so its MAPE is undefined")


def focus_view(cfg: ExperimentConfig, view_ids: list[str]) -> str:
    view = cfg.eval.view or view_ids[0]
    if view not in view_ids:
        raise ConfigError(f"eval.view {view!r} is not a declared view")
    return view


def checked_scenarios(scenarios: list[MissingScenario],
                      view_ids: list[str]) -> list[MissingScenario]:
    """``scenarios``, unless one names an undeclared view or leaves a sample
    with no view, which only masking the view of a one-view dataset does."""
    for s in scenarios:
        if s.kind != "none" and s.view not in view_ids:
            raise ConfigError(f"scenario {s.key()}: {s.view!r} is not a declared view")
        if [s.view] == view_ids and (s.kind == "only_missing"
                                     or (s.kind == "fraction" and s.p > 0)):
            raise ConfigError(f"scenario {s.key()} leaves samples with no view: "
                              f"{s.view!r} is the only view")
    return scenarios


def focus_scenarios(cfg: ExperimentConfig, view_ids: list[str]) -> list[MissingScenario]:
    """No view missing, the focus view missing, and only the focus view."""
    view = focus_view(cfg, view_ids)
    return checked_scenarios([MissingScenario(kind="none"),
                              MissingScenario(kind="only_missing", view=view),
                              MissingScenario(kind="only_available", view=view)], view_ids)


def default_scenarios(cfg: ExperimentConfig, view_ids: list[str]) -> list[MissingScenario]:
    if cfg.eval.scenarios:
        return checked_scenarios(list(cfg.eval.scenarios), view_ids)
    return focus_scenarios(cfg, view_ids)


def grid_scenarios(cfg: ExperimentConfig, view_ids: list[str]) -> list[MissingScenario]:
    """The focus view missing in each fraction of ``eval.grid``."""
    view = focus_view(cfg, view_ids)
    return checked_scenarios([MissingScenario(kind="fraction", view=view, p=float(p))
                              for p in cfg.eval.grid], view_ids)


def fit_model(cfg: ExperimentConfig, ds_train, ds_val, init_stream=("init",),
              aug: AugPolicy | None = None, fusion: FusionConfig | None = None):
    """Build and train one model from config pieces; returns (model, result)."""
    aug = aug if aug is not None else cfg.aug
    fusion = fusion if fusion is not None else cfg.fusion
    model = build_model(ds_train.view_specs, cfg.encoder, fusion, ds_train.task,
                        ds_train.n_outputs, aug.level, stream(cfg.seed, *init_stream))
    result = train_model(model, ds_train, ds_val, aug, cfg.train)
    return model, result


def _train_and_save(cfg: ExperimentConfig, out: Path, ds_train, ds_val):
    """``fit_model`` on the configured split, with its snapshot,
    ``train_log.jsonl`` and the resolved config, which reruns the run, written
    into ``out``, made before training if absent; returns (model, result)."""
    out.mkdir(parents=True, exist_ok=True)
    model, result = fit_model(cfg, ds_train, ds_val)
    save_model(model, cfg.encoder, cfg.fusion, out)
    with open(out / "train_log.jsonl", "w", newline="\n") as fh:
        for record in result.log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    data_mod.write_json(out / "resolved_config.json", resolved_dict(cfg))
    return model, result


def run_synth(cfg: ExperimentConfig, out_dir: str | Path) -> Path:
    """Generate the configured synthetic dataset and write CSVs plus manifest."""
    if cfg.data.synthetic is None:
        raise ConfigError("synth needs a data.synthetic section")
    ds = data_mod.generate_synthetic(cfg.data.synthetic)
    out = Path(out_dir)
    manifest = data_mod.save_dataset(ds, out)
    data_mod.write_json(out / "resolved_config.json", resolved_dict(cfg))
    return manifest


def run_train(cfg: ExperimentConfig, out_dir: str | Path):
    """Train one model per the config into ``out_dir`` (``_train_and_save``)."""
    return _train_and_save(cfg, Path(out_dir), *prepare_data(cfg))


def _model_for_eval(cfg: ExperimentConfig, out: Path, model_dir: str | Path | None,
                    ds_train, ds_val):
    """The snapshot in ``model_dir``, which must fit the data; else the one in ``out``,
    trained there first if absent, whose config must match ``cfg`` but for ``eval``."""
    if model_dir is not None:
        return load_model(model_dir, ds_val)
    if not (out / "model.json").exists():
        return _train_and_save(cfg, out, ds_train, ds_val)[0]
    path = out / "resolved_config.json"
    try:
        saved = resolved_dict(load_config(path))
        why = next((f"its {path.name} differs in {k!r}" for k, v in resolved_dict(cfg).items()
                    if k != "eval" and saved[k] != v), None)
    except ConfigError as exc:  # missing, unparsable, or of another schema
        why = f"{path.name}: {exc}"
    if why:
        raise ConfigError(f"--out {out} holds a snapshot this config did not train ({why}); "
                          f"pass --model to score it anyway, or choose another --out")
    return load_model(out, ds_val)


def _score(cfg: ExperimentConfig, out_dir: str | Path, model_dir: str | Path | None,
           scenarios_for) -> EvalReport:
    """``scenarios_for(cfg, view_ids)`` scored on each validation split, all
    checked before any training, into ``report.csv`` and ``summary.json``: the
    k-fold splits with a model fit per fold if eval.folds > 1, which takes no
    ``model_dir``, else the configured split with ``_model_for_eval``'s model."""
    kfold = cfg.eval.folds > 1
    if kfold and model_dir is not None:
        raise ConfigError("--model takes one snapshot, but eval.folds > 1 trains one per fold")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = load_raw_dataset(cfg)
    scenarios = scenarios_for(cfg, ds.view_ids)
    splits = (data_mod.kfold_indices(ds.n_samples, cfg.eval.folds, cfg.eval.repeats, cfg.seed)
              if kfold else [configured_split(cfg, ds)])
    for fold, (_, val_idx) in enumerate(splits):
        check_scorable(cfg, ds, ds.y[val_idx], fold if kfold else None)
    report = EvalReport()
    for fold, (train_idx, val_idx) in enumerate(splits):
        ds_train, ds_val = split_dataset(cfg, ds, train_idx, val_idx)
        model = (fit_model(cfg, ds_train, ds_val, init_stream=("init", fold))[0] if kfold
                 else _model_for_eval(cfg, out, model_dir, ds_train, ds_val))
        report.extend(evaluate_scenarios(model, ds_val, scenarios, cfg.seed, fold=fold))
    report.to_csv(out / "report.csv")
    report.write_summary(out / "summary.json", config=resolved_dict(cfg), seed=cfg.seed)
    return report


def run_evaluate(cfg: ExperimentConfig, out_dir: str | Path,
                 model_dir: str | Path | None = None) -> EvalReport:
    """The configured scenarios (``default_scenarios``), scored by ``_score``."""
    return _score(cfg, out_dir, model_dir, default_scenarios)


def run_sweep(cfg: ExperimentConfig, out_dir: str | Path,
              model_dir: str | Path | None = None) -> EvalReport:
    """The fraction-of-missing grid over the focus view, scored by ``_score``."""
    return _score(cfg, out_dir, model_dir, grid_scenarios)


def run_gradcheck(out_dir: str | Path, seeds: int = 20) -> dict[str, float]:
    """Finite-difference battery over every layer and fusion function."""
    if seeds < 1:
        raise ConfigError(f"gradcheck needs at least one seed, got {seeds}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = run_suite(seeds=range(seeds))
    worst = max(results.values())
    payload = {"cases": results, "max_relative_error": worst,
               "tolerance": DEFAULT_TOLERANCE, "passed": worst < DEFAULT_TOLERANCE}
    data_mod.write_json(out / "gradcheck.json", payload)
    return results


ABLATION_GRID = [("none", "input"), ("none", "feature"),
                 ("sensd", "input"), ("sensd", "feature"),
                 ("com", "input"), ("com", "feature")]


def run_ablate(cfg: ExperimentConfig, out_dir: str | Path) -> list[dict]:
    """Train the 3x2 grid of augmentation kind by level on one dataset.

    Input-level cells use concatenation fusion, feature-level cells the
    average merge. Each cell reports the primary metric without missing
    views, with the focus view missing, and with only the focus view, on the
    configured split: eval.folds > 1 is a config error, before any loading.
    """
    if cfg.eval.folds > 1:
        raise ConfigError("ablate scores the configured split only, but eval.folds > 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds_train, ds_val = prepare_data(cfg)
    scenarios = focus_scenarios(cfg, ds_val.view_ids)
    check_scorable(cfg, ds_val, ds_val.y)
    metric = "f1" if ds_val.task == "classification" else "r2"
    rows = []
    for kind, level in ABLATION_GRID:
        aug = AugPolicy(kind=kind, level=level, tempd_ratio=cfg.aug.tempd_ratio)
        fusion = replace(cfg.fusion, kind="concat" if level == "input" else "average")
        model, _ = fit_model(cfg, ds_train, ds_val, init_stream=("init", kind, level),
                             aug=aug, fusion=fusion)
        report = evaluate_scenarios(model, ds_val, scenarios, cfg.seed)
        row = {"aug": kind, "level": level}
        for scenario in scenarios:
            row[scenario.key()] = report.values(scenario.key(), metric)[0]
        rows.append(row)
    header = ["aug", "level"] + [s.key() for s in scenarios]
    with open(out / "ablation.csv", "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(row[h]) if h in ("aug", "level") else repr(row[h])
                              for h in header) + "\n")
    data_mod.write_json(out / "ablation.json", {"metric": metric, "rows": rows,
                                                "config": resolved_dict(cfg), "seed": cfg.seed})
    return rows
