"""Experiment configuration: YAML/JSON schema, validation, resolution.

Schema (all sections optional unless noted, defaults in parentheses):

    seed: int (0)
    data:
      source: synthetic | manifest (synthetic)
      manifest: path                      # required for source: manifest
      synthetic:
        n_samples: int (1000)
        latent_dim: int (8)
        task: classification | regression (classification)
        classes: int (3)
        basis_order: int (3)
        views:                            # required, one entry per view
          - id: str
            kind: temporal | static | categorical (static)
            time_steps: int               # temporal only
            channels: int                 # temporal and static
            cardinality: int              # categorical only
            noise: float (0.1)
            redundancy: float (0.8)
            loading_seed: int (0)
      val_fraction: float (0.2)
      normalize: bool (true)
    model:
      latent_dim: int (128)
      encoder_layers: int (2)
      encoder_dropout: float (0.2)
      conv_kernel: int (3)
    fusion:
      kind: average | gated | cross | memory | concat (average)
      heads: int (8)
      layers: int (1 for cross, 2 for memory)
      dropout: float (0.4)
      permute: bool (false)
      attention_scaling: bool (true)
    aug:
      kind: none | com | sensd | tempd (none)
      level: input | feature (feature)
      tempd_ratio: float (0.3)
    train:
      batch_size: int (128)
      lr: float (0.001)
      max_epochs: int (50)
      patience: int (5)
      class_weighting: bool (true)
    eval:
      view: str                           # focus view for sweep and ablate
      grid: [float] ([0, 0.25, 0.5, 0.75, 1.0])
      scenarios:
        - kind: none | only_missing | only_available | fraction
          view: str
          p: float                        # fraction only
      folds: int (1)                      # >1 runs k-fold cross-validation
      repeats: int (1)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .augmentation import AugPolicy
from .data import SyntheticConfig, SyntheticViewConfig
from .encoders import EncoderConfig
from .evaluation import MissingScenario
from .fusion import FusionConfig
from .training import TrainConfig


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class DataConfig:
    source: str = "synthetic"
    manifest: str | None = None
    synthetic: SyntheticConfig | None = None
    val_fraction: float = 0.2
    normalize: bool = True


@dataclass
class EvalConfig:
    view: str | None = None
    grid: list[float] = field(default_factory=lambda: [0.0, 0.25, 0.5, 0.75, 1.0])
    scenarios: list[MissingScenario] = field(default_factory=list)
    folds: int = 1
    repeats: int = 1


@dataclass
class ExperimentConfig:
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    aug: AugPolicy = field(default_factory=AugPolicy)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def _require_mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping")
    return node


def _check_keys(node: dict, allowed: set[str], where: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _build(cls, node: dict, where: str):
    try:
        return cls(**node)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def parse_config(raw: dict) -> ExperimentConfig:
    raw = _require_mapping(raw, "config")
    _check_keys(raw, {"seed", "data", "model", "fusion", "aug", "train", "eval"},
                "config")

    data_node = _require_mapping(raw.get("data"), "data")
    _check_keys(data_node, {"source", "manifest", "synthetic", "val_fraction",
                            "normalize"}, "data")
    synth = None
    synth_node = _require_mapping(data_node.get("synthetic"), "data.synthetic")
    if synth_node:
        _check_keys(synth_node, {"n_samples", "latent_dim", "task", "classes",
                                 "basis_order", "views", "seed"}, "data.synthetic")
        views_node = synth_node.pop("views", None)
        if not views_node:
            raise ConfigError("data.synthetic.views must list at least one view")
        views = []
        for i, v in enumerate(views_node):
            v = _require_mapping(v, f"data.synthetic.views[{i}]")
            _check_keys(v, {"id", "kind", "time_steps", "channels", "cardinality",
                            "noise", "redundancy", "loading_seed"},
                        f"data.synthetic.views[{i}]")
            view = _build(SyntheticViewConfig, v, f"data.synthetic.views[{i}]")
            try:
                view.spec()
            except ValueError as exc:
                raise ConfigError(f"invalid data.synthetic.views[{i}]: {exc}") from exc
            views.append(view)
        synth = _build(SyntheticConfig, {**synth_node, "views": views},
                       "data.synthetic")
    data = _build(DataConfig, {**{k: v for k, v in data_node.items()
                                  if k != "synthetic"}, "synthetic": synth}, "data")
    if data.source not in ("synthetic", "manifest"):
        raise ConfigError(f"unknown data source {data.source!r}")
    if data.source == "synthetic" and data.synthetic is None:
        raise ConfigError("data.synthetic section is required for synthetic source")
    if data.source == "manifest" and not data.manifest:
        raise ConfigError("data.manifest path is required for manifest source")
    if not 0.0 < data.val_fraction < 1.0:
        raise ConfigError("data.val_fraction must be in (0, 1)")

    model_node = _require_mapping(raw.get("model"), "model")
    _check_keys(model_node, {"latent_dim", "encoder_layers", "encoder_dropout",
                             "conv_kernel"}, "model")
    renames = {"latent_dim": "latent_dim", "encoder_layers": "layers",
               "encoder_dropout": "dropout", "conv_kernel": "conv_kernel"}
    encoder = _build(EncoderConfig,
                     {renames[k]: v for k, v in model_node.items()}, "model")

    fusion_node = _require_mapping(raw.get("fusion"), "fusion")
    _check_keys(fusion_node, {"kind", "heads", "layers", "dropout", "permute",
                              "attention_scaling"}, "fusion")
    fusion = _build(FusionConfig, fusion_node, "fusion")

    aug_node = _require_mapping(raw.get("aug"), "aug")
    _check_keys(aug_node, {"kind", "level", "tempd_ratio"}, "aug")
    aug = _build(AugPolicy, aug_node, "aug")

    train_node = _require_mapping(raw.get("train"), "train")
    _check_keys(train_node, {"batch_size", "lr", "max_epochs", "patience",
                             "class_weighting"}, "train")
    train = _build(TrainConfig, train_node, "train")

    eval_node = _require_mapping(raw.get("eval"), "eval")
    _check_keys(eval_node, {"view", "grid", "scenarios", "folds", "repeats"}, "eval")
    scenarios = []
    for i, s in enumerate(eval_node.get("scenarios", []) or []):
        s = _require_mapping(s, f"eval.scenarios[{i}]")
        _check_keys(s, {"kind", "view", "p"}, f"eval.scenarios[{i}]")
        scenarios.append(_build(MissingScenario, s, f"eval.scenarios[{i}]"))
    eval_cfg = _build(EvalConfig, {**{k: v for k, v in eval_node.items()
                                      if k != "scenarios"},
                                   "scenarios": scenarios}, "eval")
    if eval_cfg.folds < 1 or eval_cfg.repeats < 1:
        raise ConfigError("eval.folds and eval.repeats must be >= 1")
    if any(not 0.0 <= float(p) <= 1.0 for p in eval_cfg.grid):
        raise ConfigError("eval.grid values must lie in [0, 1]")

    cfg = ExperimentConfig(data=data, encoder=encoder, fusion=fusion, aug=aug,
                           train=train, eval=eval_cfg)
    set_seed(cfg, raw.get("seed", 0))
    return cfg


def set_seed(cfg: ExperimentConfig, seed) -> None:
    """Validate ``seed`` and hand it to every section that draws randomness."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    cfg.seed = seed
    cfg.train.seed = seed
    if cfg.data.synthetic is not None:
        cfg.data.synthetic.seed = seed


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parse_config(raw or {})


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """Plain JSON-serializable echo of a config, embedded in artifacts."""
    out = {
        "seed": cfg.seed,
        "data": {
            "source": cfg.data.source,
            "manifest": cfg.data.manifest,
            "val_fraction": cfg.data.val_fraction,
            "normalize": cfg.data.normalize,
        },
        "model": dict(vars(cfg.encoder)),
        "fusion": dict(vars(cfg.fusion)),
        "aug": {"kind": cfg.aug.kind, "level": cfg.aug.level,
                "tempd_ratio": cfg.aug.tempd_ratio},
        "train": {k: v for k, v in vars(cfg.train).items()},
        "eval": {
            "view": cfg.eval.view,
            "grid": list(cfg.eval.grid),
            "scenarios": [{"kind": s.kind, "view": s.view, "p": s.p}
                          for s in cfg.eval.scenarios],
            "folds": cfg.eval.folds,
            "repeats": cfg.eval.repeats,
        },
    }
    if cfg.data.synthetic is not None:
        synth = cfg.data.synthetic
        out["data"]["synthetic"] = {
            "n_samples": synth.n_samples, "latent_dim": synth.latent_dim,
            "task": synth.task, "classes": synth.classes,
            "basis_order": synth.basis_order, "seed": synth.seed,
            "views": [dict(vars(v)) for v in synth.views],
        }
    return out
