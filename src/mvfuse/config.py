"""Experiment configuration: YAML/JSON schema, validation, resolution.

Schema (all sections optional unless noted, defaults in parentheses):

    seed: int (0)                         # the one seed of every random stream
    data:                                 # required
      source: synthetic | manifest (synthetic)
      manifest: path                      # required for source: manifest
      synthetic:                          # required for source: synthetic
        n_samples: int (1000)
        latent_dim: int (8)
        task: classification | regression (classification)
        classes: int (3)
        basis_order: int (3)
        views:                            # required, at least one, distinct ids
          - id: str
            kind: temporal | static | categorical (static)
            time_steps: int               # temporal only, >= 1
            channels: int                 # temporal and static, >= 1
            cardinality: int              # categorical only, >= 2
            noise: float (0.1)
            redundancy: float (0.8)
            loading_seed: int (0)
      val_fraction: float (0.2)
      normalize: bool (true)
    model:
      latent_dim: int (128)               # >= 2: each encoder ends in a layer norm
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
      lr: float (0.001)                   # finite, >= 0
      max_epochs: int (50)
      patience: int (5)
      class_weighting: bool (true)
    eval:
      view: str                           # focus view for sweep and ablate
      grid: [float] ([0, 0.25, 0.5, 0.75, 1.0])  # at least one value, each in [0, 1]
      scenarios:
        - kind: none | only_missing | only_available | fraction
          view: str
          p: float                        # fraction only
      folds: int (1)                      # >1 runs k-fold cross-validation, <= samples
      repeats: int (1)                    # >1 needs folds > 1

Each section is the dataclass that holds it: a key must name one of its
fields (``YAML_NAMES`` renames the few whose YAML name differs), and each
value is checked against the field's annotation before the dataclass checks
its ranges (``ExperimentConfig`` checks those that span sections); a view's
dimension key that its kind does not take is an error too. An int is
never a bool, a float field takes an int, and ``null`` is allowed only where
a field may be unset. Any mismatch is a ``ConfigError`` naming the path, such
as ``eval.scenarios[1]``; a field without a default is a required key. The
synthetic data and the training loop take their seed from the top-level
``seed`` (``INTERNAL``), so no section sets its own. ``resolved_dict`` writes a
config back in this schema, so ``parse_config(resolved_dict(cfg)) == cfg`` and
a run's ``resolved_config.json`` is itself a config that reruns it. A snapshot's
``model.json`` (``model.Snapshot``) and a dataset's ``manifest.json``
(``data.Manifest``) are documents of this schema too, with the same property.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import yaml

from .augmentation import AugPolicy
from .data import SyntheticConfig, validation_size
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

    def __post_init__(self):
        if self.source not in ("synthetic", "manifest"):
            raise ValueError(f"unknown data source {self.source!r}")
        if self.source == "synthetic" and self.synthetic is None:
            raise ValueError("a synthetic section is required for the synthetic source")
        if self.source == "manifest" and not self.manifest:
            raise ValueError("a manifest path is required for the manifest source")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")


@dataclass
class EvalConfig:
    view: str | None = None
    grid: list[float] = field(default_factory=lambda: [0.0, 0.25, 0.5, 0.75, 1.0])
    scenarios: list[MissingScenario] = field(default_factory=list)
    folds: int = 1
    repeats: int = 1

    def __post_init__(self):
        if self.folds < 1 or self.repeats < 1:
            raise ValueError("folds and repeats must be >= 1")
        if self.repeats > 1 and self.folds == 1:
            raise ValueError(f"repeats {self.repeats} needs folds > 1, got folds 1")
        if not self.grid:
            raise ValueError("grid needs at least one value")
        if any(not 0.0 <= p <= 1.0 for p in self.grid):
            raise ValueError("grid values must lie in [0, 1]")


@dataclass
class ExperimentConfig:
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    aug: AugPolicy = field(default_factory=AugPolicy)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.data.source == "synthetic":
            validation_size(self.data.synthetic.n_samples, self.data.val_fraction)
        d, heads = self.encoder.latent_dim, self.fusion.heads
        if self.fusion.kind == "cross" and d % heads != 0:
            raise ValueError(f"model.latent_dim {d} is not divisible by fusion.heads {heads}")
        if self.fusion.kind == "memory" and d % 2 != 0:
            raise ValueError(f"memory fusion needs an even model.latent_dim, got {d}")


# Field name -> YAML key, where the two differ.
YAML_NAMES = {ExperimentConfig: {"encoder": "model"},
              EncoderConfig: {"layers": "encoder_layers", "dropout": "encoder_dropout"}}
# Fields that ``set_seed`` fills in; a config file never sets or shows them.
INTERNAL = {TrainConfig: {"seed"}, SyntheticConfig: {"seed"}}


def _keys(cls) -> dict[str, Field]:
    """YAML key -> field, for every field of ``cls`` a config file sets."""
    names = YAML_NAMES.get(cls, {})
    return {names.get(f.name, f.name): f for f in fields(cls)
            if f.name not in INTERNAL.get(cls, ())}


def _build(cls, node, path: str):
    """A ``cls`` from a YAML or JSON mapping; ``None`` is an empty section."""
    where = path or "document"
    node = {} if node is None else node
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping")
    keys = _keys(cls)
    unknown = set(node) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(map(str, unknown)))}")
    for k, f in keys.items():
        if k not in node and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path} is missing required key {k!r}" if path
                              else f"missing required key {k!r}")
    hints = get_type_hints(cls)
    values = {keys[k].name: _typed(hints[keys[k].name], v, f"{path}.{k}" if path else k)
              for k, v in node.items()}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _typed(hint, value, path: str):
    """``value`` checked against the annotation ``hint``."""
    if get_origin(hint) is UnionType:  # ``X | None``
        if value is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not NoneType]
    if get_origin(hint) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return [_typed(get_args(hint)[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    if get_origin(hint) is dict:  # ``dict[str, X]``, as JSON objects have string keys
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be a mapping, got {value!r}")
        return {k: _typed(get_args(hint)[1], v, f"{path}[{k!r}]") for k, v in value.items()}
    if is_dataclass(hint):
        return _build(hint, value, path)
    if hint is float and type(value) is int:
        return float(value)
    if isinstance(value, hint) and not (hint is int and isinstance(value, bool)):
        return value
    raise ConfigError(f"{path} must be {hint.__name__}, got {value!r}")


def parse_config(raw) -> ExperimentConfig:
    """The config a YAML/JSON mapping describes; ``raw`` is left unchanged."""
    cfg = _build(ExperimentConfig, raw, "")
    set_seed(cfg, cfg.seed)
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
    """Parse a ``.json`` file as JSON and any other file as YAML."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            raw = json.load(fh) if path.suffix == ".json" else yaml.safe_load(fh)
        except (ValueError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parse_config(raw)


def resolved_dict(cfg):
    """The config as a JSON-serializable mapping in the schema above; each
    section, list and value echoes itself."""
    if is_dataclass(cfg):
        return {key: resolved_dict(getattr(cfg, f.name)) for key, f in _keys(type(cfg)).items()}
    if isinstance(cfg, list):
        return [resolved_dict(v) for v in cfg]
    if isinstance(cfg, dict):
        return {k: resolved_dict(v) for k, v in cfg.items()}
    return cfg
