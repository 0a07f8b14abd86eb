"""Workloads of the mvfuse benchmark: inputs, set-up, timed operations, checks.

Every workload builds one model per fusion kind, so each end-to-end metric
exists on each workload. Training workloads time ``training.train_step``;
the inference workload times ``evaluation.evaluate_scenarios``. All inputs
come from the seed given on the command line.
"""

from __future__ import annotations

import math
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mvfuse import data, evaluation, training
from mvfuse.augmentation import AugPolicy, enumerate_combinations
from mvfuse.data import MultiViewDataset, SyntheticConfig, SyntheticViewConfig
from mvfuse.encoders import EncoderConfig
from mvfuse.evaluation import MissingScenario
from mvfuse.fusion import FusionConfig
from mvfuse.model import batch_views, build_model
from mvfuse.rng import stream
from mvfuse.tensor import Adam

KINDS = ("average", "gated", "cross", "memory", "concat")
BATCH = 128


def _temporal(vid: str, steps: int, channels: int, loading: int) -> SyntheticViewConfig:
    return SyntheticViewConfig(id=vid, kind="temporal", time_steps=steps,
                               channels=channels, loading_seed=loading)


def _static(vid: str, channels: int, loading: int) -> SyntheticViewConfig:
    return SyntheticViewConfig(id=vid, kind="static", channels=channels,
                               loading_seed=loading)


def _categorical(vid: str, codes: int, loading: int) -> SyntheticViewConfig:
    return SyntheticViewConfig(id=vid, kind="categorical", cardinality=codes,
                               loading_seed=loading)


@dataclass(frozen=True)
class Workload:
    """One set of inputs. ``aug`` is None for the inference-only workload;
    ``traced_rounds`` is how many rounds over the kinds the traced run records."""

    name: str
    views: tuple
    latent_dim: int
    n_samples: int
    val_fraction: float
    aug: AugPolicy | None
    manifest: bool
    traced_rounds: int

    def synthetic(self, seed: int, n_samples: int) -> SyntheticConfig:
        return SyntheticConfig(n_samples=n_samples, latent_dim=6, classes=3,
                               views=list(self.views), seed=seed)


WORKLOADS = {w.name: w for w in (
    # 127 fuse+head calls per step on tiny arrays: fusion and the per-node cost
    # of the autodiff core dominate, the encoders take a few percent.
    Workload(
        name="combos-m7",
        views=(_temporal("t0", 12, 4, 1), _temporal("t1", 12, 3, 2), _static("s0", 6, 3),
               _static("s1", 4, 4), _static("s2", 5, 5), _static("s3", 3, 6),
               _categorical("c0", 5, 7)),
        latent_dim=32, n_samples=1280, val_fraction=0.2,
        aug=AugPolicy(kind="com", level="feature"), manifest=False, traced_rounds=2),
    # Wide conv stacks and their matmul backward dominate; fusion runs once per
    # mask group. sensd exercises per-sample mask grouping, and the CSV manifest
    # puts the data loader into set-up.
    Workload(
        name="encoders-d128",
        views=(_temporal("t0", 48, 4, 1), _temporal("t1", 48, 3, 2), _categorical("c0", 8, 3)),
        latent_dim=128, n_samples=1024, val_fraction=0.2,
        aug=AugPolicy(kind="sensd", level="feature"), manifest=True, traced_rounds=8),
    # Inference only on large arrays: no backward pass or optimizer; tensor
    # construction and re-encoding every view per scenario dominate, and nearly
    # all samples of a scenario share one availability pattern.
    Workload(
        name="eval-m5",
        views=(_temporal("t0", 24, 4, 1), _static("s0", 6, 2), _static("s1", 4, 3),
               _static("s2", 5, 4), _categorical("c0", 5, 5)),
        latent_dim=64, n_samples=640, val_fraction=0.8,
        aug=None, manifest=False, traced_rounds=2),
)}

# Enough samples for two full training batches, or 256 validation samples.
REFERENCE_SAMPLES = 320


def scenarios(view_ids: list[str]) -> list[MissingScenario]:
    """``none``, each view missing, each view alone, and a sweep over the first view."""
    out = [MissingScenario("none")]
    out += [MissingScenario("only_missing", v) for v in view_ids]
    out += [MissingScenario("only_available", v) for v in view_ids]
    out += [MissingScenario("fraction", view_ids[0], p) for p in (0.0, 0.5, 1.0)]
    return out


# -- set-up ----------------------------------------------------------------------


@dataclass
class Case:
    """Data split, normalized, plus one model (and optimizer) per fusion kind."""

    workload: Workload
    seed: int
    train: MultiViewDataset
    val: MultiViewDataset
    models: dict
    optimizers: dict = field(default_factory=dict)


def write_manifest(w: Workload, seed: int, n_samples: int, directory) -> str:
    """Generate the workload's data and write it as CSV files plus a manifest."""
    ds = data.generate_synthetic(w.synthetic(seed, n_samples))
    return str(data.save_dataset(ds, directory))


def setup(w: Workload, seed: int, n_samples: int, manifest: str | None) -> Case:
    """Load or generate, split, normalize, build models and optimizers."""
    if w.manifest:
        ds = data.load_dataset(manifest)
    else:
        ds = data.generate_synthetic(w.synthetic(seed, n_samples))
    train_idx, val_idx = data.train_val_split(ds.n_samples, w.val_fraction,
                                              stream(seed, "data", "split"))
    ds = data.zscore_apply(ds, data.zscore_fit(ds, train_idx))
    train, val = ds.subset(train_idx), ds.subset(val_idx)
    enc = EncoderConfig(latent_dim=w.latent_dim)
    models = {k: build_model(train.view_specs, enc, FusionConfig(kind=k), train.task,
                             train.n_outputs, "feature", stream(seed, "init", k))
              for k in KINDS}
    case = Case(w, seed, train, val, models)
    if w.aug is not None:
        case.optimizers = {k: Adam(m.parameters()) for k, m in models.items()}
    return case


# -- operations ----------------------------------------------------------------


class Trainer:
    """Closed-loop training of one fusion kind over full shuffled batches."""

    def __init__(self, case: Case, kind: str):
        self.case = case
        self.kind = kind
        self.model = case.models[kind]
        self.optimizer = case.optimizers[kind]
        m = len(case.train.view_specs)
        aug = case.workload.aug
        self.combos = enumerate_combinations(m) if aug.kind == "com" else [tuple(range(m))]
        self.weights = training.class_weights(case.train.y, case.train.n_classes)
        self.reseed("run")

    def reseed(self, tag: str) -> None:
        """Fresh mask, dropout and batch-order streams, so a pass repeats exactly."""
        seed, kind = self.case.seed, self.kind
        self.mask_rng = stream(seed, tag, "masks", kind)
        self.dropout_rng = stream(seed, tag, "dropout", kind)
        self.shuffle_rng = stream(seed, tag, "shuffle", kind)
        self.pending: list[np.ndarray] = []

    def _next_batch(self) -> np.ndarray:
        if not self.pending:
            order = self.shuffle_rng.permutation(self.case.train.n_samples)
            self.pending = [order[i:i + BATCH]
                            for i in range(0, len(order) - BATCH + 1, BATCH)]
        return self.pending.pop(0)

    def step(self) -> float:
        idx = self._next_batch()
        train = self.case.train
        return training.train_step(self.model, batch_views(train.views, idx), train.y[idx],
                                   self.case.workload.aug, self.combos, self.optimizer,
                                   train.task, self.weights, self.mask_rng,
                                   self.dropout_rng)

    def validation_loss(self) -> float:
        full = tuple(range(len(self.case.val.view_specs)))
        return training.validation_losses(self.model, self.case.val, [full])[full]


def summary_values(report) -> dict[str, float]:
    return {f"{r['scenario']}/{r['metric']}": r["mean"] for r in report.summary()}


def evaluate(case: Case, kind: str) -> dict[str, float]:
    report = evaluation.evaluate_scenarios(case.models[kind], case.val,
                                           scenarios(case.val.view_ids), case.seed)
    return summary_values(report)


@dataclass
class Op:
    """One timed operation: a training step or one evaluation pass of a kind."""

    kind: str
    run: object
    check: object
    samples: int


def train_ops(case: Case) -> tuple[list[Op], dict[str, Trainer]]:
    trainers = {k: Trainer(case, k) for k in KINDS}
    ops = [Op(k, t.step, check_loss, BATCH) for k, t in trainers.items()]
    return ops, trainers


def eval_ops(case: Case) -> list[Op]:
    first: dict[str, dict] = {}
    per_pass = case.val.n_samples * len(scenarios(case.val.view_ids))

    def make(kind):
        def check(values):
            return check_eval(values, first.setdefault(kind, values), case.val.view_ids)
        return Op(kind, lambda: evaluate(case, kind), check, per_pass)

    return [make(k) for k in KINDS]


def make_ops(case: Case) -> list[Op]:
    return train_ops(case)[0] if case.workload.aug is not None else eval_ops(case)


# -- measuring -------------------------------------------------------------------


class Tally:
    """Operations attempted and failed; failures are also reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str], what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)
        return not problems


# Every timed operation is bracketed by calibration: fixed numpy work of the
# benchmark's own that never touches mvfuse, in three parts (small arrays
# driven from Python, a BLAS matmul, a large elementwise pass), each timed three
# times. The machine this was written on changes speed by up to 60% from one
# second to the next; scaling an operation's time by CALIBRATION_NOMINAL_S /
# (calibration time around it) cut the spread of 25-second medians from about
# 20% to about 4% on every workload, and a change to the engine still moves the
# scaled time exactly as much as the raw one.
CALIBRATION_NOMINAL_S = 0.0015
_CAL_RNG = np.random.default_rng(20250102)
_CAL_SMALL = (_CAL_RNG.standard_normal((128, 32)), _CAL_RNG.standard_normal((32, 32)) / 6)
_CAL_BLAS = (_CAL_RNG.standard_normal((1024, 128)), _CAL_RNG.standard_normal((128, 128)) / 12)
_CAL_LARGE = _CAL_RNG.standard_normal((256, 24, 64))


def _small() -> None:
    x, w = _CAL_SMALL
    for _ in range(10):
        z = np.maximum(x @ w, 0.0) * 0.5
        [np.add(z[i:i + 8], 1.0) for i in range(0, 128, 8)]


def _blas() -> None:
    x, w = _CAL_BLAS
    np.isfinite(np.maximum(x @ w, 0.0) * 0.5).all()


def _large() -> None:
    np.isfinite(_CAL_LARGE * 0.5 + 1.0).all()


def calibration_s() -> float:
    """Sum over the calibration parts of the median of three timed runs."""
    total = 0.0
    for part in (_small, _blas, _large):
        runs = []
        for _ in range(3):
            t0 = perf_counter()
            part()
            runs.append(perf_counter() - t0)
        total += statistics.median(runs)
    return total


@dataclass
class Timing:
    """Wall time of one operation and the mean calibration time around it."""

    wall_s: float
    calibration_s: float

    @property
    def scaled_s(self) -> float:
        return self.wall_s * CALIBRATION_NOMINAL_S / self.calibration_s


def calibrated(fn) -> tuple[object, Timing]:
    """Call ``fn`` between two calibration slices."""
    before = calibration_s()
    t0 = perf_counter()
    result = fn()
    wall = perf_counter() - t0
    return result, Timing(wall, (before + calibration_s()) / 2)


# Within a round each kind runs until it has used at least this long, so kinds
# with short operations collect more samples for their medians.
ROUND_SHARE_S = 0.25


def timed_loop(ops, seconds: float, tally: Tally, min_rounds: int = 3) -> dict[str, list]:
    """Run rounds over ``ops`` until ``seconds`` have passed and ``min_rounds``
    rounds are done; returns the Timing of each run that passed its check, per
    kind. Exceptions and failed checks count as failed operations."""
    times: dict[str, list[Timing]] = {op.kind: [] for op in ops}
    rounds = 0
    start = perf_counter()
    before = calibration_s()
    while perf_counter() - start < seconds or rounds < min_rounds:
        rounds += 1
        for op in ops:
            used = 0.0
            while used < ROUND_SHARE_S:
                t0 = perf_counter()
                try:
                    result = op.run()
                except Exception:
                    traceback.print_exc()
                    tally.record(["raised"], op.kind)
                    before = calibration_s()
                    break
                wall = perf_counter() - t0
                used += wall
                after = calibration_s()
                if tally.record(op.check(result), op.kind):
                    times[op.kind].append(Timing(wall, (before + after) / 2))
                before = after
    return times


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it: the eleventh
    largest value, or the largest when there are fewer than eleven."""
    s = sorted(values)
    return s[-11] if len(s) >= 11 else s[-1]


# -- output checks -------------------------------------------------------------


def check_loss(loss: float) -> list[str]:
    return [] if math.isfinite(loss) else [f"non-finite training loss {loss!r}"]


def check_eval(values: dict[str, float], first: dict[str, float],
               view_ids: list[str]) -> list[str]:
    """Range, identity and determinism checks that hold for any seed.

    The ``none`` scenario compares full-view predictions to themselves; the
    fraction sweep's endpoints must equal ``none`` and ``only_missing`` of
    the swept view exactly; a repeated pass must give identical values.
    """
    problems = [f"{k} = {v!r} outside [0, 1]" for k, v in values.items()
                if not 0.0 <= v <= 1.0]
    if values.get("none/class_change") != 0.0 or values.get("none/prs") != 1.0:
        problems.append("full-view scenario does not match itself")
    swept = view_ids[0]
    for p, twin in (("0", "none"), ("1", f"only_missing:{swept}")):
        for metric in ("f1", "auc_pr", "class_change", "prs"):
            if values.get(f"fraction:{swept}:{p}/{metric}") != values.get(f"{twin}/{metric}"):
                problems.append(f"sweep endpoint p={p} differs from {twin} on {metric}")
    if values != first:
        problems.append("repeated evaluation pass gave different values")
    return problems


# -- reference case --------------------------------------------------------------


REFERENCE_SEED = 0


def reference_values(w: Workload, work: Path) -> dict[str, float]:
    """Outputs of the reference case: one training step per kind and the
    full-view validation loss after it, or one evaluation pass per kind.
    A manifest, where the workload reads one, is written under ``work``."""
    manifest = (write_manifest(w, REFERENCE_SEED, REFERENCE_SAMPLES, work / f"ref-{w.name}")
                if w.manifest else None)
    case = setup(w, REFERENCE_SEED, REFERENCE_SAMPLES, manifest)
    out: dict[str, float] = {}
    if w.aug is None:
        for kind in KINDS:
            for key, value in evaluate(case, kind).items():
                out[f"{kind}/{key}"] = value
        return out
    _, trainers = train_ops(case)
    for kind, trainer in trainers.items():
        out[f"{kind}/step_loss"] = trainer.step()
        out[f"{kind}/val_loss"] = trainer.validation_loss()
    return out
