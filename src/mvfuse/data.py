"""Multi-view datasets: synthetic generation, CSV ingestion, normalization.

The synthetic generator draws a shared latent factor per sample and renders
each view as a noisy linear readout of a mix between that shared factor and a
view-private one; the redundancy knob controls how much signal the views
share, which is what makes missing-view robustness measurable. Datasets round
trip through plain CSV files plus ``manifest.json``, a config-schema ``Manifest``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .encoders import ViewSpec
from .rng import stream


class DataError(Exception):
    """Base class for dataset loading problems."""


class RowCountError(DataError):
    """Row counts disagree between view files and targets."""


class UnknownViewError(DataError):
    """A view id is not declared in the dataset."""


class MalformedFieldError(DataError):
    """A CSV field could not be parsed as the expected number."""


def _check_view(spec: ViewSpec, arr: np.ndarray) -> None:
    """DataError naming the view unless ``arr`` has the layout its spec declares."""
    shape = () if spec.kind == "categorical" else spec.raw_shape
    if arr.shape[1:] != shape:
        raise DataError(f"view {spec.id!r} has per-sample shape {arr.shape[1:]}, "
                        f"its spec declares {shape}")
    if spec.kind == "categorical":
        if not np.issubdtype(arr.dtype, np.integer):
            raise DataError(f"view {spec.id!r} needs integer codes, got {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() >= spec.cardinality):
            raise DataError(f"view {spec.id!r} has codes outside [0, {spec.cardinality})")


TASKS = ("classification", "regression")


def check_views(views: list[ViewSpec]) -> None:
    """ValueError unless ``views`` is non-empty and its ids are distinct."""
    if not views:
        raise ValueError("need at least one view")
    ids = [v.id for v in views]
    for i, vid in enumerate(ids):
        if vid in ids[:i]:
            raise ValueError(f"view id {vid!r} is declared more than once")


class MultiViewDataset:
    """Per-sample view arrays plus targets.

    ``views[id]`` is (N, T, c) for temporal views, (N, c) for static views,
    and (N,) integer codes for categorical views. Targets are integer class
    labels in [0, n_classes) or float regression values. Each record of
    ``view_specs``, a ``ViewFile`` say, is kept as its plain ``ViewSpec``.
    """

    def __init__(self, view_specs: list[ViewSpec], views: dict[str, np.ndarray],
                 y: np.ndarray, task: str, n_classes: int | None = None):
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        check_views(view_specs)
        self.view_specs = [ViewSpec(s.id, s.kind, s.time_steps, s.channels, s.cardinality)
                           for s in view_specs]
        self.views = dict(views)
        self.y = np.asarray(y)
        self.task = task
        self.n_classes = n_classes
        n = self.y.shape[0]
        for spec in self.view_specs:
            if spec.id not in self.views:
                raise UnknownViewError(f"view {spec.id!r} missing from data")
            rows = self.views[spec.id].shape[0]
            if rows != n:
                raise RowCountError(
                    f"view {spec.id!r} has {rows} samples, targets have {n}")
            _check_view(spec, self.views[spec.id])
        if task == "classification":
            if n_classes is None or n_classes < 2:
                raise DataError(f"classification needs classes >= 2, got {n_classes!r}")
            if n and (self.y.min() < 0 or self.y.max() >= n_classes):
                raise DataError(f"targets have labels outside [0, {n_classes}) "
                                f"for classes {n_classes}")

    @property
    def n_samples(self) -> int:
        return int(self.y.shape[0])

    @property
    def view_ids(self) -> list[str]:
        return [s.id for s in self.view_specs]

    def subset(self, indices: np.ndarray) -> "MultiViewDataset":
        views = {vid: arr[indices] for vid, arr in self.views.items()}
        return MultiViewDataset(self.view_specs, views, self.y[indices],
                                self.task, self.n_classes)

    @property
    def n_outputs(self) -> int:
        return self.n_classes if self.task == "classification" else 1


# -- synthetic generation ------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class SyntheticViewConfig(ViewSpec):
    """A view's spec and how to render it from the latent factors."""

    kind: str = "static"
    noise: float = 0.1
    redundancy: float = 0.8
    loading_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.redundancy <= 1.0:
            raise ValueError("redundancy must be in [0, 1]")
        if not self.noise >= 0.0:
            raise ValueError("noise must be >= 0")
        super().__post_init__()


@dataclass
class SyntheticConfig:
    n_samples: int = 1000
    latent_dim: int = 8
    task: str = "classification"
    classes: int = 3
    views: list[SyntheticViewConfig] = field(default_factory=list)
    basis_order: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1 or self.latent_dim < 1 or self.basis_order < 1:
            raise ValueError("n_samples, latent_dim and basis_order must be >= 1")
        check_views(self.views)
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == "classification" and self.classes < 2:
            raise ValueError("classification needs >= 2 classes")


def _temporal_basis(order: int, time_steps: int) -> np.ndarray:
    """Smooth low-order cosine basis, shape (order, T)."""
    t = (np.arange(time_steps) + 0.5) / time_steps
    return np.stack([np.cos(np.pi * j * t) for j in range(order)])


def generate_synthetic(cfg: SyntheticConfig) -> MultiViewDataset:
    """Sample a dataset from the shared-latent-factor model.

    Each view observes loading @ (rho * u + (1 - rho) * u_private) plus
    Gaussian noise; temporal views render that projection through a smooth
    cosine basis over time. Labels are argmax of a fixed linear readout of
    the shared factor (classification) or a linear readout (regression).
    """
    k = cfg.latent_dim
    n = cfg.n_samples
    rng = stream(cfg.seed, "data")
    u = rng.standard_normal((n, k))

    views: dict[str, np.ndarray] = {}
    for view in cfg.views:
        load_rng = np.random.default_rng(view.loading_seed)
        private = rng.standard_normal((n, k))
        mix = view.redundancy * u + (1.0 - view.redundancy) * private
        if view.kind == "temporal":
            c, T, j = view.channels, view.time_steps, cfg.basis_order
            loading = load_rng.standard_normal((j, c, k)) / np.sqrt(k)
            basis = _temporal_basis(j, T)
            coeffs = np.einsum("nk,jck->njc", mix, loading)
            series = np.einsum("jt,njc->ntc", basis, coeffs)
            series += view.noise * rng.standard_normal(series.shape)
            views[view.id] = series
        elif view.kind == "static":
            c = view.channels
            loading = load_rng.standard_normal((c, k)) / np.sqrt(k)
            x = mix @ loading.T + view.noise * rng.standard_normal((n, c))
            views[view.id] = x
        else:
            loading = load_rng.standard_normal(k) / np.sqrt(k)
            raw = mix @ loading + view.noise * rng.standard_normal(n)
            edges = np.quantile(raw, np.linspace(0, 1, view.cardinality + 1)[1:-1])
            views[view.id] = np.digitize(raw, edges).astype(np.int64)

    label_rng = np.random.default_rng(cfg.seed + 1_000_003)
    if cfg.task == "classification":
        readout = label_rng.standard_normal((cfg.classes, k))
        y = np.argmax(u @ readout.T, axis=1).astype(np.int64)
        n_classes = cfg.classes
    else:
        readout = label_rng.standard_normal(k) / np.sqrt(k)
        y = u @ readout
        n_classes = None
    return MultiViewDataset(cfg.views, views, y, cfg.task, n_classes)


# -- splits ---------------------------------------------------------------------


def validation_size(n: int, val_fraction: float) -> int:
    """Validation samples in a split of ``n``; at least one is left to train on."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must be in (0, 1)")
    n_val = max(1, int(round(val_fraction * n)))
    if n_val >= n:
        raise ValueError(f"a {val_fraction:g} split of {n} samples leaves none for training")
    return n_val


def train_val_split(n: int, val_fraction: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    n_val = validation_size(n, val_fraction)
    perm = rng.permutation(n)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def kfold_indices(n: int, folds: int = 5, repeats: int = 1,
                  seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, validation) index pairs for repeated k-fold cross-validation."""
    if folds < 2:
        raise ValueError("k-fold needs k >= 2")
    if folds > n:
        raise ValueError(f"{folds} folds need at least {folds} samples, got {n}")
    out = []
    for rep in range(repeats):
        perm = stream(seed, "folds", rep).permutation(n)
        parts = np.array_split(perm, folds)
        for i in range(folds):
            val = np.sort(parts[i])
            train = np.sort(np.concatenate([parts[j] for j in range(folds) if j != i]))
            out.append((train, val))
    return out


# -- z-score normalization -------------------------------------------------------


def zscore_fit(ds: MultiViewDataset, indices: np.ndarray | None = None) -> dict:
    """Per-channel mean and std from the given (training) rows only.

    Categorical views are skipped. Constant channels get std 1 so they map
    to zero rather than blowing up.
    """
    stats: dict[str, dict[str, list[float]]] = {}
    for spec in ds.view_specs:
        if spec.kind == "categorical":
            continue
        arr = ds.views[spec.id]
        rows = arr if indices is None else arr[indices]
        flat = rows.reshape(-1, rows.shape[-1])
        mean = flat.mean(axis=0)
        std = flat.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        stats[spec.id] = {"mean": mean.tolist(), "std": std.tolist()}
    return stats


def zscore_apply(ds: MultiViewDataset, stats: dict) -> MultiViewDataset:
    views = {vid: ds.views[vid] for vid in ds.view_ids}
    for vid, entry in stats.items():
        if vid in views:
            views[vid] = (views[vid] - np.asarray(entry["mean"])) / np.asarray(entry["std"])
    return MultiViewDataset(ds.view_specs, views, ds.y, ds.task, ds.n_classes)


# -- CSV and manifest round trip ----------------------------------------------


def _float_field(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise MalformedFieldError(f"{where}: cannot parse {text!r} as a number") from exc
    if not math.isfinite(value):
        raise MalformedFieldError(f"{where}: {text!r} is not a finite number")
    return value


def _int_field(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        value = _float_field(text, where)
    if not value.is_integer():
        raise MalformedFieldError(f"{where}: {text!r} is not an integer")
    return int(value)


INT64 = np.iinfo(np.int64)


def _int64_field(text: str, where: str) -> int:
    """``_int_field`` for a value stored as int64: a categorical code or a class label."""
    value = _int_field(text, where)
    if not INT64.min <= value <= INT64.max:
        raise MalformedFieldError(f"{where}: {text!r} is outside the int64 range")
    return value


def write_json(path: str | Path, payload: dict) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True, kw_only=True)
class ViewFile(ViewSpec):
    """A manifest's view: its spec and the CSV file, relative to the manifest."""

    path: str


@dataclass
class Targets:
    path: str
    task: str
    classes: int | None = None  # inferred from the labels when unset

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.classes is not None and self.classes < 2:
            raise ValueError(f"classes must be >= 2, got {self.classes}")


@dataclass
class NormStats:
    mean: list[float]
    std: list[float]


@dataclass
class Manifest:
    """``manifest.json``, a document of the config schema."""

    targets: Targets
    views: list[ViewFile]
    norm_stats: dict[str, NormStats] = field(default_factory=dict)

    def __post_init__(self):
        check_views(self.views)
        channels = {v.id: v.channels for v in self.views if v.kind != "categorical"}
        for vid, stats in self.norm_stats.items():
            if vid not in channels:
                raise ValueError(f"norm_stats names {vid!r}, not a non-categorical view")
            for key, above, bound in (("mean", -math.inf, ""), ("std", 0.0, " > 0")):
                values = getattr(stats, key)
                if len(values) != channels[vid] or not all(above < x < math.inf for x in values):
                    raise ValueError(f"norm_stats[{vid!r}].{key} must be {channels[vid]} finite "
                                     f"numbers{bound}, got {values!r}")


def save_dataset(ds: MultiViewDataset, out_dir: str | Path) -> Path:
    """Write one CSV per view plus targets and a JSON manifest; returns the manifest path."""
    from .config import resolved_dict  # config imports this module
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = [ViewFile(**asdict(spec), path=f"view_{spec.id}.csv") for spec in ds.view_specs]
    for spec in files:
        arr = ds.views[spec.id]
        with open(out / spec.path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if spec.kind == "temporal":
                writer.writerow(["sample_id", "t"] + [f"c{j}" for j in range(spec.channels)])
                for i in range(arr.shape[0]):
                    for t in range(arr.shape[1]):
                        writer.writerow([i, t] + [repr(float(v)) for v in arr[i, t]])
            elif spec.kind == "static":
                writer.writerow([f"c{j}" for j in range(spec.channels)])
                for row in arr:
                    writer.writerow([repr(float(v)) for v in row])
            else:
                writer.writerow(["code"])
                for v in arr:
                    writer.writerow([int(v)])
    with open(out / "targets.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"])
        for v in ds.y:
            writer.writerow([int(v) if ds.task == "classification" else repr(float(v))])
    manifest = Manifest(Targets("targets.csv", ds.task, ds.n_classes), files)
    write_json(out / "manifest.json", resolved_dict(manifest))
    return out / "manifest.json"


def _csv_rows(path: Path, width: int, expected: str):
    """``(file:line, fields)`` of each data row of a view CSV after its header;
    a row without ``width`` fields is a DataError saying it ``expected``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise DataError(f"{path} is empty: expected a header row")
        for ln, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DataError(f"{path}:{ln}: expected {expected}, got {len(row)} fields")
            yield f"{path}:{ln}", row


CSV_BLOCK = 1024  # data rows converted by one np.fromiter call


def _bulk_blocks(path: Path, width: int) -> list[np.ndarray] | None:
    """The data rows of a view CSV as ``(rows, width)`` float64 blocks of up
    to ``CSV_BLOCK`` rows, or None when the file has no header, a row has
    another field count, or a field is not a finite number. Each field goes
    through ``float``, as in ``_float_field``."""
    blocks = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) is None:
                return None
            while rows := list(islice(reader, CSV_BLOCK)):
                if set(map(len, rows)) != {width}:
                    return None
                block = np.fromiter(map(float, chain.from_iterable(rows)), np.float64,
                                    count=len(rows) * width).reshape(len(rows), width)
                if not np.isfinite(block).all():
                    return None
                blocks.append(block)
    except (ValueError, csv.Error):  # a field float rejects, or a file csv or utf-8 rejects
        return None
    return blocks


def _bulk_static(path: Path, c: int) -> np.ndarray | None:
    """A static view file as its ``(rows, c)`` array, or None when the file
    has any fault ``_static_rows`` names."""
    blocks = _bulk_blocks(path, c)
    if blocks is None:
        return None
    return np.concatenate(blocks) if blocks else np.empty((0, c))


def _bulk_temporal(path: Path, n: int, T: int, c: int) -> np.ndarray | None:
    """A temporal view file as its ``(n, T, c)`` array, or None when the file
    has any fault ``_temporal_rows`` names. Nothing of size ``n * T`` is
    allocated before the file is known to hold that many rows. Those rows
    fill every (sample, step) slot exactly once when they fill them all."""
    blocks = _bulk_blocks(path, c + 2)
    if blocks is None or sum(map(len, blocks)) != n * T:
        return None
    arr = np.empty((n * T, c))
    filled = np.zeros(n * T, dtype=bool)
    for block in blocks:
        ids, steps = block[:, 0], block[:, 1]
        if not (np.array_equal(ids, np.floor(ids)) and np.array_equal(steps, np.floor(steps))
                and 0 <= ids.min() and ids.max() < n and 0 <= steps.min() and steps.max() < T):
            return None
        keys = ids.astype(np.int64) * T + steps.astype(np.int64)
        arr[keys] = block[:, 2:]
        filled[keys] = True
    return arr.reshape(n, T, c) if filled.all() else None


def _temporal_rows(path: Path, vid: str, n: int, T: int, c: int) -> None:
    """Raise the first fault of a temporal view file, in file order: a row's
    field count, its sample id, step and values, a repeated (sample, step)
    pair, and last any pair no row holds."""
    seen = set()
    for where, row in _csv_rows(path, c + 2, f"sample_id, t and {c} values"):
        i, t = _int_field(row[0], where), _int_field(row[1], where)
        if not 0 <= i < n:
            raise RowCountError(f"view {vid!r} references sample {i}, targets have {n} rows")
        if not 0 <= t < T:
            raise RowCountError(f"view {vid!r} has step {t} outside 0..{T - 1}")
        if (i, t) in seen:
            raise RowCountError(f"{where}: view {vid!r} repeats sample {i}, step {t}")
        seen.add((i, t))
        for v in row[2:]:
            _float_field(v, where)
    if len(seen) < n * T:
        raise RowCountError(f"view {vid!r} is missing (sample, step) rows")


def _static_rows(path: Path, c: int) -> None:
    """Raise the first fault of a static view file, in file order."""
    for where, row in _csv_rows(path, c, f"{c} values"):
        for v in row:
            _float_field(v, where)


def load_dataset(manifest_path: str | Path) -> MultiViewDataset:
    """Load a dataset from its manifest; all view files must agree on row count.

    Temporal and static view files are parsed in bulk, ``CSV_BLOCK`` rows per
    ``np.fromiter`` over Python's ``float``, and checked as whole arrays. When
    that finds any fault, the row checks (``_temporal_rows``, ``_static_rows``)
    read the file again only to raise its first fault in file order, with its
    file and line; they are the one definition of what a view file may hold.
    Categorical codes and targets are read row by row. A code or a
    classification label must fit in int64.
    """
    from .config import ConfigError, _build  # config imports this module
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    with open(manifest_path) as fh:
        try:
            manifest = _build(Manifest, json.load(fh), "")
        except ValueError as exc:  # only json raises one; _build raises ConfigError
            raise DataError(f"cannot parse {manifest_path}: {exc}") from exc
        except ConfigError as exc:
            raise DataError(f"{manifest_path}: {exc}") from exc
    base = manifest_path.parent

    task = manifest.targets.task
    target_file = base / manifest.targets.path
    if not target_file.exists():
        raise FileNotFoundError(f"targets file not found: {target_file}")
    y_vals = []
    with open(target_file, newline="") as fh:
        reader = csv.DictReader(fh)
        if "y" not in (reader.fieldnames or []):
            raise DataError(f"targets file {target_file} has no 'y' column")
        label = _int64_field if task == "classification" else _float_field
        for ln, row in enumerate(reader, start=2):
            if row["y"] is None:  # the row is shorter than the header
                raise DataError(f"{target_file}:{ln}: expected a 'y' field")
            y_vals.append(label(row["y"], f"{target_file}:{ln}"))
    if not y_vals:
        raise DataError(f"targets file {target_file} has no rows after its header")
    y = np.asarray(y_vals, dtype=np.int64 if task == "classification" else np.float64)
    n = y.shape[0]

    views: dict[str, np.ndarray] = {}
    for entry in manifest.views:
        vid, T, c = entry.id, entry.time_steps, entry.channels
        path = base / entry.path
        if not path.exists():
            raise FileNotFoundError(f"view file not found: {path}")
        if entry.kind == "temporal":
            arr = _bulk_temporal(path, n, T, c)
            if arr is None:
                _temporal_rows(path, vid, n, T, c)
        elif entry.kind == "static":
            arr = _bulk_static(path, c)
            if arr is None:
                _static_rows(path, c)
        else:
            arr = np.asarray([_int64_field(row[0], where)
                              for where, row in _csv_rows(path, 1, "1 code")], dtype=np.int64)
        if arr is None:
            raise AssertionError(f"{path}: the bulk parse found a fault the row checks did not")
        views[vid] = arr

    n_classes = manifest.targets.classes
    if task == "classification" and n_classes is None:
        n_classes = int(y.max()) + 1
    ds = MultiViewDataset(manifest.views, views, y, task, n_classes)
    stats = {vid: asdict(entry) for vid, entry in manifest.norm_stats.items()}
    return zscore_apply(ds, stats) if stats else ds
