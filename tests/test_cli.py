"""Command line: artifacts, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from mvfuse.cli import main
from mvfuse.data import load_dataset

from test_data import replace_field, toy_copy


def base_config(task="classification", aug="com", fusion="average", seed=11):
    return {
        "seed": seed,
        "data": {
            "source": "synthetic",
            "val_fraction": 0.25,
            "synthetic": {
                "n_samples": 120, "latent_dim": 4, "task": task, "classes": 3,
                "views": [
                    {"id": "optical", "kind": "temporal", "time_steps": 5,
                     "channels": 2, "noise": 0.1, "redundancy": 0.8, "loading_seed": 1},
                    {"id": "radar", "kind": "static", "channels": 3, "noise": 0.4,
                     "redundancy": 0.8, "loading_seed": 2},
                ],
            },
        },
        "model": {"latent_dim": 8, "encoder_layers": 1, "encoder_dropout": 0.1},
        "fusion": {"kind": fusion, "heads": 2, "dropout": 0.0},
        "aug": {"kind": aug, "level": "feature"},
        "train": {"batch_size": 30, "lr": 0.003, "max_epochs": 2, "patience": 3},
        "eval": {"view": "optical", "grid": [0.0, 0.5, 1.0]},
    }


# (dotted path, value): each makes base_config() malformed.
MALFORMED = [
    ("eval.grid", 5), ("eval.grid", "ab"), ("eval.grid", [0.0, 1.5]),
    ("eval.scenarios", 5), ("eval.scenarios", [{"kind": "none"}, {"kind": "bogus"}]),
    ("eval.folds", "2"), ("eval.folds", 0),
    ("data.synthetic.views", 5), ("data.synthetic.seed", 3), ("data.val_fraction", "x"),
    ("train.max_epochs", 1.5), ("train.batch_size", 2.5), ("train.lr", "x"),
    ("train.lr", -1), ("train.patience", True), ("model.latent_dim", None),
    ("data.synthetic.n_samples", 0), ("data.synthetic.n_samples", 1), ("data.val_fraction", 0.999),
    ("data.synthetic.basis_order", 0), ("model.conv_kernel", 0), ("model.conv_kernel", 2),
    pytest.param(("fusion.kind", "fusion.heads"), ("cross", 3), id="cross-heads-3"),
    pytest.param(("fusion.kind", "model.latent_dim"), ("memory", 7), id="memory-latent_dim-7"),
    ("data.synthetic.task", "regresion"), ("data.source", "bogus"), ("data.source", "manifest"),
    ("data.val_fraction", 0), ("data.val_fraction", 1.0),
    ("data.synthetic.views.0.redundancy", 1.5), ("data.synthetic.views.0.noise", -1),
    ("data.synthetic.views.1.channels", 0), ("data.synthetic.latent_dim", 0),
    ("data.synthetic.views", []), ("data.synthetic.classes", 1),
    ("model.encoder_layers", 0), ("model.encoder_dropout", 1.0),
    ("fusion.layers", 0), ("fusion.heads", 0), ("fusion.dropout", 1.0),
    ("train.batch_size", 0), ("train.patience", 0), ("train.max_epochs", 0),
    ("aug.tempd_ratio", 1.0), ("eval.repeats", 3),
]


def with_value(path, value):
    """base_config() with the dotted ``path`` set to ``value``, or each of a
    tuple of paths set to the matching entry of a tuple of values. A numeric
    segment indexes a list."""
    raw = base_config()
    pairs = zip(path, value) if isinstance(path, tuple) else [(path, value)]
    for dotted, new in pairs:
        *parents, key = [int(name) if name.isdigit() else name for name in dotted.split(".")]
        node = raw
        for name in parents:
            node = node[name]
        node[key] = new
    return raw


def one_view_config():
    """Input-level training on the radar view alone."""
    raw = base_config(aug="none")
    raw["data"]["synthetic"]["views"] = raw["data"]["synthetic"]["views"][1:]
    raw["aug"]["level"] = "input"
    return raw


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return str(path)


class TestSynth:
    def test_writes_loadable_dataset(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "data"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        ds = load_dataset(out / "manifest.json")
        assert ds.n_samples == 120
        assert (out / "view_optical.csv").exists()
        assert (out / "resolved_config.json").exists()


class TestTrain:
    def test_writes_snapshot_and_log(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        for name in ("model.json", "model.npz", "train_log.jsonl",
                     "resolved_config.json"):
            assert (out / name).exists(), name
        records = [json.loads(line)
                   for line in (out / "train_log.jsonl").read_text().splitlines()]
        assert records[0]["epoch"] == 1
        assert "val_loss" in records[0]

    def test_resolved_config_reruns_the_run(self, tmp_path):
        raw = base_config()
        raw["train"]["lr"] = 5e-05  # written as 5e-05, which YAML would read as a string
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["train", "--config", write_config(tmp_path, raw),
                     "--out", str(first)]) == 0
        assert main(["train", "--config", str(first / "resolved_config.json"),
                     "--out", str(second)]) == 0
        for name in ("model.npz", "train_log.jsonl", "resolved_config.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        a, b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", cfg, "--out", str(a), "--seed", "99"])
        main(["train", "--config", cfg, "--out", str(b)])
        pa = np.load(a / "model.npz")
        pb = np.load(b / "model.npz")
        assert any(not np.array_equal(pa[k], pb[k]) for k in pa.files)


class TestEvaluate:
    def test_train_then_evaluate_twice_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        summaries = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(["train", "--config", cfg, "--out", str(out)]) == 0
            assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0
            summaries.append((out / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]

    def test_report_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(out)])
        main(["evaluate", "--config", cfg, "--out", str(out)])
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "scenario,view,p,metric,fold,seed,value"
        scenarios = {line.split(",")[0] for line in lines[1:]}
        assert scenarios == {"none", "only_missing:optical", "only_available:optical"}

    def test_summary_embeds_config_and_seed(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(out)])
        main(["evaluate", "--config", cfg, "--out", str(out)])
        payload = json.loads((out / "summary.json").read_text())
        assert payload["seed"] == 11
        assert payload["config"]["fusion"]["kind"] == "average"
        assert payload["results"]

    def test_kfold_mode_produces_fold_rows(self, tmp_path):
        raw = base_config()
        raw["eval"]["folds"] = 2
        raw["data"]["synthetic"]["n_samples"] = 60
        raw["train"]["max_epochs"] = 1
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "cv"
        assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()[1:]
        folds = {line.split(",")[4] for line in lines}
        assert folds == {"0", "1"}


class TestSweep:
    def test_sweep_writes_grid(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(out)])
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()[1:]
        ps = sorted({line.split(",")[2] for line in lines})
        assert len(ps) == 3

    def test_explicit_model_dir_is_reused(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        trained = tmp_path / "trained"
        main(["train", "--config", cfg, "--out", str(trained)])
        out = tmp_path / "elsewhere"
        assert main(["evaluate", "--config", cfg, "--out", str(out),
                     "--model", str(trained)]) == 0
        assert not (out / "model.json").exists()  # no retraining happened
        assert (out / "summary.json").exists()


class TestGradcheckCommand:
    def test_exit_zero_and_report(self, tmp_path):
        out = tmp_path / "gc"
        code = main(["gradcheck", "--out", str(out), "--gradcheck-seeds", "2"])
        assert code == 0
        payload = json.loads((out / "gradcheck.json").read_text())
        assert payload["passed"] is True
        assert payload["max_relative_error"] < 1e-4

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_seed_count_below_one_is_config_error(self, tmp_path, seeds):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--out", str(out), "--gradcheck-seeds", seeds]) == 2
        assert not (out / "gradcheck.json").exists()


class TestAblate:
    def test_grid_has_six_rows(self, tmp_path):
        raw = base_config()
        raw["data"]["synthetic"]["n_samples"] = 60
        raw["train"]["max_epochs"] = 1
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 7  # header + 3 augs x 2 levels
        cells = {tuple(line.split(",")[:2]) for line in lines[1:]}
        assert cells == {("none", "input"), ("none", "feature"),
                         ("sensd", "input"), ("sensd", "feature"),
                         ("com", "input"), ("com", "feature")}


class TestErrors:
    def test_unknown_key_is_config_error(self, tmp_path):
        raw = base_config()
        raw["trian"] = raw.pop("train")
        cfg = write_config(tmp_path, raw)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("path, value", MALFORMED)
    def test_malformed_value_is_config_error(self, tmp_path, capsys, path, value):
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--config", write_config(tmp_path, with_value(path, value)),
                     "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (out / "model.json").exists()

    def test_heads_need_not_divide_the_width_of_average_fusion(self, tmp_path):
        cfg = write_config(tmp_path, with_value("fusion.heads", 3))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_bad_scenario_view_is_config_error(self, tmp_path, capsys):
        raw = base_config()
        raw["eval"]["scenarios"] = [{"kind": "only_missing", "view": "thermal"}]
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["evaluate", "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (out / "model.json").exists()

    def test_boolean_seed_is_config_error(self, tmp_path):
        raw = base_config()
        raw["seed"] = True
        cfg = write_config(tmp_path, raw)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_manifest_without_targets_is_runtime_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "data")]) == 0
        manifest = tmp_path / "data" / "manifest.json"
        entries = json.loads(manifest.read_text())
        del entries["targets"]
        manifest.write_text(json.dumps(entries))
        raw = base_config()
        raw["data"] = {"source": "manifest", "manifest": str(manifest), "val_fraction": 0.25}
        cfg = write_config(tmp_path, raw, name="from_manifest.yaml")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 3

    def test_negative_seed_flag_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--seed", "-1"]) == 2

    @pytest.mark.parametrize("command", ["evaluate", "sweep", "ablate"])
    def test_undeclared_eval_view_is_config_error(self, tmp_path, command):
        raw = base_config()
        raw["eval"]["view"] = "thermal"
        out = tmp_path / "run"
        assert main([command, "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 2
        assert not (out / "model.json").exists()  # rejected before training

    @pytest.mark.parametrize("command, eval_node", [
        ("evaluate", {"scenarios": [{"kind": "only_missing", "view": "radar"}]}),
        ("evaluate", {"scenarios": [{"kind": "fraction", "view": "radar", "p": 0.5}]}),
        ("evaluate", {}),  # the default scenarios drop the focus view
        ("sweep", {"grid": [0.0, 0.5]}),
        ("ablate", {})])
    def test_scenario_leaving_no_view_is_config_error(self, tmp_path, command, eval_node):
        raw = one_view_config()
        raw["eval"] = eval_node
        out = tmp_path / "run"
        assert main([command, "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 2
        assert not (out / "model.json").exists()  # rejected before training

    def test_one_view_scenarios_that_keep_the_view_run(self, tmp_path):
        raw = one_view_config()
        raw["eval"] = {"scenarios": [{"kind": "none"},
                                     {"kind": "only_available", "view": "radar"},
                                     {"kind": "fraction", "view": "radar", "p": 0.0}]}
        assert main(["evaluate", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "run")]) == 0

    def test_snapshot_without_task_is_runtime_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        trained = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out", str(trained)]) == 0
        arch = json.loads((trained / "model.json").read_text())
        del arch["task"]
        (trained / "model.json").write_text(json.dumps(arch))
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--model", str(trained)]) == 3
        assert "missing required key 'task'" in capsys.readouterr().err

    def test_invalid_fusion_kind(self, tmp_path):
        raw = base_config()
        raw["fusion"]["kind"] = "median"
        cfg = write_config(tmp_path, raw)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def drop_line(path, line):
    """Delete the 1-based ``line`` of a text file."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:line - 1] + lines[line:]) + "\n")


def edit_manifest(d, change):
    """Apply ``change`` to the parsed manifest of the dataset in ``d``."""
    path = d / "manifest.json"
    manifest = json.loads(path.read_text())
    change(manifest)
    path.write_text(json.dumps(manifest))


def add_categorical(d, cardinality):
    """Add a categorical view with codes 0..2 and the given manifest cardinality."""
    (d / "view_cover.csv").write_text("code\n0\n1\n2\n0\n")
    edit_manifest(d, lambda m: m["views"].append(
        {"id": "cover", "kind": "categorical", "path": "view_cover.csv",
         "cardinality": cardinality}))


def npy_bytes(array):
    """``array`` in the .npy format."""
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def append_line(path, line):
    """Add ``line`` at the end of a text file."""
    path.write_text(path.read_text() + line + "\n")


def set_key(*path_and_value):
    """An edit that sets the manifest node at the key path to the value."""
    *parents, key, value = path_and_value

    def change(manifest):
        node = manifest
        for name in parents:
            node = node[name]
        node[key] = value

    return lambda d: edit_manifest(d, change)


# (edit of a copy of the toy dataset, typed error, words of its message)
BROKEN_DATA = [
    pytest.param(lambda d: (d / "manifest.json").unlink(), "FileNotFoundError",
                 "manifest not found", id="missing-manifest"),
    pytest.param(lambda d: (d / "targets.csv").unlink(), "FileNotFoundError",
                 "targets file not found", id="missing-targets"),
    pytest.param(lambda d: (d / "view_soil.csv").unlink(), "FileNotFoundError",
                 "view file not found", id="missing-view"),
    pytest.param(lambda d: replace_field(d / "view_optical.csv", 2, 0, "9"), "RowCountError",
                 "references sample 9, targets have 4 rows", id="sample-out-of-range"),
    pytest.param(lambda d: replace_field(d / "view_optical.csv", 2, 1, "3"), "RowCountError",
                 "has step 3 outside 0..2", id="step-out-of-range"),
    pytest.param(lambda d: drop_line(d / "view_optical.csv", 5), "RowCountError",
                 "is missing (sample, step) rows", id="missing-rows"),
    pytest.param(lambda d: replace_field(d / "view_soil.csv", 3, 1, "nan"),
                 "MalformedFieldError", "view_soil.csv:3: 'nan' is not a finite number",
                 id="non-finite-value"),
    pytest.param(set_key("targets", "classes", "3"), "DataError",
                 "targets key 'classes' must be an integer >= 2, got '3'", id="classes-string"),
    pytest.param(set_key("views", 0, "dims", 3), "DataError",
                 "views[0] key 'dims' must be a list of 2 integers >= 1, got 3", id="dims-int"),
    pytest.param(set_key("views", 0, "dims", ["4", 2]), "DataError",
                 "views[0] key 'dims' must be a list of 2 integers >= 1, got ['4', 2]",
                 id="dims-string-entry"),
    pytest.param(set_key("views", 0, "dims", [4]), "DataError",
                 "views[0] key 'dims' must be a list of 2 integers >= 1, got [4]",
                 id="temporal-dims-too-short"),
    pytest.param(lambda d: add_categorical(d, "3"), "DataError",
                 "views[2] key 'cardinality' must be an integer >= 2, got '3'",
                 id="cardinality-string"),
    pytest.param(set_key("views", 5), "DataError", "key 'views' must be a list, got 5",
                 id="views-int"),
    pytest.param(set_key("views", 0, "id", 7), "DataError",
                 "views[0] key 'id' must be a string, got 7", id="id-int"),
    pytest.param(lambda d: replace_field(d / "targets.csv", 3, 0, "2"), "DataError",
                 "targets have labels outside [0, 2) for classes 2", id="label-beyond-classes"),
    pytest.param(lambda d: append_line(d / "view_optical.csv", "0,0,0.1,1.0"), "RowCountError",
                 "view_optical.csv:14: view 'optical' repeats sample 0, step 0",
                 id="repeated-row"),
    pytest.param(lambda d: append_line(d / "view_optical.csv", "2,1,7.0,7.0"), "RowCountError",
                 "view_optical.csv:14: view 'optical' repeats sample 2, step 1",
                 id="conflicting-repeated-row"),
    pytest.param(set_key("norm_stats", 5), "DataError",
                 "key 'norm_stats' must be a mapping from view ids, got 5", id="norm-stats-int"),
    pytest.param(set_key("norm_stats", {"soil": {"mean": [0.0], "std": [1.0, 1.0]}}),
                 "DataError",
                 "norm_stats['soil'] key 'mean' must be a list of 2 finite numbers, got [0.0]",
                 id="norm-stats-short-mean"),
    pytest.param(set_key("norm_stats", {"soil": {"mean": [0.0, 0.0], "std": [1.0, 0.0]}}),
                 "DataError",
                 "norm_stats['soil'] key 'std' must be a list of 2 finite numbers > 0",
                 id="norm-stats-zero-std"),
    pytest.param(set_key("norm_stats", {"radar": {"mean": [0.0], "std": [1.0]}}), "DataError",
                 "norm_stats names 'radar', not a non-categorical view",
                 id="norm-stats-undeclared-view"),
    pytest.param(lambda d: edit_manifest(d, lambda m: m["views"].append(dict(m["views"][1]))),
                 "DataError", "view id 'soil' is declared more than once", id="repeated-view-id"),
]


class TestBoundaries:
    """Each input boundary fails with its typed error, exit code and JSON record."""

    def run(self, capsys, argv):
        capsys.readouterr()
        code = main(argv)
        return code, json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize("edit, error, words", BROKEN_DATA)
    def test_broken_dataset_is_runtime_error(self, tmp_path, capsys, edit, error, words):
        manifest = toy_copy(tmp_path)
        edit(tmp_path)
        raw = base_config()
        raw["data"] = {"source": "manifest", "manifest": str(manifest), "val_fraction": 0.25}
        out = tmp_path / "run"
        code, record = self.run(capsys, ["train", "--config", write_config(tmp_path, raw),
                                         "--out", str(out)])
        assert code == 3
        assert record["error"] == error
        assert words in record["message"]
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("text, words", [
        ("seed: [1, 2\n", "cannot parse"),
        (yaml.safe_dump({**base_config(), "train": 5}), "train must be a mapping")],
        ids=["yaml-parse-error", "non-mapping-section"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, text, words):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        code, record = self.run(capsys, ["train", "--config", str(path),
                                         "--out", str(tmp_path / "run")])
        assert code == 2
        assert record["error"] == "config"
        assert words in record["message"]

    def test_synth_without_synthetic_section_is_config_error(self, tmp_path, capsys):
        raw = base_config()
        raw["data"] = {"source": "manifest", "manifest": str(toy_copy(tmp_path)),
                       "val_fraction": 0.25}
        out = tmp_path / "data"
        code, record = self.run(capsys, ["synth", "--config", write_config(tmp_path, raw),
                                         "--out", str(out)])
        assert code == 2
        assert record == {"error": "config",
                          "message": "synth needs a data.synthetic section"}
        assert not out.exists()


    def test_repeated_synthetic_view_id_is_config_error(self, tmp_path, capsys):
        raw = base_config()
        raw["data"]["synthetic"]["views"][1]["id"] = "optical"
        out = tmp_path / "data"
        code, record = self.run(capsys, ["synth", "--config", write_config(tmp_path, raw),
                                         "--out", str(out)])
        assert code == 2
        assert record["error"] == "config"
        assert "view id 'optical' is declared more than once" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("corrupt", [
        lambda raw: raw[:100], lambda raw: b"", lambda raw: b"not a zip archive\n",
        lambda raw: npy_bytes(np.zeros(3))],
        ids=["truncated", "empty", "not-a-zip", "one-npy-array"])
    def test_unreadable_snapshot_is_runtime_error(self, tmp_path, capsys, corrupt):
        cfg = write_config(tmp_path, base_config())
        trained = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out", str(trained)]) == 0
        npz = trained / "model.npz"
        npz.write_bytes(corrupt(npz.read_bytes()))
        code, record = self.run(capsys, ["evaluate", "--config", cfg, "--out", str(trained)])
        assert code == 3
        assert record["error"] == "ValueError"
        assert record["message"].startswith(f"{npz} is not a readable snapshot")
        assert not (trained / "report.csv").exists()

    @pytest.mark.parametrize("convert", [
        lambda b: b.astype(str), lambda b: b.astype(np.int64), lambda b: b > 0,
        lambda b: b + 1j], ids=["string", "int", "bool", "complex"])
    def test_non_float_snapshot_parameter_is_runtime_error(self, tmp_path, capsys, convert):
        raw = base_config()
        raw["fusion"]["kind"] = "gated"
        cfg = write_config(tmp_path, raw)
        trained = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out", str(trained)]) == 0
        npz = trained / "model.npz"
        with np.load(npz) as archive:
            arrays = dict(archive)
        arrays["head.b"] = convert(arrays["head.b"])
        np.savez(npz, **arrays)
        code, record = self.run(capsys, ["evaluate", "--config", cfg, "--out", str(trained)])
        assert code == 3
        assert record == {"error": "ValueError", "message":
                          f"snapshot parameter head.b has dtype {arrays['head.b'].dtype}, "
                          f"not a real floating type"}
        assert not (trained / "report.csv").exists()

    @pytest.mark.parametrize("key, value, words", [
        ("heads", True, "fusion.heads must be int, got True"),
        ("permute", 1, "fusion.permute must be bool, got 1")],
        ids=["bool-heads", "int-permute"])
    def test_ill_typed_snapshot_field_is_runtime_error(self, tmp_path, capsys, key, value,
                                                       words):
        # a bool is no int: "heads": true used to load and then fail with a
        # raw TypeError inside the attention
        cfg = write_config(tmp_path, base_config(fusion="cross"))
        trained = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out", str(trained)]) == 0
        arch_path = trained / "model.json"
        arch = json.loads(arch_path.read_text())
        arch["fusion"][key] = value
        arch_path.write_text(json.dumps(arch))
        out = tmp_path / "run"
        code, record = self.run(capsys, ["evaluate", "--config", cfg, "--out", str(out),
                                         "--model", str(trained)])
        assert code == 3
        assert record == {"error": "ValueError", "message": f"{arch_path}: {words}"}
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("command, path, value, words", [
        ("evaluate", "data.synthetic.views.1.id", "sonar", "its view 1 is ViewSpec(id='radar'"),
        ("sweep", "data.synthetic.views.1.channels", 4,
         "its view 1 is ViewSpec(id='radar', kind='static', time_steps=None, channels=3, "),
        ("evaluate", "data.synthetic.classes", 4, "its head width is 3, the data's is 4")],
        ids=["other-view-id", "other-channels", "other-class-count"])
    def test_snapshot_that_does_not_fit_the_data_is_runtime_error(
            self, tmp_path, capsys, command, path, value, words):
        trained = tmp_path / "trained"
        assert main(["train", "--config", write_config(tmp_path, base_config()),
                     "--out", str(trained)]) == 0
        other = write_config(tmp_path, with_value(path, value), "other.yaml")
        out = tmp_path / "run"
        code, record = self.run(capsys, [command, "--config", other, "--out", str(out),
                                         "--model", str(trained)])
        assert code == 3
        assert record["error"] == "ValueError"
        assert record["message"].startswith(f"snapshot {trained} does not fit the data: {words}")
        assert not (out / "report.csv").exists()

    def test_more_folds_than_samples_fails_before_training(self, tmp_path, capsys):
        raw = with_value(("eval.folds", "data.synthetic.n_samples"), (20, 12))
        out = tmp_path / "run"
        code, record = self.run(capsys, ["evaluate", "--config", write_config(tmp_path, raw),
                                         "--out", str(out)])
        assert code == 3
        assert record == {"error": "ValueError",
                          "message": "20 folds need at least 20 samples, got 12"}
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("command, out, model, manifest_is_dir, error", [
        ("train", "file", None, False, "FileExistsError"),
        ("train", "file/sub", None, False, "NotADirectoryError"),
        ("train", "run", None, True, "IsADirectoryError"),
        ("evaluate", "run", "snapshot", False, "IsADirectoryError")],
        ids=["out-is-a-file", "out-under-a-file", "manifest-is-a-directory",
             "model-json-is-a-directory"])
    def test_os_error_is_runtime_error(self, tmp_path, capsys, command, out, model,
                                       manifest_is_dir, error):
        (tmp_path / "file").write_text("not a directory\n")
        (tmp_path / "snapshot" / "model.json").mkdir(parents=True)
        raw = base_config()
        if manifest_is_dir:
            raw["data"] = {"source": "manifest", "manifest": str(tmp_path), "val_fraction": 0.25}
        argv = [command, "--config", write_config(tmp_path, raw), "--out", str(tmp_path / out)]
        if model:
            argv += ["--model", str(tmp_path / model)]
        code, record = self.run(capsys, argv)
        assert code == 3
        assert record["error"] == error
        assert not (tmp_path / "run" / "model.json").exists()

    @pytest.mark.parametrize("command, path, value, words", [
        ("evaluate", "eval.folds", 4, "validation fold 0 has no sample of class 0 or 2"),
        ("evaluate", "eval.folds", 1, "the validation split (data.val_fraction 0.25) has "
                                      "no sample of class 0 or 2"),
        ("sweep", "eval.folds", 1, "the validation split (data.val_fraction 0.25) has "
                                   "no sample of class 0 or 2"),
        ("ablate", "eval.folds", 1, "the validation split (data.val_fraction 0.25) has "
                                    "no sample of class 0 or 2"),
        ("evaluate", ("data.synthetic.task", "eval.folds"), ("regression", 12),
         "validation fold 0 holds fewer than two distinct targets"),
        ("evaluate", ("data.synthetic.task", "data.val_fraction"), ("regression", 0.05),
         "the validation split (data.val_fraction 0.05) holds fewer than two distinct "
         "targets")],
        ids=["classification-folds", "classification-split", "sweep", "ablate",
             "regression-folds", "regression-split"])
    def test_unscorable_validation_split_fails_before_training(
            self, tmp_path, capsys, command, path, value, words):
        # 12 samples: 3 per fold at folds 4, and 3 in a 0.25 split, miss a class
        paths = (path if isinstance(path, tuple) else (path,)) + ("data.synthetic.n_samples",)
        values = (value if isinstance(value, tuple) else (value,)) + (12,)
        out = tmp_path / "run"
        code, record = self.run(capsys, [command, "--config",
                                         write_config(tmp_path, with_value(paths, values)),
                                         "--out", str(out)])
        assert code == 3
        assert record == {"error": "ValueError",
                          "message": f"{words}, so its metrics are undefined"}
        assert not (out / "model.json").exists()
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("folds, words", [
        (1, "the validation split (data.val_fraction 0.25) holds 4 zero target(s)"),
        (4, "validation fold 0 holds 1 zero target(s)")], ids=["split", "folds"])
    def test_zero_regression_target_fails_before_training(self, tmp_path, capsys,
                                                         folds, words):
        # every fifth of 60 targets is 0.0, where MAPE is undefined
        raw = with_value(("data.synthetic.task", "data.synthetic.n_samples"), ("regression", 60))
        data = tmp_path / "data"
        assert main(["synth", "--config", write_config(tmp_path, raw), "--out", str(data)]) == 0
        targets = data / "targets.csv"
        lines = targets.read_text().splitlines()
        lines[1::5] = ["0.0"] * len(lines[1::5])
        targets.write_text("\n".join(lines) + "\n")
        raw["data"] = {"source": "manifest", "manifest": str(data / "manifest.json"),
                       "val_fraction": 0.25}
        raw["eval"]["folds"] = folds
        out = tmp_path / "run"
        code, record = self.run(capsys, ["evaluate", "--config", write_config(tmp_path, raw),
                                         "--out", str(out)])
        assert code == 3
        assert record == {"error": "ValueError",
                          "message": f"{words}, so its MAPE is undefined"}
        assert not (out / "model.json").exists()
        assert not (out / "report.csv").exists()


def test_module_entry_point_exits_with_the_code_of_main(tmp_path):
    raw = base_config()
    raw["fusion"]["kind"] = "median"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "mvfuse.cli", "train", "--config",
                           write_config(tmp_path, raw), "--out", str(tmp_path / "run")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    record = json.loads(proc.stderr)
    assert record["error"] == "config"
    assert "median" in record["message"]
