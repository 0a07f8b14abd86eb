"""Synthetic generation, normalization, CSV round trip, loader errors."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mvfuse.config import _build, resolved_dict
from mvfuse.data import (CSV_BLOCK, DataError, MalformedFieldError, Manifest, MultiViewDataset,
                         NormStats, RowCountError, SyntheticConfig, SyntheticViewConfig, Targets,
                         UnknownViewError, ViewFile, _csv_rows, _float_field, _int_field,
                         generate_synthetic, kfold_indices, load_dataset, save_dataset,
                         train_val_split, validation_size, zscore_apply, zscore_fit)
from mvfuse.encoders import ViewSpec

FIXTURE = Path(__file__).parent / "fixtures" / "toy"


def small_config(task="classification", seed=0):
    return SyntheticConfig(
        n_samples=80, latent_dim=5, task=task, classes=3, seed=seed,
        views=[
            SyntheticViewConfig(id="optical", kind="temporal", time_steps=6,
                                channels=2, noise=0.1, redundancy=0.8, loading_seed=1),
            SyntheticViewConfig(id="radar", kind="static", channels=4, noise=0.3,
                                redundancy=0.8, loading_seed=2),
            SyntheticViewConfig(id="cover", kind="categorical", cardinality=4,
                                noise=0.1, redundancy=0.8, loading_seed=3),
        ])


class TestSyntheticGeneration:
    def test_same_seed_bit_identical(self):
        a = generate_synthetic(small_config(seed=5))
        b = generate_synthetic(small_config(seed=5))
        for vid in a.views:
            np.testing.assert_array_equal(a.views[vid], b.views[vid])
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seed_differs(self):
        a = generate_synthetic(small_config(seed=5))
        b = generate_synthetic(small_config(seed=6))
        assert not np.array_equal(a.views["radar"], b.views["radar"])

    def test_shapes_match_config(self):
        ds = generate_synthetic(small_config())
        assert ds.views["optical"].shape == (80, 6, 2)
        assert ds.views["radar"].shape == (80, 4)
        assert ds.views["cover"].shape == (80,)
        assert ds.views["cover"].dtype == np.int64
        assert ds.y.shape == (80,)
        assert set(np.unique(ds.y)) <= {0, 1, 2}

    def test_regression_targets_are_floats(self):
        ds = generate_synthetic(small_config(task="regression"))
        assert ds.y.dtype == np.float64
        assert ds.n_outputs == 1

    def test_full_redundancy_identical_loadings_are_linearly_predictable(self):
        # rho 1 and zero noise with shared loading seeds: view two is an exact
        # linear function of view one, so a least-squares probe is perfect
        cfg = SyntheticConfig(
            n_samples=200, latent_dim=4, task="regression", seed=9,
            views=[
                SyntheticViewConfig(id="a", kind="static", channels=6, noise=0.0,
                                    redundancy=1.0, loading_seed=11),
                SyntheticViewConfig(id="b", kind="static", channels=6, noise=0.0,
                                    redundancy=1.0, loading_seed=11),
            ])
        ds = generate_synthetic(cfg)
        x, target = ds.views["a"], ds.views["b"]
        coef, *_ = np.linalg.lstsq(x, target, rcond=None)
        pred = x @ coef
        ss_res = np.sum((target - pred) ** 2)
        ss_tot = np.sum((target - target.mean(axis=0)) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.99


class TestSplits:
    def test_train_val_split_partitions(self):
        train, val = train_val_split(100, 0.2, np.random.default_rng(0))
        assert len(train) == 80 and len(val) == 20
        assert set(train) | set(val) == set(range(100))
        assert not set(train) & set(val)

    def test_kfold_covers_everything(self):
        folds = kfold_indices(50, 5, repeats=2, seed=3)
        assert len(folds) == 10
        for train, val in folds:
            assert len(train) + len(val) == 50
            assert not set(train) & set(val)
        union = set()
        for _, val in folds[:5]:
            union |= set(val)
        assert union == set(range(50))

    def test_kfold_needs_two_folds(self):
        with pytest.raises(ValueError, match="k >= 2"):
            kfold_indices(50, folds=1)

    def test_kfold_needs_a_sample_per_fold(self):
        with pytest.raises(ValueError, match="20 folds need at least 20 samples, got 12"):
            kfold_indices(12, folds=20)
        assert [len(val) for _, val in kfold_indices(12, folds=12)] == [1] * 12

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_validation_size_needs_a_fraction_inside_0_1(self, fraction):
        with pytest.raises(ValueError, match=r"val_fraction must be in \(0, 1\)"):
            validation_size(10, fraction)


class TestZScore:
    def test_train_split_maps_to_zero_mean_unit_std(self):
        ds = generate_synthetic(small_config())
        idx = np.arange(60)
        stats = zscore_fit(ds, idx)
        normed = zscore_apply(ds, stats)
        flat = normed.views["radar"][idx]
        np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(flat.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_maps_to_zero(self):
        spec = [ViewSpec(id="s", kind="static", channels=2)]
        views = {"s": np.column_stack([np.full(10, 4.0), np.arange(10.0)])}
        ds = MultiViewDataset(spec, views, np.zeros(10), "regression")
        normed = zscore_apply(ds, zscore_fit(ds))
        np.testing.assert_allclose(normed.views["s"][:, 0], 0.0, atol=1e-12)

    def test_round_trip_recovers_input(self):
        ds = generate_synthetic(small_config())
        stats = zscore_fit(ds)
        normed = zscore_apply(ds, stats)
        for vid in ("optical", "radar"):
            back = normed.views[vid] * np.asarray(stats[vid]["std"]) + stats[vid]["mean"]
            np.testing.assert_allclose(back, ds.views[vid], atol=1e-12)

    def test_stats_ignore_validation_rows(self):
        ds = generate_synthetic(small_config())
        train_idx = np.arange(50)
        stats = zscore_fit(ds, train_idx)
        shuffled = {vid: arr.copy() for vid, arr in ds.views.items()}
        perm = np.concatenate([train_idx, 50 + np.random.default_rng(0).permutation(30)])
        ds2 = MultiViewDataset(ds.view_specs, {v: a[perm] for v, a in shuffled.items()},
                               ds.y[perm], ds.task, ds.n_classes)
        stats2 = zscore_fit(ds2, np.arange(50))
        for vid in stats:
            np.testing.assert_array_equal(stats[vid]["mean"], stats2[vid]["mean"])
            np.testing.assert_array_equal(stats[vid]["std"], stats2[vid]["std"])


class TestRoundTrip:
    def test_save_then_load_preserves_everything(self, tmp_path):
        ds = generate_synthetic(small_config())
        manifest = save_dataset(ds, tmp_path / "data")
        loaded = load_dataset(manifest)
        assert loaded.task == ds.task
        assert loaded.n_classes == ds.n_classes
        for vid in ds.views:
            np.testing.assert_allclose(loaded.views[vid], ds.views[vid], atol=0)
        np.testing.assert_array_equal(loaded.y, ds.y)

    def test_toy_fixture_loads_four_samples(self):
        ds = load_dataset(FIXTURE / "manifest.json")
        assert ds.n_samples == 4
        assert ds.view_ids == ["optical", "soil"]
        assert ds.views["optical"].shape == (4, 3, 2)
        assert ds.views["soil"].shape == (4, 2)
        assert ds.task == "classification"

    def test_integral_float_code_loads_as_integer(self, tmp_path):
        ds = generate_synthetic(small_config())
        manifest = save_dataset(ds, tmp_path / "data")
        replace_field(tmp_path / "data" / "view_cover.csv", 2, 0, "2.0")
        codes = load_dataset(manifest).views["cover"]
        assert codes.dtype == np.int64 and codes[0] == 2
        np.testing.assert_array_equal(codes[1:], ds.views["cover"][1:])

    def test_manifest_norm_stats_applied_on_load(self, tmp_path):
        ds = generate_synthetic(small_config())
        manifest = save_dataset(ds, tmp_path / "data")
        stats = zscore_fit(ds)
        data = json.loads(manifest.read_text())
        data["norm_stats"] = stats
        manifest.write_text(json.dumps(data))
        loaded = load_dataset(manifest)
        expected = zscore_apply(ds, stats)
        for vid in ("optical", "radar"):
            np.testing.assert_allclose(loaded.views[vid], expected.views[vid],
                                       atol=1e-12)

    def test_manifest_round_trips_through_its_schema(self):
        manifest = Manifest(
            Targets("targets.csv", "classification", 3),
            [ViewFile(id="optical", kind="temporal", time_steps=6, channels=2,
                      path="view_optical.csv"),
             ViewFile(id="radar", kind="static", channels=4, path="view_radar.csv"),
             ViewFile(id="cover", kind="categorical", cardinality=4, path="view_cover.csv")],
            {"optical": NormStats([0.5, -1.0], [2.0, 0.25]),
             "radar": NormStats([0.0, 1.0, 2.0, 3.0], [1.0, 1.5, 2.0, 2.5])})
        echoed = json.loads(json.dumps(resolved_dict(manifest)))
        assert _build(Manifest, echoed, "") == manifest

    def test_save_dataset_writes_its_manifest_in_the_schema(self, tmp_path):
        ds = generate_synthetic(small_config())
        written = json.loads(save_dataset(ds, tmp_path).read_text())
        files = [ViewFile(id=s.id, kind=s.kind, time_steps=s.time_steps, channels=s.channels,
                          cardinality=s.cardinality, path=f"view_{s.id}.csv")
                 for s in ds.view_specs]
        assert written == resolved_dict(Manifest(Targets("targets.csv", ds.task, 3), files))


def toy_copy(tmp_path):
    """The toy fixture copied into ``tmp_path``; returns its manifest."""
    for src in FIXTURE.iterdir():
        (tmp_path / src.name).write_text(src.read_text())
    return tmp_path / "manifest.json"


def replace_field(path, line, field, text):
    """Replace one field (1-based ``line``, 0-based ``field``) of a CSV file."""
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[field] = text
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


# (key path to a manifest node, the key deleted from it, the message after the
# manifest's path)
MISSING_KEYS = [
    ((), "targets", "missing required key 'targets'"),
    (("targets",), "task", "targets is missing required key 'task'"),
    (("targets",), "path", "targets is missing required key 'path'"),
    ((), "views", "missing required key 'views'"),
    (("views", 0), "id", "views[0] is missing required key 'id'"),
    (("views", 0), "kind", "views[0] is missing required key 'kind'"),
    (("views", 0), "path", "views[0] is missing required key 'path'"),
    (("views", 0), "time_steps", "invalid views[0]: temporal view needs time_steps >= 1"),
    (("views", 1), "channels", "invalid views[1]: static view needs channels >= 1"),
    (("views", 2), "cardinality", "invalid views[2]: categorical view needs cardinality >= 2"),
]


class TestLoaderErrors:
    def _write_broken(self, tmp_path, mutate):
        ds = generate_synthetic(small_config())
        manifest = save_dataset(ds, tmp_path / "data")
        mutate(tmp_path / "data")
        return manifest

    def test_row_count_mismatch_names_the_view(self, tmp_path):
        def drop_last_line(base):
            path = base / "view_radar.csv"
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:-1]) + "\n")

        manifest = self._write_broken(tmp_path, drop_last_line)
        with pytest.raises(RowCountError, match="radar"):
            load_dataset(manifest)

    def test_missing_file_reports_path(self, tmp_path):
        def remove_view(base):
            (base / "view_optical.csv").unlink()

        manifest = self._write_broken(tmp_path, remove_view)
        with pytest.raises(FileNotFoundError, match="view_optical.csv"):
            load_dataset(manifest)

    def test_malformed_number_raises_distinct_error(self, tmp_path):
        def corrupt(base):
            path = base / "view_radar.csv"
            text = path.read_text().splitlines()
            first_data = text[1].split(",")
            first_data[0] = "not-a-number"
            text[1] = ",".join(first_data)
            path.write_text("\n".join(text) + "\n")

        manifest = self._write_broken(tmp_path, corrupt)
        with pytest.raises(MalformedFieldError):
            load_dataset(manifest)

    @pytest.mark.parametrize("file, line, field, text", [
        ("view_soil.csv", 2, 0, "nan"), ("view_optical.csv", 3, 3, "inf"),
        ("view_optical.csv", 2, 2, "-Infinity"), ("targets.csv", 4, 0, "NaN")],
        ids=["static-nan", "temporal-inf", "temporal-neg-inf", "targets-nan"])
    def test_non_finite_field_names_file_and_line(self, tmp_path, file, line, field, text):
        manifest = toy_copy(tmp_path)
        replace_field(tmp_path / file, line, field, text)
        with pytest.raises(MalformedFieldError,
                           match=rf"{file}:{line}: '{text}' is not a finite number"):
            load_dataset(manifest)

    @pytest.mark.parametrize("file, line, field, text", [
        ("view_optical.csv", 2, 0, "1.5"), ("view_optical.csv", 3, 1, "0.5"),
        ("view_cover.csv", 3, 0, "1.5"), ("targets.csv", 2, 0, "0.7")],
        ids=["sample_id", "t", "code", "label"])
    def test_integer_field_must_be_integral(self, tmp_path, file, line, field, text):
        manifest = self._write_broken(
            tmp_path, lambda base: replace_field(base / file, line, field, text))
        with pytest.raises(MalformedFieldError,
                           match=rf"{file}:{line}: '{text}' is not an integer"):
            load_dataset(manifest)

    @pytest.mark.parametrize("label", ["2", "-1"])
    def test_label_outside_classes_rejected_at_load(self, tmp_path, label):
        manifest = toy_copy(tmp_path)
        replace_field(tmp_path / "targets.csv", 4, 0, label)
        with pytest.raises(DataError, match=r"labels outside \[0, 2\) for classes 2"):
            load_dataset(manifest)

    def test_classes_inferred_from_the_largest_label(self, tmp_path):
        manifest = toy_copy(tmp_path)
        data = json.loads(manifest.read_text())
        del data["targets"]["classes"]
        manifest.write_text(json.dumps(data))
        replace_field(tmp_path / "targets.csv", 3, 0, "2")
        assert load_dataset(manifest).n_classes == 3
        (tmp_path / "targets.csv").write_text("y\n0\n0\n0\n0\n")
        with pytest.raises(DataError, match="classification needs classes >= 2, got 1"):
            load_dataset(manifest)

    def test_unknown_view_kind(self, tmp_path):
        manifest = self._write_broken(tmp_path, lambda base: None)
        data = json.loads(manifest.read_text())
        data["views"][0]["kind"] = "volumetric"
        manifest.write_text(json.dumps(data))
        with pytest.raises(DataError) as info:
            load_dataset(manifest)
        assert type(info.value) is DataError
        assert str(info.value) == f"{manifest}: invalid views[0]: unknown view kind 'volumetric'"

    @pytest.mark.parametrize("path, key, message", [
        pytest.param(*case, id=f"path{i}-{case[1]}") for i, case in enumerate(MISSING_KEYS)])
    def test_missing_manifest_key_names_the_key(self, tmp_path, path, key, message):
        manifest = self._write_broken(tmp_path, lambda base: None)
        data = json.loads(manifest.read_text())
        node = data
        for step in path:
            node = node[step]
        del node[key]
        manifest.write_text(json.dumps(data))
        with pytest.raises(DataError) as info:
            load_dataset(manifest)
        assert str(info.value) == f"{manifest}: {message}"

    def test_targets_without_y_column(self, tmp_path):
        def rename_y(base):
            path = base / "targets.csv"
            lines = path.read_text().splitlines()
            path.write_text("\n".join(["label"] + lines[1:]) + "\n")

        manifest = self._write_broken(tmp_path, rename_y)
        with pytest.raises(DataError, match="'y' column"):
            load_dataset(manifest)

    def test_dataset_view_lookup_errors(self):
        ds = generate_synthetic(small_config())
        specs = ds.view_specs + [ViewSpec(id="thermal", kind="static", channels=2)]
        with pytest.raises(UnknownViewError, match="thermal"):
            MultiViewDataset(specs, ds.views, ds.y, ds.task, ds.n_classes)

    def test_dataset_keeps_each_view_record_as_its_plain_spec(self):
        ds = generate_synthetic(small_config())
        assert [type(s) for s in ds.view_specs] == [ViewSpec] * 3
        assert ds.view_specs[1] == ViewSpec(id="radar", kind="static", channels=4)
        assert ds.subset(np.arange(5)).view_specs == ds.view_specs

    def test_dataset_view_list_is_checked(self):
        ds = generate_synthetic(small_config())
        with pytest.raises(ValueError, match="^need at least one view$"):
            MultiViewDataset([], {}, ds.y, ds.task, ds.n_classes)
        with pytest.raises(ValueError, match="^view id 'radar' is declared more than once$"):
            MultiViewDataset(ds.view_specs + ds.view_specs[1:2], ds.views, ds.y, ds.task,
                             ds.n_classes)

    def test_static_row_width_names_file_and_line(self, tmp_path):
        # 2 rows of 4 values under 2 channels used to load as 4 scrambled samples
        (tmp_path / "targets.csv").write_text("y\n0\n1\n0\n1\n")
        (tmp_path / "view_s.csv").write_text("c0,c1\n1,2,3,4\n5,6,7,8\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "targets": {"path": "targets.csv", "task": "classification"},
            "views": [{"id": "s", "kind": "static", "path": "view_s.csv", "channels": 2}]}))
        with pytest.raises(DataError, match=r"view_s\.csv:2: expected 2 values, got 4"):
            load_dataset(manifest)

    def test_temporal_row_width_names_file_and_line(self, tmp_path):
        def widen(base):
            path = base / "view_optical.csv"
            lines = path.read_text().splitlines()
            lines[3] += ",0.5"
            path.write_text("\n".join(lines) + "\n")

        manifest = self._write_broken(tmp_path, widen)
        with pytest.raises(DataError, match=r"view_optical\.csv:4: .* got 5 fields"):
            load_dataset(manifest)

    def test_out_of_range_code_rejected_at_load(self, tmp_path):
        def corrupt(base):
            path = base / "view_cover.csv"
            lines = path.read_text().splitlines()
            lines[5] = "9"
            path.write_text("\n".join(lines) + "\n")

        manifest = self._write_broken(tmp_path, corrupt)
        with pytest.raises(DataError, match="'cover' has codes outside"):
            load_dataset(manifest)

    @pytest.mark.parametrize("view", ["optical", "radar", "cover"])
    def test_empty_view_file_names_the_file(self, tmp_path, view):
        manifest = self._write_broken(
            tmp_path, lambda base: (base / f"view_{view}.csv").write_text(""))
        with pytest.raises(DataError, match=rf"view_{view}\.csv is empty"):
            load_dataset(manifest)

    @pytest.mark.parametrize("row, fields", [("", 0), ("1,2", 2)])
    def test_categorical_row_width_names_file_and_line(self, tmp_path, row, fields):
        def corrupt(base):
            path = base / "view_cover.csv"
            lines = path.read_text().splitlines()
            lines[5] = row
            path.write_text("\n".join(lines) + "\n")

        manifest = self._write_broken(tmp_path, corrupt)
        with pytest.raises(DataError, match=rf"view_cover\.csv:6: expected 1 code, "
                                            rf"got {fields} fields"):
            load_dataset(manifest)

    @pytest.mark.parametrize("values", ["exact", "9.0,-9.0"], ids=["exact", "conflicting"])
    def test_repeated_temporal_row_names_file_line_and_pair(self, tmp_path, values):
        # a repeat must not load silently, its values replacing the first row's
        def repeat(base):
            path = base / "view_optical.csv"
            lines = path.read_text().splitlines()
            first = lines[7] if values == "exact" else ",".join(lines[7].split(",")[:2] + [values])
            path.write_text("\n".join(lines + [first]) + "\n")

        manifest = self._write_broken(tmp_path, repeat)
        lines = (tmp_path / "data" / "view_optical.csv").read_text().splitlines()
        sample, step = lines[7].split(",")[:2]
        with pytest.raises(RowCountError, match=rf"view_optical\.csv:{len(lines)}: view 'optical' "
                                                rf"repeats sample {sample}, step {step}"):
            load_dataset(manifest)

    @pytest.mark.parametrize("stats, message", [
        (5, "norm_stats must be a mapping, got 5"),
        ({"cover": {"mean": [0.0], "std": [1.0]}},
         "invalid document: norm_stats names 'cover', not a non-categorical view"),
        ({"sonar": {"mean": [0.0], "std": [1.0]}},
         "invalid document: norm_stats names 'sonar', not a non-categorical view"),
        ({"radar": [0.0] * 4}, "norm_stats['radar'] must be a mapping"),
        ({"radar": {"mean": [0.0] * 4}}, "norm_stats['radar'] is missing required key 'std'"),
        ({"radar": {"mean": [0.0], "std": [1.0] * 4}},
         "invalid document: norm_stats['radar'].mean must be 4 finite numbers, got [0.0]"),
        ({"radar": {"mean": [0.0] * 4, "std": [1.0, 1.0, 0.0, 1.0]}},
         "invalid document: norm_stats['radar'].std must be 4 finite numbers > 0, "
         "got [1.0, 1.0, 0.0, 1.0]"),
        ({"optical": {"mean": [0.0, float("nan")], "std": [1.0, 1.0]}},
         "invalid document: norm_stats['optical'].mean must be 2 finite numbers, got [0.0, nan]"),
        ({"optical": {"mean": [0.0, "1"], "std": [1.0, 1.0]}},
         "norm_stats['optical'].mean[1] must be float, got '1'"),
        ({"optical": {"mean": [0.0, 0.0], "std": [1.0, float("inf")]}},
         "invalid document: norm_stats['optical'].std must be 2 finite numbers > 0, "
         "got [1.0, inf]"),
    ], ids=["int", "categorical-view", "undeclared-view", "entry-not-a-mapping", "no-std",
            "short-mean", "zero-std", "nan-mean", "string-mean", "infinite-std"])
    def test_norm_stats_checked_against_the_views(self, tmp_path, stats, message):
        def add_stats(base):
            path = base / "manifest.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), "norm_stats": stats}))

        manifest = self._write_broken(tmp_path, add_stats)
        with pytest.raises(DataError) as info:
            load_dataset(manifest)
        assert str(info.value) == f"{manifest}: {message}"

    def test_repeated_view_id_is_named(self, tmp_path):
        def repeat_view(base):
            path = base / "manifest.json"
            data = json.loads(path.read_text())
            data["views"].append(dict(data["views"][1]))
            path.write_text(json.dumps(data))

        with pytest.raises(DataError, match="view id 'radar' is declared more than once"):
            load_dataset(self._write_broken(tmp_path, repeat_view))

    def test_synthetic_config_rejects_a_repeated_view_id(self):
        views = small_config().views
        with pytest.raises(ValueError, match="view id 'optical' is declared more than once"):
            SyntheticConfig(views=views + [views[0]])

    @pytest.mark.parametrize("file, line, text", [
        ("view_cover.csv", 3, "9223372036854775808"),
        ("view_cover.csv", 4, "-9223372036854775809"),
        ("targets.csv", 2, "9223372036854775808"), ("targets.csv", 5, "1e19")],
        ids=["code-above", "code-below", "label-above", "label-float-above"])
    def test_integer_beyond_int64_names_file_and_line(self, tmp_path, file, line, text):
        manifest = self._write_broken(
            tmp_path, lambda base: replace_field(base / file, line, 0, text))
        with pytest.raises(MalformedFieldError,
                           match=rf"{file}:{line}: '{text}' is outside the int64 range"):
            load_dataset(manifest)

    @pytest.mark.parametrize("file, message", [
        ("view_cover.csv", r"'cover' has codes outside \[0, 4\)"),
        ("targets.csv", r"labels outside \[0, 3\)")], ids=["code", "label"])
    def test_int64_maximum_reaches_the_range_check(self, tmp_path, file, message):
        manifest = self._write_broken(
            tmp_path, lambda base: replace_field(base / file, 2, 0, str(2**63 - 1)))
        with pytest.raises(DataError, match=message) as info:
            load_dataset(manifest)
        assert type(info.value) is DataError

    def test_oversized_time_steps_fail_without_allocating_the_view(self, tmp_path):
        # 10**6 steps of 2 channels for 4 samples would take 64 MB; the file holds 12 rows
        manifest = toy_copy(tmp_path)
        data = json.loads(manifest.read_text())
        data["views"][0]["time_steps"] = 10**6
        manifest.write_text(json.dumps(data))
        tracemalloc.start()
        try:
            with pytest.raises(RowCountError,
                               match=r"^view 'optical' is missing \(sample, step\) rows$"):
                load_dataset(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestViewLayout:
    """Each view array must match its ViewSpec: (N, T, c), (N, c) or (N,) codes."""

    @pytest.mark.parametrize("vid, shape", [
        ("optical", (80, 6, 3)), ("optical", (80, 12)), ("radar", (80, 4, 1)),
        ("radar", (80,)), ("cover", (80, 1))])
    def test_wrong_shape_names_the_view(self, vid, shape):
        ds = generate_synthetic(small_config())
        views = dict(ds.views)
        views[vid] = np.zeros(shape, dtype=ds.views[vid].dtype)
        with pytest.raises(DataError, match=repr(vid)):
            MultiViewDataset(ds.view_specs, views, ds.y, ds.task, ds.n_classes)

    @pytest.mark.parametrize("code", [-1, 4])
    def test_out_of_range_code_names_the_view(self, code):
        ds = generate_synthetic(small_config())
        views = dict(ds.views)
        views["cover"] = ds.views["cover"].copy()
        views["cover"][7] = code
        with pytest.raises(DataError, match=r"'cover' has codes outside \[0, 4\)"):
            MultiViewDataset(ds.view_specs, views, ds.y, ds.task, ds.n_classes)

    def test_unknown_task_rejected(self):
        ds = generate_synthetic(small_config())
        with pytest.raises(ValueError, match="unknown task 'ranking'"):
            MultiViewDataset(ds.view_specs, ds.views, ds.y, "ranking", ds.n_classes)

    def test_float_codes_rejected(self):
        ds = generate_synthetic(small_config())
        views = dict(ds.views)
        views["cover"] = ds.views["cover"].astype(float)
        with pytest.raises(DataError, match="'cover' needs integer codes"):
            MultiViewDataset(ds.view_specs, views, ds.y, ds.task, ds.n_classes)


# -- bulk parse against the row loop ---------------------------------------------

LARGE_SAMPLES = CSV_BLOCK + 100  # the static file spans two blocks, the temporal one three
FIRST, LATER = 7, CSV_BLOCK + 60  # a line in the first block and one in the second


def row_loop_load(base, ds):
    """The views of the dataset saved from ``ds`` in ``base``, read as the
    loader read them before the bulk parse: one field at a time, its row loop
    kept as it was. The oracle for the bulk parse's arrays and errors."""
    n = ds.n_samples
    views = {}
    for spec in ds.view_specs:
        vid, T, c = spec.id, spec.time_steps, spec.channels
        path = base / f"view_{vid}.csv"
        if spec.kind == "temporal":
            arr = np.full((n, T, c), np.nan)
            for where, row in _csv_rows(path, c + 2, f"sample_id, t and {c} values"):
                i, t = _int_field(row[0], where), _int_field(row[1], where)
                if not 0 <= i < n:
                    raise RowCountError(
                        f"view {vid!r} references sample {i}, targets have {n} rows")
                if not 0 <= t < T:
                    raise RowCountError(f"view {vid!r} has step {t} outside 0..{T - 1}")
                if not math.isnan(arr[i, t, 0]):
                    raise RowCountError(f"{where}: view {vid!r} repeats sample {i}, step {t}")
                arr[i, t] = [_float_field(v, where) for v in row[2:]]
            if np.isnan(arr).any():
                raise RowCountError(f"view {vid!r} is missing (sample, step) rows")
        else:
            rows = [[_float_field(v, where) for v in row]
                    for where, row in _csv_rows(path, c, f"{c} values")]
            arr = np.asarray(rows).reshape(len(rows), c)
        views[vid] = arr
    return MultiViewDataset(ds.view_specs, views, ds.y, ds.task, ds.n_classes)


def outcome(load):
    """The views ``load()`` gives, as (dtype, shape, bytes), or its DataError's type and text."""
    try:
        ds = load()
    except DataError as exc:
        return type(exc), str(exc)
    return {vid: (arr.dtype, arr.shape, arr.tobytes()) for vid, arr in ds.views.items()}


@pytest.fixture(scope="module")
def large_dataset(tmp_path_factory):
    """A temporal and a static view of ``LARGE_SAMPLES`` samples, and their saved files."""
    ds = generate_synthetic(SyntheticConfig(
        n_samples=LARGE_SAMPLES, latent_dim=3, seed=4, views=[
            SyntheticViewConfig(id="optical", kind="temporal", time_steps=2, channels=2,
                                loading_seed=1),
            SyntheticViewConfig(id="radar", kind="static", channels=3, loading_seed=2)]))
    base = tmp_path_factory.mktemp("large")
    save_dataset(ds, base)
    return ds, {path.name: path.read_text() for path in base.iterdir()}


def write_large(tmp_path, large_dataset, edits):
    """The large dataset written to ``tmp_path`` after ``edits``, a list of
    (file, 1-based line, edit of that line's fields or None to drop it)."""
    files = {name: text.splitlines() for name, text in large_dataset[1].items()}
    for name, line, edit in edits:
        lines = files[name]
        if edit is None:
            del lines[line - 1]
        else:
            lines[line - 1] = ",".join(edit(lines[line - 1].split(","), lines))
    for name, lines in files.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    return tmp_path / "manifest.json"


def set_field(index, text):
    """An edit that sets field ``index`` of its line to ``text``."""
    def edit(fields, lines):
        fields[index] = text
        return fields
    return edit


def previous_pair(line):
    """An edit giving ``line`` the (sample, step) pair of the line above it."""
    def edit(fields, lines):
        return lines[line - 2].split(",")[:2] + fields[2:]
    return edit


# each fault kind of a view file: its name and, given a 1-based line, the edit
# of that line for write_large (None drops the line)
SHARED_FAULTS = {
    "extra-field": lambda line: lambda fields, lines: fields + ["0.5"],
    "missing-field": lambda line: lambda fields, lines: fields[:-1],
    "blank-line": lambda line: lambda fields, lines: [""],
    "missing-row": lambda line: None,
}
TEMPORAL_FAULTS = {
    **SHARED_FAULTS,
    "unparsable-value": lambda line: set_field(2, "0.5x"),
    "unparsable-sample": lambda line: set_field(0, "one"),
    "non-finite-value": lambda line: set_field(3, "inf"),
    "non-finite-step": lambda line: set_field(1, "nan"),
    "non-integral-sample": lambda line: set_field(0, "2.5"),
    "non-integral-step": lambda line: set_field(1, "0.5"),
    "sample-out-of-range": lambda line: set_field(0, str(LARGE_SAMPLES)),
    "negative-sample": lambda line: set_field(0, "-1"),
    "step-out-of-range": lambda line: set_field(1, "2"),
    "huge-sample": lambda line: set_field(0, "1e300"),
    "repeated-pair": previous_pair,
}
STATIC_FAULTS = {
    **SHARED_FAULTS,
    "unparsable-value": lambda line: set_field(1, "1.2.3"),
    "non-finite-value": lambda line: set_field(2, "-inf"),
}
FAULTS = ([("view_optical.csv", kind, make) for kind, make in TEMPORAL_FAULTS.items()]
          + [("view_radar.csv", kind, make) for kind, make in STATIC_FAULTS.items()])


class TestBulkParse:
    """The bulk parse loads what the row loop loaded and raises what it raised."""

    @pytest.mark.parametrize("line", [FIRST, LATER], ids=["first-block", "later-block"])
    @pytest.mark.parametrize("file, kind, make", [
        pytest.param(*fault, id=f"{fault[0][5:-4]}-{fault[1]}") for fault in FAULTS])
    def test_fault_raises_the_row_loops_error(self, tmp_path, large_dataset, file, kind, make,
                                              line):
        manifest = write_large(tmp_path, large_dataset, [(file, line, make(line))])
        expected = outcome(lambda: row_loop_load(tmp_path, large_dataset[0]))
        assert isinstance(expected, tuple)
        assert outcome(lambda: load_dataset(manifest)) == expected

    @pytest.mark.parametrize("file, earlier, later", [
        ("view_optical.csv", ("repeated-pair", FIRST), ("unparsable-value", LATER)),
        ("view_optical.csv", ("non-finite-value", LATER), ("extra-field", LATER + 1)),
        ("view_optical.csv", ("non-integral-step", FIRST), ("sample-out-of-range", FIRST + 1)),
        ("view_optical.csv", ("sample-out-of-range", FIRST), ("non-finite-value", FIRST + 1)),
        ("view_radar.csv", ("unparsable-value", FIRST), ("missing-field", LATER)),
        ("view_radar.csv", ("extra-field", LATER), ("non-finite-value", LATER + 7))],
        ids=["repeat-then-unparsable", "non-finite-then-width", "step-then-sample",
             "sample-then-value", "static-unparsable-then-width",
             "static-width-then-non-finite"])
    def test_two_faults_raise_the_earlier_lines_error(self, tmp_path, large_dataset, file,
                                                      earlier, later):
        faults = TEMPORAL_FAULTS if file == "view_optical.csv" else STATIC_FAULTS
        (kind, line), (other, other_line) = earlier, later
        alone = outcome(lambda: load_dataset(write_large(
            tmp_path, large_dataset, [(file, line, faults[kind](line))])))
        both = outcome(lambda: load_dataset(write_large(
            tmp_path, large_dataset, [(file, line, faults[kind](line)),
                                      (file, other_line, faults[other](other_line))])))
        assert both == alone == outcome(lambda: row_loop_load(tmp_path, large_dataset[0]))

    @pytest.mark.parametrize("rewrite", [
        lambda text: re.sub(r"[^,\n]+", r'"\g<0>"', text),
        lambda text: text.replace("\n", "\r\n"),
        lambda text: re.sub(r"[^,\n]+", r" \g<0> ", text),
        lambda text: re.sub(r"(?<=\d)(?=\d)", "_", text),
        lambda text: re.sub(r"^(\d+),(\d+),", r"\1.0,\2.0,", text, flags=re.M)],
        ids=["quoted", "crlf", "spaces", "underscores", "float-ids"])
    def test_accepted_syntax_loads_the_plain_files_arrays(self, tmp_path, large_dataset,
                                                          rewrite):
        ds, files = large_dataset
        expected = outcome(lambda: load_dataset(write_large(tmp_path, large_dataset, [])))
        assert expected == outcome(lambda: row_loop_load(tmp_path, ds))
        views = ("view_optical.csv", "view_radar.csv")
        rewritten = {file: rewrite(files[file]) for file in views}
        assert any(rewritten[file] != files[file] for file in views)
        for file, text in rewritten.items():
            (tmp_path / file).write_bytes(text.encode())
        assert outcome(lambda: load_dataset(tmp_path / "manifest.json")) == expected
