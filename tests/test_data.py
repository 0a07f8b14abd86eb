"""Synthetic generation, normalization, CSV round trip, loader errors."""

import json
from pathlib import Path

import numpy as np
import pytest

from mvfuse.config import _build, resolved_dict
from mvfuse.data import (DataError, MalformedFieldError, Manifest, MultiViewDataset, NormStats,
                         RowCountError, SyntheticConfig, SyntheticViewConfig, Targets,
                         UnknownViewError, ViewFile, generate_synthetic, kfold_indices,
                         load_dataset, save_dataset, train_val_split, validation_size,
                         zscore_apply, zscore_fit)
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
