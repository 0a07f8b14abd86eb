"""Evaluation: missing-view simulation, metric oracles, sweeps, reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfuse.data import SyntheticConfig, SyntheticViewConfig, generate_synthetic
from mvfuse.encoders import EncoderConfig, StaticEncoder, TemporalEncoder, one_hot_batch
from mvfuse.evaluation import (EvalReport, MissingScenario, auc_pr,
                               class_change_ratio, deformation, evaluate_scenarios,
                               f1_macro, mape, prs, r2, scenario_availability)
from mvfuse.fusion import FusionConfig
from mvfuse.model import FeatureFusionModel, batch_views, build_model, unique_rows
from mvfuse.tensor import no_grad

VIEWS = ["optical", "radar", "weather", "soil"]


class TestScenarioAvailability:
    def test_fraction_zero_keeps_everything(self):
        avail = scenario_availability(MissingScenario("fraction", "radar", 0.0),
                                      50, VIEWS, seed=1)
        assert avail.all()

    def test_only_available_keeps_exactly_one_view(self):
        avail = scenario_availability(MissingScenario("only_available", "optical"),
                                      10, VIEWS, seed=1)
        np.testing.assert_array_equal(avail[:, 0], np.ones(10, bool))
        assert not avail[:, 1:].any()

    def test_only_missing_drops_exactly_one_view(self):
        avail = scenario_availability(MissingScenario("only_missing", "weather"),
                                      10, VIEWS, seed=1)
        assert not avail[:, 2].any()
        assert avail[:, [0, 1, 3]].all()

    def test_fraction_half_masks_exact_count_reproducibly(self):
        scenario = MissingScenario("fraction", "radar", 0.5)
        a = scenario_availability(scenario, 100, VIEWS, seed=3)
        b = scenario_availability(scenario, 100, VIEWS, seed=3)
        np.testing.assert_array_equal(a, b)
        assert (~a[:, 1]).sum() == 50
        assert a[:, [0, 2, 3]].all()

    def test_fraction_masks_are_nested_across_p(self):
        low = scenario_availability(MissingScenario("fraction", "radar", 0.3),
                                    100, VIEWS, seed=3)
        high = scenario_availability(MissingScenario("fraction", "radar", 0.7),
                                     100, VIEWS, seed=3)
        assert set(np.flatnonzero(~low[:, 1])) <= set(np.flatnonzero(~high[:, 1]))

    def test_unknown_view_rejected(self):
        from mvfuse.data import UnknownViewError
        with pytest.raises(UnknownViewError):
            scenario_availability(MissingScenario("only_missing", "thermal"),
                                  5, VIEWS, seed=0)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            MissingScenario("only_missing")
        with pytest.raises(ValueError):
            MissingScenario("fraction", "radar", 1.5)
        with pytest.raises(ValueError):
            MissingScenario("sometimes", "radar")


def brute_force_f1(y, yhat):
    classes = sorted(set(y) | set(yhat))
    scores = []
    for c in classes:
        tp = sum(1 for a, b in zip(y, yhat) if a == c and b == c)
        fp = sum(1 for a, b in zip(y, yhat) if a != c and b == c)
        fn = sum(1 for a, b in zip(y, yhat) if a == c and b != c)
        scores.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    return sum(scores) / len(scores)


def brute_force_auc_pr(y, scores):
    """Average precision by walking every distinct threshold."""
    thresholds = sorted(set(scores), reverse=True)
    n_pos = sum(y)
    prev_recall = 0.0
    area = 0.0
    for th in thresholds:
        predicted = [s >= th for s in scores]
        tp = sum(1 for p, t in zip(predicted, y) if p and t)
        fp = sum(1 for p, t in zip(predicted, y) if p and not t)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


class TestMetricOracles:
    def test_perfect_classification_scores_one(self):
        y = np.array([0, 1, 2, 1, 0])
        assert f1_macro(y, y) == 1.0

    def test_hand_counted_binary_f1(self):
        got = f1_macro(np.array([1, 0, 1, 0]), np.array([1, 0, 0, 0]))
        assert abs(got - 11 / 15) < 1e-15

    def test_f1_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = rng.integers(2, 5)
            n = rng.integers(4, 30)
            y = rng.integers(0, k, n)
            yhat = rng.integers(0, k, n)
            assert abs(f1_macro(y, yhat) - brute_force_f1(list(y), list(yhat))) <= 1e-10

    def test_mean_predictor_has_zero_r2(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        pred = np.full(4, y.mean())
        assert abs(r2(y, pred)) < 1e-12

    def test_r2_matches_sum_of_squares_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = rng.integers(3, 40)
            y = rng.normal(size=n)
            pred = rng.normal(size=n)
            expected = 1 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
            assert abs(r2(y, pred) - expected) <= 1e-10

    def test_mape_analytic(self):
        assert abs(mape(np.array([100.0, 200.0]), np.array([110.0, 180.0])) - 0.10) < 1e-12

    def test_mape_rejects_zero_targets(self):
        with pytest.raises(ValueError, match="MAPE undefined for zero targets"):
            mape(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("metric, y, pred, message", [
        (f1_macro, [], [], "non-empty aligned label vectors"),
        (f1_macro, [0, 1], [0, 1, 1], "non-empty aligned label vectors"),
        (r2, [], [], "non-empty aligned vectors"),
        (r2, [1.0, 2.0], [1.0], "non-empty aligned vectors"),
        (r2, [3.0, 3.0], [1.0, 2.0], "targets are constant"),
        (mape, [], [], "non-empty aligned vectors"),
        (mape, [1.0, 2.0], [[1.0, 2.0]], "non-empty aligned vectors"),
    ], ids=["f1-empty", "f1-misaligned", "r2-empty", "r2-misaligned", "r2-constant",
            "mape-empty", "mape-misaligned"])
    def test_input_guards(self, metric, y, pred, message):
        with pytest.raises(ValueError, match=message):
            metric(np.array(y), np.array(pred))

    def test_auc_pr_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = rng.integers(4, 40)
            y = rng.integers(0, 2, n)
            if y.sum() in (0, n):
                y[0], y[-1] = 0, 1
            scores = np.round(rng.random(n), 2)  # force threshold ties
            got = auc_pr(y, scores)
            expected = brute_force_auc_pr(list(y), list(scores))
            assert abs(got - expected) <= 1e-10

    def test_auc_pr_multiclass_macro(self):
        y = np.array([0, 1, 2, 1])
        scores = np.array([[0.8, 0.1, 0.1], [0.2, 0.6, 0.2],
                           [0.1, 0.2, 0.7], [0.3, 0.5, 0.2]])
        per_class = [brute_force_auc_pr(list((y == c).astype(int)), list(scores[:, c]))
                     for c in range(3)]
        assert abs(auc_pr(y, scores) - np.mean(per_class)) <= 1e-12

    def test_auc_pr_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_pr(np.array([1, 1, 1]), np.array([0.4, 0.5, 0.6]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_metrics_invariant_to_sample_order(self, seed):
        rng = np.random.default_rng(seed)
        n = 25
        y = rng.integers(0, 3, n)
        y[:3] = [0, 1, 2]
        yhat = rng.integers(0, 3, n)
        perm = rng.permutation(n)
        assert f1_macro(y, yhat) == f1_macro(y[perm], yhat[perm])
        yr = rng.normal(size=n)
        pr_ = rng.normal(size=n)
        assert abs(r2(yr, pr_) - r2(yr[perm], pr_[perm])) < 1e-12


class TestRobustnessScores:
    def test_prs_identical_predictions_is_one(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.array([1.1, 2.2, 2.9])
        assert prs(y, pred, pred) == 1.0

    def test_prs_double_error_is_exp_minus_one(self):
        y = np.zeros(4)
        full = np.full(4, 1.0)
        miss = np.full(4, 2.0)  # rmse ratio exactly 2
        assert abs(prs(y, miss, full) - np.exp(-1.0)) <= 1e-12

    def test_prs_clamps_at_one_when_missing_beats_full(self):
        y = np.zeros(4)
        assert prs(y, np.full(4, 0.5), np.full(4, 1.0)) == 1.0

    def test_prs_zero_full_rmse_rejected(self):
        y = np.ones(3)
        with pytest.raises(ValueError):
            prs(y, y + 0.5, y)

    def test_prs_monotone_in_missing_error(self):
        y = np.zeros(8)
        full = np.full(8, 1.0)
        values = [prs(y, np.full(8, level), full) for level in np.linspace(0.2, 5, 12)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert values[0] == 1.0

    def test_deformation_uniform_shift_analytic(self):
        rng = np.random.default_rng(0)
        full = rng.normal(size=50)
        c = 0.7
        miss = full + c * full.std()
        assert abs(deformation(full, miss) - c) <= 1e-12

    def test_deformation_zero_for_identical(self):
        full = np.array([1.0, 2.0, 5.0])
        assert deformation(full, full) == 0.0

    def test_deformation_constant_full_rejected(self):
        with pytest.raises(ValueError):
            deformation(np.ones(4), np.zeros(4))

    def test_class_change_extremes(self):
        probs_a = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert class_change_ratio(probs_a, probs_a) == 0.0
        flipped = probs_a[:, ::-1]
        assert class_change_ratio(probs_a, flipped) == 1.0
        labels = np.array([0, 1, 1, 0])
        assert class_change_ratio(labels, np.array([0, 1, 0, 0])) == 0.25


def classification_stack(classes, seed=0, S=5, N=40):
    """Labels, full-view probabilities (1, N, C) and S scenarios' (S, N, C),
    rounded so that scores tie; scenario 1 never predicts the last class."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, N)
    y[:classes] = np.arange(classes)
    scores = np.round(rng.random((S + 1, N, classes)), 1) + 0.05
    scores[2, :, -1] = 0.0
    probs = scores / scores.sum(axis=-1, keepdims=True)
    return y, probs[:1], probs[1:]


def classification_scores(y, full, preds):
    """Each classification metric as evaluate_scenarios calls it on a stack."""
    flat = preds.reshape(len(preds), -1)
    return {"f1": f1_macro(y[None], preds.argmax(axis=-1)),
            "auc_pr": auc_pr(y[None], preds),
            "auc_pr_binary": auc_pr((y == 1)[None], preds[..., 1]),
            "class_change": class_change_ratio(full, preds),
            "prs": prs(one_hot_batch(y, preds.shape[-1]).reshape(1, -1), flat,
                       full.reshape(1, -1))}


def regression_stack(seed=0, S=5, N=40):
    rng = np.random.default_rng(seed)
    return 2.0 + rng.random(N), 2.0 + rng.normal(size=(1, N)), 2.0 + rng.normal(size=(S, N))


def regression_scores(y, full, preds):
    return {"r2": r2(y[None], preds), "mape": mape(y[None], preds),
            "deformation": deformation(full, preds), "prs": prs(y[None], preds, full)}


class TestStackedScoring:
    """An (S, N, ...) stack of scenario predictions scores like S separate calls."""

    @pytest.mark.parametrize("classes", [2, 3])
    def test_classification_stack_matches_per_scenario_calls(self, classes):
        y, full, preds = classification_stack(classes)
        assert not (preds[1].argmax(axis=-1) == classes - 1).any()
        stacked = classification_scores(y, full, preds)
        for s, p in enumerate(preds):
            single = {"f1": f1_macro(y, p.argmax(axis=-1)), "auc_pr": auc_pr(y, p),
                      "auc_pr_binary": auc_pr(y == 1, p[:, 1]),
                      "class_change": class_change_ratio(full[0], p),
                      "prs": prs(one_hot_batch(y, classes).reshape(-1), p.reshape(-1),
                                 full[0].reshape(-1))}
            for metric, value in single.items():
                assert isinstance(value, float)
                assert abs(stacked[metric][s] - value) <= 1e-12, metric

    def test_f1_counts_only_each_scenarios_observed_classes(self):
        # class 2 is never a target; only the second scenario predicts it
        y = np.array([0, 1, 0, 1, 1, 0])
        labels = np.array([[0, 1, 1, 1, 1, 0], [0, 2, 0, 1, 1, 0]])
        stacked = f1_macro(y[None], labels)
        for s, pred in enumerate(labels):
            assert abs(stacked[s] - brute_force_f1(list(y), list(pred))) <= 1e-12

    def test_regression_stack_matches_per_scenario_calls(self):
        y, full, preds = regression_stack()
        stacked = regression_scores(y, full, preds)
        for s, p in enumerate(preds):
            single = {"r2": r2(y, p), "mape": mape(y, p), "deformation": deformation(full[0], p),
                      "prs": prs(y, p, full[0])}
            for metric, value in single.items():
                assert isinstance(value, float)
                assert abs(stacked[metric][s] - value) <= 1e-12, metric

    @pytest.mark.parametrize("task", ["binary", "3-class", "regression"])
    def test_identical_scenarios_score_identically(self, task):
        # the sweep endpoints p=0 and p=1 repeat the none and only-missing rows
        if task == "regression":
            y, full, preds = regression_stack(seed=1)
            preds[3], preds[4] = full[0], preds[1]
            scores = regression_scores(y, full, preds)
        else:
            y, full, preds = classification_stack(2 if task == "binary" else 3, seed=1)
            preds[3], preds[4] = full[0], preds[1]
            scores = classification_scores(y, full, preds)
        for metric, values in scores.items():
            assert values[4] == values[1], metric
            if metric in ("class_change", "prs", "deformation"):
                assert values[3] == (0.0 if metric != "prs" else 1.0), metric

    def test_stack_of_one_is_an_array(self):
        y, full, preds = regression_stack(S=1)
        assert all(v.shape == (1,) for v in regression_scores(y, full, preds).values())


def fraction_sweep(model, ds, view, grid, seed):
    """The fraction scenarios of ``view`` over ``grid``, scored in one call as
    ``run_sweep`` scores them."""
    scenarios = [MissingScenario("fraction", view, float(p)) for p in grid]
    return evaluate_scenarios(model, ds, scenarios, seed)


def fitted_model(task="classification", seed=0):
    cfg = SyntheticConfig(
        n_samples=90, latent_dim=4, task=task, classes=3, seed=seed,
        views=[SyntheticViewConfig(id=v, kind="static", channels=3, noise=0.2,
                                   redundancy=0.8, loading_seed=i)
               for i, v in enumerate(["optical", "radar", "weather"])])
    ds = generate_synthetic(cfg)
    model = build_model(ds.view_specs, EncoderConfig(latent_dim=8, layers=1, dropout=0.0),
                        FusionConfig(kind="average", dropout=0.0), ds.task,
                        ds.n_outputs, "feature", np.random.default_rng(seed))
    return model, ds


class TestSweep:
    def test_grid_rows_and_endpoint_equalities(self):
        model, ds = fitted_model()
        report = fraction_sweep(model, ds, "optical", [0.0, 0.5, 1.0], seed=4)
        f1_rows = [r for r in report.rows if r["metric"] == "f1"]
        assert len(f1_rows) == 3

        scenarios = [MissingScenario("none"),
                     MissingScenario("only_missing", "optical")]
        reference = evaluate_scenarios(model, ds, scenarios, seed=4)
        for metric in ("f1", "auc_pr", "prs", "class_change"):
            start = report.values("fraction:optical:0", metric)[0]
            end = report.values("fraction:optical:1", metric)[0]
            assert abs(start - reference.values("none", metric)[0]) <= 1e-12
            assert abs(end - reference.values("only_missing:optical", metric)[0]) <= 1e-12

    def test_shift_scores_non_decreasing_in_p(self):
        model, ds = fitted_model(seed=1)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        report = fraction_sweep(model, ds, "radar", grid, seed=7)
        curve = [report.values(f"fraction:radar:{p:g}", "class_change")[0] for p in grid]
        assert all(b >= a - 1e-15 for a, b in zip(curve, curve[1:]))
        assert curve[0] == 0.0

    def test_regression_sweep_metrics(self):
        model, ds = fitted_model(task="regression", seed=2)
        report = fraction_sweep(model, ds, "optical", [0.0, 1.0], seed=5)
        deform = [report.values(f"fraction:optical:{p:g}", "deformation")[0]
                  for p in (0.0, 1.0)]
        assert deform[0] == 0.0
        assert deform[1] >= 0.0
        assert report.values("fraction:optical:0", "prs")[0] == 1.0


def mixed_model(kind, level, task):
    """An untrained model over a temporal, a static and a categorical view."""
    cfg = SyntheticConfig(
        n_samples=40, latent_dim=4, task=task, classes=3, seed=3,
        views=[SyntheticViewConfig(id="optical", kind="temporal", time_steps=4, channels=2,
                                   loading_seed=0),
               SyntheticViewConfig(id="radar", kind="static", channels=3, loading_seed=1),
               SyntheticViewConfig(id="soil", kind="categorical", cardinality=3,
                                   loading_seed=2)])
    ds = generate_synthetic(cfg)
    model = build_model(ds.view_specs, EncoderConfig(latent_dim=8, layers=1, dropout=0.3),
                        FusionConfig(kind=kind, heads=2, dropout=0.3), ds.task,
                        ds.n_outputs, level, np.random.default_rng(5))
    return model, ds


PREDICT_SCENARIOS = [MissingScenario("none"), MissingScenario("only_missing", "optical"),
                     MissingScenario("only_available", "radar"),
                     MissingScenario("fraction", "soil", 0.5)]


def grouped_predictions(model, views, available):
    """Oracle: per (N, m) matrix, one ``forward_masked`` per availability
    pattern on the rows that share it."""
    out = []
    for matrix in available:
        rows = {}
        for pattern in np.unique(matrix, axis=0):
            idx = np.flatnonzero((matrix == pattern).all(axis=1))
            with no_grad():
                logits = model.forward_masked(batch_views(views, idx), pattern)
            preds = (logits.softmax(axis=-1).data if model.task == "classification"
                     else logits.data[:, 0])
            rows.update(zip(idx, preds))
        out.append([rows[i] for i in range(matrix.shape[0])])
    return np.array(out)


@pytest.mark.parametrize("m", [1, 5, 9, 70])
def test_unique_rows_match_np_unique(m):
    rng = np.random.default_rng(m)
    rows = rng.random((300, m)) < 0.6
    rows[:, (m + 1) // 2:] = rows[0, (m + 1) // 2:]  # rows differing only early on
    rows[100:] = rows[rng.integers(0, 100, 200)]  # and repeats
    for part in (rows, rows[:1]):
        patterns, inverse = unique_rows(part)
        want_patterns, want_inverse = np.unique(part, axis=0, return_inverse=True)
        assert patterns.dtype == want_patterns.dtype
        np.testing.assert_array_equal(patterns, want_patterns)
        np.testing.assert_array_equal(inverse, want_inverse.reshape(-1))


# every fusion kind at feature level, average at input level, InputConcatModel
PREDICT_PATHS = [(kind, "feature") for kind in ("average", "gated", "cross", "memory", "concat")]
PREDICT_PATHS += [("average", "input"), ("concat", "input")]


@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("kind, level", PREDICT_PATHS)
class TestPredictContract:
    def stacked(self, model, ds):
        return np.stack([scenario_availability(s, ds.n_samples, model.view_ids, seed=2)
                         for s in PREDICT_SCENARIOS])

    def test_stacked_scenarios_match_per_pattern_forwards(self, kind, level, task):
        model, ds = mixed_model(kind, level, task)
        available = self.stacked(model, ds)
        assert len(np.unique(available[3], axis=0)) == 2  # the fraction scenario
        preds = model.predict(ds.views, available)
        expected = grouped_predictions(model, ds.views, available)
        assert preds.shape == expected.shape
        np.testing.assert_allclose(preds, expected, rtol=0, atol=1e-12)

    def test_encoder_and_fusion_call_counts(self, kind, level, task, spy):
        # feature level: every encoder once and one fusion call for all
        # patterns; input level: one full forward per pattern
        model, ds = mixed_model(kind, level, task)
        available = self.stacked(model, ds)
        n_patterns = len(np.unique(available.reshape(-1, 3), axis=0))
        encoders = spy((TemporalEncoder, "__call__"), (StaticEncoder, "__call__"))
        heads = spy((FeatureFusionModel, "fuse_head"))
        model.predict(ds.views, available)
        per_call = 1 if level == "feature" else n_patterns
        if kind == "concat" and level == "input":  # one MLP, no fusion
            assert encoders == {model.encoder: per_call}
        else:
            assert encoders == {enc: per_call for enc in model.encoders}
            assert heads == {model: per_call}


@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("kind", ["average", "gated", "cross", "memory", "concat"])
def test_feature_level_encoders_run_once_per_evaluation(kind, task, spy):
    model, ds = mixed_model(kind, "feature", task)
    encoders = spy((TemporalEncoder, "__call__"), (StaticEncoder, "__call__"))
    evaluate_scenarios(model, ds, PREDICT_SCENARIOS, seed=2)
    assert encoders == {enc: 1 for enc in model.encoders}


@pytest.mark.parametrize("shape", [(39, 3), (41, 3), (2, 39, 3)])
def test_predict_rejects_availability_of_another_sample_count(shape):
    # one row short used to return 39 predictions, one row over an IndexError
    model, ds = mixed_model("average", "feature", "regression")
    with pytest.raises(ValueError, match=rf"shape \({shape[0]}, .*the views have 40 rows"):
        model.predict(ds.views, np.ones(shape, dtype=bool))


class TestReport:
    def test_csv_round_trip_and_summary(self, tmp_path):
        report = EvalReport()
        report.add("none", None, None, "f1", 0, 1, 0.5)
        report.add("none", None, None, "f1", 1, 1, 0.7)
        summary = report.summary()
        assert summary[0]["mean"] == pytest.approx(0.6)
        assert summary[0]["n"] == 2
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,view,p,metric,fold,seed,value"
        assert len(lines) == 3

    def test_summary_json_is_deterministic(self, tmp_path):
        report = EvalReport()
        report.add("none", None, None, "f1", 0, 1, 1 / 3)
        report.write_summary(tmp_path / "a.json", config={"x": 1}, seed=7)
        report.write_summary(tmp_path / "b.json", config={"x": 1}, seed=7)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
