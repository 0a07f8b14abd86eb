"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; plain ``pytest`` shows them on failure only.
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml

from mvfuse.augmentation import enumerate_combinations, pattern_matrix
from mvfuse.cli import main as cli_main
from mvfuse.config import parse_config
from mvfuse.encoders import EncoderConfig, StaticEncoder, ViewSpec
from mvfuse.evaluation import (MissingScenario, auc_pr, class_change_ratio,
                               deformation, evaluate_scenarios, f1_macro, mape,
                               prs, r2)
from mvfuse.fusion import AverageFusion, FusionConfig
from mvfuse.gradcheck import run_suite
from mvfuse.model import FeatureFusionModel, build_model
from mvfuse.tensor import Adam, backward
from mvfuse.training import EarlyStopper, batch_loss, train_step
from mvfuse.workflows import fit_model, prepare_data

from test_evaluation import brute_force_auc_pr, brute_force_f1, fraction_sweep


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def trend_config(seed, aug_kind):
    return parse_config({
        "seed": seed,
        "data": {"source": "synthetic", "val_fraction": 0.2, "synthetic": {
            "n_samples": 2000, "latent_dim": 6, "task": "classification",
            "classes": 3,
            "views": [
                {"id": "optical", "kind": "temporal", "time_steps": 12,
                 "channels": 4, "noise": 0.1, "redundancy": 0.8, "loading_seed": 1},
                {"id": "radar", "kind": "static", "channels": 6, "noise": 0.5,
                 "redundancy": 0.8, "loading_seed": 2},
                {"id": "weather", "kind": "static", "channels": 4, "noise": 0.7,
                 "redundancy": 0.8, "loading_seed": 3},
            ]}},
        "model": {"latent_dim": 32, "encoder_layers": 2, "encoder_dropout": 0.2},
        "fusion": {"kind": "average", "dropout": 0.0},
        "aug": {"kind": aug_kind, "level": "feature"},
        "train": {"batch_size": 128, "lr": 0.001, "max_epochs": 15, "patience": 5},
        "eval": {"view": "optical"},
    })


def test_criterion_1_gradient_suite():
    with criterion(1, "gradient suite under 1e-4 over 20 seeds in under 60 s"):
        start = time.time()
        results = run_suite(seeds=range(20))
        elapsed = time.time() - start
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
        expected_cases = {"affine", "conv1d", "encoder_layer", "encoder_layer_pool",
                          "layer_norm", "lstm",
                          "attention", "masked_softmax", "fusion_average", "fusion_gated",
                          "fusion_cross", "fusion_memory", "fusion_average_mixed",
                          "fusion_gated_mixed", "fusion_cross_mixed",
                          "fusion_memory_mixed", "fusion_concat", "fusion_concat_mixed",
                          "fusion_average_head_mixed", "fusion_concat_head_mixed",
                          "fusion_cross_head_mixed",
                          "fusion_cross_train_mixed", "fusion_memory_train_mixed",
                          "attention_key_sets", "attention_train", "gated_mix",
                          "fusion_memory_layers3_train", "cross_entropy"}
        assert expected_cases <= set(results)
        for name, err in results.items():
            assert err < 1e-4, f"{name}: {err:.3e}"


def test_criterion_2_ignore_missing_equivalence():
    with criterion(2, "masked fusion equals physically absent views, 15 masks x 4 fusions"):
        m, d = 4, 8
        specs = [ViewSpec(id=f"v{i}", kind="static", channels=3) for i in range(m)]
        data_rng = np.random.default_rng(0)
        views = {f"v{i}": data_rng.normal(size=(5, 3)) for i in range(m)}
        masks = [mask for r in range(1, m + 1)
                 for mask in itertools.combinations(range(m), r)]
        assert len(masks) == 15
        for kind in ("average", "gated", "cross", "memory"):
            model = FeatureFusionModel(
                specs, EncoderConfig(latent_dim=d, layers=1, dropout=0.0),
                FusionConfig(kind=kind, heads=2, dropout=0.0),
                "regression", 1, np.random.default_rng(1))
            for mask, pattern in zip(masks, pattern_matrix(masks, m)):
                clean = model.forward_masked(views, pattern).data
                poisoned = {vid: arr if int(vid[1]) in mask else arr * 1e9 + 7.0
                            for vid, arr in views.items()}
                dirty = model.forward_masked(poisoned, pattern).data
                assert np.max(np.abs(clean - dirty)) <= 1e-12, (kind, mask)
                if kind == "gated":
                    rows = [model.encode_view(i, views[f"v{i}"]) if i in mask else None
                            for i in range(m)]
                    weights = model.fusion.gate_weights(rows)
                    absent = [i for i in range(m) if i not in mask]
                    if absent:
                        assert np.all(weights[..., absent] == 0.0)


def test_criterion_3_com_mechanics(spy):
    with criterion(3, "combination counts, balanced loss, encoders once and one fuse "
                      "call for all combinations"):
        # counts against a bitmask oracle for m = 1..8
        for m in range(1, 9):
            combos = enumerate_combinations(m)
            oracle = {tuple(i for i in range(m) if pattern >> i & 1)
                      for pattern in range(1, 2**m)}
            assert len(combos) == 2**m - 1
            assert set(combos) == oracle

        # one step over m = 3 views: encoders once each, one fusion and head
        # call for all 2^m - 1 combinations
        rng = np.random.default_rng(0)
        m = 3
        specs = [ViewSpec(id=f"v{i}", kind="static", channels=3) for i in range(m)]
        model = FeatureFusionModel(
            specs, EncoderConfig(latent_dim=8, layers=1, dropout=0.0),
            FusionConfig(kind="average", dropout=0.0), "regression", 1,
            np.random.default_rng(2))
        views = {f"v{i}": rng.normal(size=(6, 3)) for i in range(m)}
        y = rng.normal(size=6)
        from mvfuse.augmentation import AugPolicy
        opt = Adam(model.parameters())
        encoder_calls = spy((StaticEncoder, "__call__"))
        fusion_calls = spy((AverageFusion, "fuse"))
        head_calls = spy((FeatureFusionModel, "fuse_head"))
        train_step(model, views, y, AugPolicy(kind="com"), enumerate_combinations(m),
                   opt, "regression", None, np.random.default_rng(0),
                   np.random.default_rng(0))
        assert [encoder_calls[enc] for enc in model.encoders] == [1] * m
        assert fusion_calls[model.fusion] == 1
        assert head_calls[model] == 1

        # oracle: the per-combination loop, re-encoding for every combination,
        # with the plain mean of the per-combination losses as the balanced
        # loss; outputs and gradients of every fusion kind match it
        combos = enumerate_combinations(m)
        for kind in ("average", "gated", "cross", "memory", "concat"):
            def fresh():
                return FeatureFusionModel(
                    specs, EncoderConfig(latent_dim=8, layers=1, dropout=0.0),
                    FusionConfig(kind=kind, heads=2, dropout=0.0), "regression", 1,
                    np.random.default_rng(3))

            fused, looped = fresh(), fresh()
            outs = fused.forward_masks(views, pattern_matrix(combos, m))
            loss = batch_loss(outs.reshape((-1, 1)), np.tile(y, len(combos)), "regression")
            per_combo = [looped.forward_masked(views, pattern)
                         for pattern in pattern_matrix(combos, m)]
            parts = [batch_loss(out, y, "regression") for out in per_combo]
            mean = parts[0]
            for part in parts[1:]:
                mean = mean + part
            mean = mean * (1.0 / len(parts))
            for k, out in enumerate(per_combo):
                assert np.max(np.abs(outs.data[k] - out.data)) <= 1e-12, (kind, combos[k])
            assert abs(loss.item() - mean.item()) <= 1e-12, kind
            grads = zip(backward(loss, fused.parameters()),
                        backward(mean, looped.parameters()))
            for a, b in grads:
                assert np.max(np.abs(a - b)) <= 1e-10, kind


def test_criterion_4_metric_oracles():
    with criterion(4, "metrics match brute-force oracles and analytic points"):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(4, 30))
            y = rng.integers(0, k, n)
            yhat = rng.integers(0, k, n)
            assert abs(f1_macro(y, yhat) - brute_force_f1(list(y), list(yhat))) <= 1e-10

            yr = rng.normal(size=n)
            pr_ = rng.normal(size=n)
            expected = 1 - np.sum((yr - pr_) ** 2) / np.sum((yr - yr.mean()) ** 2)
            assert abs(r2(yr, pr_) - expected) <= 1e-10

            yb = rng.integers(0, 2, n)
            if yb.sum() in (0, n):
                yb[0], yb[-1] = 0, 1
            scores = np.round(rng.random(n), 2)
            assert abs(auc_pr(yb, scores)
                       - brute_force_auc_pr(list(yb), list(scores))) <= 1e-10

            base = np.abs(yr) + 1.0
            expected_mape = np.mean(np.abs((base - pr_) / base))
            assert abs(mape(base, pr_) - expected_mape) <= 1e-10

        # analytic robustness points
        zeros = np.zeros(6)
        assert prs(zeros, np.full(6, 1.0), np.full(6, 1.0)) == 1.0
        assert abs(prs(zeros, np.full(6, 2.0), np.full(6, 1.0)) - np.exp(-1.0)) <= 1e-12
        assert prs(zeros, np.full(6, 0.25), np.full(6, 1.0)) == 1.0
        full = rng.normal(size=64)
        c = 1.3
        assert abs(deformation(full, full + c * full.std()) - c) <= 1e-12


def test_criterion_5_directional_robustness_trend():
    with criterion(5, "feature-level combination training beats no-aug under a "
                      "missing top view, full-view within 0.02 (5 seeds)"):
        scenarios = [MissingScenario("none"),
                     MissingScenario("only_missing", "optical")]
        full = {"com": [], "none": []}
        missing = {"com": [], "none": []}
        for seed in range(5):
            for aug_kind in ("com", "none"):
                cfg = trend_config(seed, aug_kind)
                ds_train, ds_val = prepare_data(cfg)
                start = time.time()
                model, _ = fit_model(cfg, ds_train, ds_val)
                assert time.time() - start < 120.0
                report = evaluate_scenarios(model, ds_val, scenarios, seed=cfg.seed)
                full[aug_kind].append(report.values("none", "f1")[0])
                missing[aug_kind].append(
                    report.values("only_missing:optical", "f1")[0])
        gain = np.mean(missing["com"]) - np.mean(missing["none"])
        delta = abs(np.mean(full["com"]) - np.mean(full["none"]))
        print(f"  [criterion 5] robustness gain {gain:+.4f}, full-view delta {delta:.4f}")
        assert gain > 0.0
        assert delta <= 0.02


def test_criterion_6_sweep_consistency():
    with criterion(6, "sweep endpoints equal scenarios; shift curves non-decreasing"):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]

        def fitted(task, seed):
            cfg = trend_config(seed, "com")
            raw_val = cfg.data.synthetic
            raw_val.task = task
            raw_val.n_samples = 600
            cfg.train.max_epochs = 3
            ds_train, ds_val = prepare_data(cfg)
            model, _ = fit_model(cfg, ds_train, ds_val)
            return model, ds_val

        # endpoint equality at 1e-12 for a classification model
        model, ds_val = fitted("classification", 0)
        report = fraction_sweep(model, ds_val, "optical", grid, seed=0)
        reference = evaluate_scenarios(
            model, ds_val,
            [MissingScenario("none"), MissingScenario("only_missing", "optical")],
            seed=0)
        for metric in ("f1", "auc_pr", "prs", "class_change"):
            p0 = report.values("fraction:optical:0", metric)[0]
            p1 = report.values("fraction:optical:1", metric)[0]
            assert abs(p0 - reference.values("none", metric)[0]) <= 1e-12
            assert abs(p1 - reference.values("only_missing:optical", metric)[0]) <= 1e-12

        # class-change curve, averaged over five evaluation seeds
        curves = []
        for eval_seed in range(5):
            rep = fraction_sweep(model, ds_val, "optical", grid, seed=eval_seed)
            curves.append([rep.values(f"fraction:optical:{p:g}", "class_change")[0]
                           for p in grid])
        mean_curve = np.mean(curves, axis=0)
        assert all(b >= a - 1e-15 for a, b in zip(mean_curve, mean_curve[1:]))

        # deformation curve for a regression model, same protocol
        model_r, ds_val_r = fitted("regression", 1)
        curves = []
        for eval_seed in range(5):
            rep = fraction_sweep(model_r, ds_val_r, "optical", grid, seed=eval_seed)
            curves.append([rep.values(f"fraction:optical:{p:g}", "deformation")[0]
                           for p in grid])
        mean_curve = np.mean(curves, axis=0)
        assert all(b >= a - 1e-15 for a, b in zip(mean_curve, mean_curve[1:]))


def test_criterion_7_byte_identical_reruns(tmp_path):
    with criterion(7, "train plus evaluate reruns produce byte-identical summary.json"):
        raw = {
            "seed": 21,
            "data": {"source": "synthetic", "val_fraction": 0.25, "synthetic": {
                "n_samples": 150, "latent_dim": 4, "task": "classification",
                "classes": 3,
                "views": [
                    {"id": "optical", "kind": "temporal", "time_steps": 6,
                     "channels": 2, "noise": 0.1, "redundancy": 0.8,
                     "loading_seed": 1},
                    {"id": "radar", "kind": "static", "channels": 3, "noise": 0.4,
                     "redundancy": 0.8, "loading_seed": 2},
                ]}},
            "model": {"latent_dim": 8, "encoder_layers": 1, "encoder_dropout": 0.2},
            "fusion": {"kind": "gated", "dropout": 0.0},
            "aug": {"kind": "com", "level": "feature"},
            "train": {"batch_size": 50, "lr": 0.003, "max_epochs": 3, "patience": 3},
            "eval": {"view": "optical"},
        }
        config_path = tmp_path / "config.yaml"
        with open(config_path, "w") as fh:
            yaml.safe_dump(raw, fh)
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert cli_main(["train", "--config", str(config_path),
                             "--out", str(out)]) == 0
            assert cli_main(["evaluate", "--config", str(config_path),
                             "--out", str(out)]) == 0
            blobs.append((out / "summary.json").read_bytes())
        assert blobs[0] == blobs[1]
        json.loads(blobs[0])  # remains valid JSON


def test_criterion_8_early_stopping_exactness():
    with criterion(8, "flat validation stops at 1 + patience, decreasing never stops"):
        for patience in (1, 3, 5):
            stopper = EarlyStopper(patience)
            epochs = 0
            for epoch in range(1, 200):
                epochs = epoch
                _, stop = stopper.update(1.0)
                if stop:
                    break
            assert epochs == 1 + patience

        stopper = EarlyStopper(5)
        for epoch in range(1, 21):
            _, stop = stopper.update(1.0 / epoch)
            assert not stop
