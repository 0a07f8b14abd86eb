"""Training: losses, class weights, combination step mechanics, early stopping."""

import copy
import json
import math
import tracemalloc

import numpy as np
import pytest

from mvfuse import model as model_mod
from mvfuse.augmentation import (AugPolicy, enumerate_combinations, pattern_matrix,
                                 sensd_mask)
from mvfuse.config import _build, resolved_dict
from mvfuse.data import SyntheticConfig, SyntheticViewConfig, generate_synthetic
from mvfuse.encoders import EncoderConfig, StaticEncoder, TemporalEncoder, ViewSpec
from mvfuse.fusion import FUSION_KINDS, AverageFusion, FusionConfig
from mvfuse.model import (LEVELS, FeatureFusionModel, Snapshot, batch_views, build_model,
                          load_model, save_model)
from mvfuse.tensor import Adam, Tensor, backward, concat
from mvfuse.model import PATTERN_ROWS
from mvfuse.training import (EarlyStopper, TrainConfig, batch_loss, class_weights,
                             cross_entropy, train_model, train_step, validation_losses)


def tiny_dataset(task="classification", n=60, seed=0):
    cfg = SyntheticConfig(
        n_samples=n, latent_dim=4, task=task, classes=3, seed=seed,
        views=[
            SyntheticViewConfig(id="a", kind="temporal", time_steps=5, channels=2,
                                noise=0.1, redundancy=0.8, loading_seed=1),
            SyntheticViewConfig(id="b", kind="static", channels=3, noise=0.3,
                                redundancy=0.8, loading_seed=2),
        ])
    return generate_synthetic(cfg)


def tiny_model(ds, kind="average", level="feature", dropout=0.0, seed=0, d=8):
    return build_model(ds.view_specs, EncoderConfig(latent_dim=d, layers=1, dropout=dropout),
                       FusionConfig(kind=kind, heads=2, dropout=dropout), ds.task,
                       ds.n_outputs, level, np.random.default_rng(seed))


class TestPerSampleLoss:
    """The loss of a one-sample batch, from logits (classification) or values."""

    def test_perfect_one_hot_is_near_zero(self):
        logits = Tensor(np.array([[-50.0, 50.0, -50.0]]))
        assert batch_loss(logits, np.array([1]), "classification").item() < 1e-12

    def test_regression_exact_hit_is_zero(self):
        assert batch_loss(Tensor(np.array([[2.5]])), np.array([2.5]),
                          "regression").item() == 0.0

    def test_binary_half_probability_is_ln_two(self):
        loss = batch_loss(Tensor(np.zeros((1, 2))), np.array([0]), "classification")
        assert abs(loss.item() - math.log(2)) < 1e-12

    def test_invalid_class_raises(self):
        with pytest.raises(ValueError):
            batch_loss(Tensor(np.zeros((1, 2))), np.array([3]), "classification")

    def test_class_weight_scales(self):
        base = batch_loss(Tensor(np.zeros((1, 2))), np.array([0]), "classification")
        weighted = batch_loss(Tensor(np.zeros((1, 2))), np.array([0]), "classification",
                              weights=np.array([2.0, 0.5]))
        assert abs(weighted.item() - 2.0 * base.item()) < 1e-12


class TestClassWeights:
    def test_balanced_counts_give_ones(self):
        labels = np.array([0] * 10 + [1] * 10)
        np.testing.assert_allclose(class_weights(labels), [1.0, 1.0], atol=1e-15)

    def test_one_to_nine_imbalance(self):
        labels = np.array([0] + [1] * 9)
        np.testing.assert_allclose(class_weights(labels), [1.8, 0.2], atol=1e-12)

    def test_three_class_arithmetic_oracle(self):
        labels = np.array([0] * 2 + [1] * 3 + [2] * 6)
        raw = np.array([1 / 2, 1 / 3, 1 / 6])
        expected = raw * 3 / raw.sum()
        np.testing.assert_allclose(class_weights(labels), expected, atol=1e-12)

    def test_missing_class_raises(self):
        with pytest.raises(ValueError):
            class_weights(np.array([0, 0, 2, 2]), n_classes=3)


class TestBatchLosses:
    def test_cross_entropy_matches_scalar_definition(self):
        logits = Tensor(np.log(np.array([[0.2, 0.8], [0.9, 0.1]])))
        got = cross_entropy(logits, np.array([1, 0])).item()
        expected = -(math.log(0.8) + math.log(0.9)) / 2
        assert abs(got - expected) < 1e-12

    @pytest.mark.parametrize("task, weights", [("regression", None),
                                               ("classification", np.array([0.5, 2.0, 1.0]))])
    def test_stacked_loss_is_the_mean_over_combinations(self, task, weights):
        rng = np.random.default_rng(0)
        outs = Tensor(rng.normal(size=(7, 5, 3 if task == "classification" else 1)))
        y = rng.integers(0, 3, 5) if task == "classification" else rng.normal(size=5)
        parts = [batch_loss(outs[k], y, task, weights).item() for k in range(7)]
        assert abs(stacked_loss(outs, y, task, weights).item() - np.mean(parts)) <= 1e-12


def stacked_loss(outs, y, task, weights=None):
    """The step loss of (K, B, n) outputs: the per-sample loss over all K*B rows."""
    return batch_loss(outs.reshape((-1, outs.shape[-1])), np.tile(y, outs.shape[0]),
                      task, weights)


def mean_loss(parts):
    """The per-combination oracle: the plain mean of per-combination losses."""
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total * (1.0 / len(parts))


def spy_step(spy):
    """Per-instance call counters for encoders, average fusion and the head."""
    encoders = spy((TemporalEncoder, "__call__"), (StaticEncoder, "__call__"))
    return encoders, spy((AverageFusion, "fuse")), spy((FeatureFusionModel, "fuse_head"))


class TestComStepMechanics:
    def test_counts_two_views(self, spy):
        ds = tiny_dataset()
        model = tiny_model(ds)
        opt = Adam(model.parameters())
        rng = np.random.default_rng(0)
        combos = enumerate_combinations(2)
        encoder_calls, fusion_calls, head_calls = spy_step(spy)
        train_step(model, ds.views, ds.y, AugPolicy(kind="com"), combos, opt,
                   ds.task, None, rng, rng)
        for enc in model.encoders:
            assert encoder_calls[enc] == 1
        assert fusion_calls[model.fusion] == 1  # all 2^2 - 1 combinations at once
        assert head_calls[model] == 1

    def test_counts_three_views_full_grid(self, spy):
        cfg = SyntheticConfig(
            n_samples=20, latent_dim=4, task="classification", classes=2, seed=1,
            views=[SyntheticViewConfig(id=f"v{i}", kind="static", channels=3,
                                       loading_seed=i) for i in range(3)])
        ds = generate_synthetic(cfg)
        model = tiny_model(ds)
        opt = Adam(model.parameters())
        rng = np.random.default_rng(0)
        encoder_calls, _, head_calls = spy_step(spy)
        train_step(model, ds.views, ds.y, AugPolicy(kind="com"),
                   enumerate_combinations(3), opt, ds.task, None, rng, rng)
        assert [encoder_calls[enc] for enc in model.encoders] == [1, 1, 1]
        assert head_calls[model] == 1

    def test_gradients_match_naive_reencoding(self):
        # encoding once and fusing per combination must give the same gradients
        # as a naive loop that re-runs the encoders for every combination
        ds = tiny_dataset(n=16)
        combos = enumerate_combinations(2)

        shared = tiny_model(ds, seed=3)
        params_shared = shared.parameters()
        grads_shared = backward(stacked_loss(shared.forward_masks(ds.views,
                                                                  pattern_matrix(combos, 2)),
                                             ds.y, ds.task), params_shared)

        naive = tiny_model(ds, seed=3)
        params_naive = naive.parameters()
        parts = [batch_loss(naive.forward_masked(ds.views, pattern), ds.y, ds.task)
                 for pattern in pattern_matrix(combos, 2)]
        grads_naive = backward(mean_loss(parts), params_naive)

        for a, b in zip(grads_shared, grads_naive):
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_combo_order_invariance_of_step_loss(self):
        ds = tiny_dataset(n=16)
        combos = enumerate_combinations(2)
        model = tiny_model(ds, seed=4)

        def step_loss(order):
            return stacked_loss(model.forward_masks(ds.views, pattern_matrix(order, 2)), ds.y,
                                ds.task).item()

        assert abs(step_loss(combos) - step_loss(combos[::-1])) <= 1e-12

    def test_pattern_groups_are_bounded(self, monkeypatch):
        # B rows under K patterns are fused in groups of PATTERN_ROWS // B
        # patterns, in order; the groups together equal one pattern at a time
        batch = PATTERN_ROWS // 2 - 1
        ds = tiny_dataset(n=batch, seed=1)
        model = tiny_model(ds, kind="gated", seed=8)
        combos = enumerate_combinations(2)
        groups = []
        fuse_head = FeatureFusionModel.fuse_head

        def recorded(self, rows, available=None, rng=None):
            groups.append(available.copy())
            return fuse_head(self, rows, available, rng=rng)

        monkeypatch.setattr(FeatureFusionModel, "fuse_head", recorded)
        patterns = pattern_matrix(combos, 2)
        outs = model.forward_masks(ds.views, patterns)
        assert [g.shape[0] for g in groups] == [2, 1]
        np.testing.assert_array_equal(np.concatenate(groups), patterns)
        monkeypatch.undo()
        for k, pattern in enumerate(patterns):
            np.testing.assert_allclose(outs.data[k], model.forward_masked(ds.views, pattern).data,
                                       rtol=0, atol=1e-12)

    def test_no_augmentation_equals_direct_step(self):
        ds = tiny_dataset(n=16)
        model = tiny_model(ds, seed=5)
        opt = Adam(model.parameters(), lr=0.0)
        rng = np.random.default_rng(0)
        stepped = train_step(model, ds.views, ds.y, AugPolicy(kind="none"), None,
                             opt, ds.task, None, rng, rng)
        direct = batch_loss(model.forward_masked(ds.views, np.array([True, True])), ds.y,
                            ds.task).item()
        assert abs(stepped - direct) <= 1e-12

    def test_com_at_input_level_reencodes_every_combination(self, spy):
        # zero-imputed inputs change the encoder output, so no sharing is possible
        ds = tiny_dataset(n=12)
        model = tiny_model(ds, level="input")
        opt = Adam(model.parameters())
        rng = np.random.default_rng(0)
        encoder_calls, _, _ = spy_step(spy)
        train_step(model, ds.views, ds.y, AugPolicy(kind="com", level="input"),
                   enumerate_combinations(2), opt, ds.task, None, rng, rng)
        assert all(encoder_calls[enc] == 3 for enc in model.encoders)

    def test_input_level_masking_equals_manual_zeroing(self):
        ds = tiny_dataset(n=8)
        model = tiny_model(ds, level="input")
        masked = model.forward_masked(ds.views, np.array([True, False])).data
        zeroed = dict(ds.views)
        zeroed["b"] = np.zeros_like(ds.views["b"])
        manual = model.forward_masked(zeroed, np.array([True, True])).data
        np.testing.assert_array_equal(masked, manual)

    def test_sensd_step_groups_by_mask(self):
        ds = tiny_dataset(n=24)
        model = tiny_model(ds, seed=6)
        opt = Adam(model.parameters())
        loss = train_step(model, ds.views, ds.y, AugPolicy(kind="sensd"), None,
                          opt, ds.task, None, np.random.default_rng(1),
                          np.random.default_rng(2))
        assert np.isfinite(loss)

    @pytest.mark.parametrize("level", ["feature", "input"])
    def test_sensd_loss_groups_by_ascending_mask(self, level):
        ds = tiny_dataset(n=24)
        model = tiny_model(ds, level=level, dropout=0.3, seed=6)
        twin = copy.deepcopy(model)
        # seed 0 first draws (1,), then (0, 1), then (0,): neither the draw
        # order nor the order of np.unique's boolean rows is the tuple order
        mask_rng, dropout_rng = np.random.default_rng(0), np.random.default_rng(2)
        twin_mask_rng, twin_dropout_rng = copy.deepcopy(mask_rng), copy.deepcopy(dropout_rng)
        loss = train_step(model, ds.views, ds.y, AugPolicy(kind="sensd", level=level), None,
                          Adam(model.parameters()), ds.task, None, mask_rng, dropout_rng)
        # oracle: samples grouped by mask, groups in ascending tuple order, each
        # group's samples in ascending order, dropout drawn group after group;
        # the groups' outputs stacked with their targets, and one batch loss
        masks = [sensd_mask(2, twin_mask_rng) for _ in range(24)]
        outs, order = [], []
        for mask in sorted(set(masks)):
            idx = [i for i, drawn in enumerate(masks) if drawn == mask]
            outs.append(twin.forward_masked(batch_views(ds.views, idx),
                                            pattern_matrix([mask], 2)[0], rng=twin_dropout_rng))
            order += idx
        expected = batch_loss(concat(outs), ds.y[order], ds.task, None).item()
        assert len(set(masks)) == 3
        assert loss.hex() == expected.hex()
        # the groups' losses weighted by their share of the batch give the same
        # loss up to the order of the sum
        start, parts = 0, 0.0
        for out in outs:
            rows = order[start:start + out.shape[0]]
            parts += batch_loss(out, ds.y[rows], ds.task, None).item() * (len(rows) / 24)
            start += out.shape[0]
        assert abs(parts - expected) <= 1e-15 * abs(expected)

    def test_tempd_step_runs(self):
        ds = tiny_dataset(n=24)
        model = tiny_model(ds, seed=7)
        opt = Adam(model.parameters())
        loss = train_step(model, ds.views, ds.y,
                          AugPolicy(kind="tempd", tempd_ratio=0.4), None, opt,
                          ds.task, None, np.random.default_rng(1),
                          np.random.default_rng(2))
        assert np.isfinite(loss)


def categorical_dataset(n=24):
    cfg = SyntheticConfig(
        n_samples=n, latent_dim=4, task="classification", classes=3, seed=2,
        views=[SyntheticViewConfig(id="a", kind="temporal", time_steps=5, channels=2,
                                   loading_seed=1),
               SyntheticViewConfig(id="c", kind="categorical", cardinality=3,
                                   loading_seed=3)])
    return generate_synthetic(cfg)


# feature level, input level, and the InputConcatModel baseline
MODEL_PATHS = [("average", "feature"), ("average", "input"), ("concat", "input")]


@pytest.mark.parametrize("kind, level", MODEL_PATHS)
class TestMissingInputPaths:
    def test_categorical_view_trains_and_predicts(self, kind, level):
        ds = categorical_dataset()
        model = tiny_model(ds, kind=kind, level=level)
        train_model(model, ds.subset(np.arange(16)), ds.subset(np.arange(16, 24)),
                    AugPolicy(kind="com", level=level),
                    TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=0))
        only_codes = model.predict(ds.views, np.tile([False, True], (24, 1)))
        # with only the categorical view, a prediction is a function of the code
        distinct = {code: np.unique(only_codes[ds.views["c"] == code], axis=0)
                    for code in range(3)}
        assert all(rows.shape[0] == 1 for rows in distinct.values())
        assert len({rows.tobytes() for rows in distinct.values()}) == 3

    def test_out_of_range_code_in_excluded_view_is_never_read(self, kind, level):
        ds = categorical_dataset(n=8)
        model = tiny_model(ds, kind=kind, level=level)
        garbage = {"a": ds.views["a"], "c": np.full(8, 7)}  # cardinality is 3
        first = np.array([True, False])
        np.testing.assert_array_equal(model.forward_masked(garbage, first).data,
                                      model.forward_masked(ds.views, first).data)
        with pytest.raises(ValueError, match="out of range"):
            model.forward_masked(garbage, np.array([True, True]))

    def test_empty_mask_raises(self, kind, level):
        ds = categorical_dataset(n=8)
        model = tiny_model(ds, kind=kind, level=level)
        with pytest.raises(ValueError, match="at least one available view"):
            model.forward_masked(ds.views, np.array([False, False]))
        # checked before any pattern runs, the full pattern included
        with pytest.raises(ValueError, match="every pattern needs at least one available view"):
            model.forward_masks(ds.views, np.array([[True, True], [False, False]]))

    @pytest.mark.parametrize("available", [np.ones((8, 2), dtype=int), [(0, 1)] * 8],
                             ids=["int-array", "index-tuples"])
    def test_non_boolean_availability_raises(self, kind, level, available):
        # an index tuple is never read as booleans: (0, 1) would mean view 1 alone
        ds = categorical_dataset(n=8)
        model = tiny_model(ds, kind=kind, level=level)
        for call in (model.forward_masks, model.predict):
            with pytest.raises(ValueError, match="must be a boolean array"):
                call(ds.views, available)
        with pytest.raises(ValueError, match="must be a boolean array"):
            model.forward_masked(ds.views, available[0])


@pytest.mark.parametrize("kind", ["average", "gated", "cross", "memory", "concat"])
@pytest.mark.parametrize("task", ["classification", "regression"])
def test_training_smoke_every_fusion(kind, task):
    ds = tiny_dataset(task=task, n=30)
    ds_train, ds_val = ds.subset(np.arange(20)), ds.subset(np.arange(20, 30))
    model = build_model(ds.view_specs,
                        EncoderConfig(latent_dim=8, layers=1, dropout=0.2),
                        FusionConfig(kind=kind, heads=2, dropout=0.4), ds.task,
                        ds.n_outputs, "feature", np.random.default_rng(0))
    cfg = TrainConfig(batch_size=10, lr=1e-3, max_epochs=2, patience=2, seed=0)
    result = train_model(model, ds_train, ds_val, AugPolicy(kind="com"), cfg)
    assert len(result.log) == 2
    preds = model.predict(ds_val.views, np.ones((10, 2), dtype=bool))
    assert np.all(np.isfinite(preds))


def test_permuted_memory_fusion_trains():
    ds = tiny_dataset(n=20)
    model = build_model(ds.view_specs,
                        EncoderConfig(latent_dim=8, layers=1, dropout=0.0),
                        FusionConfig(kind="memory", dropout=0.0, permute=True),
                        ds.task, ds.n_outputs, "feature", np.random.default_rng(0))
    cfg = TrainConfig(batch_size=10, lr=1e-3, max_epochs=1, patience=1, seed=0)
    result = train_model(model, ds.subset(np.arange(14)), ds.subset(np.arange(14, 20)),
                         AugPolicy(kind="com"), cfg)
    assert len(result.log) == 1


# Parameter names and shapes of a temporal (T=5, c=2) + static (c=3) +
# categorical (cardinality 4) model at d=4, two encoder layers, kernel 3,
# 2 heads and 3 classes: the layout every snapshot of this architecture holds.
SNAPSHOT_ENCODERS = [
    ("encoders.0.convs.0.W", (3, 2, 4)), ("encoders.0.convs.0.b", (4,)),
    ("encoders.0.convs.1.W", (3, 4, 4)), ("encoders.0.convs.1.b", (4,)),
    ("encoders.0.norm.gain", (4,)), ("encoders.0.norm.shift", (4,)),
    ("encoders.1.affines.0.W", (3, 4)), ("encoders.1.affines.0.b", (4,)),
    ("encoders.1.affines.1.W", (4, 4)), ("encoders.1.affines.1.b", (4,)),
    ("encoders.1.norm.gain", (4,)), ("encoders.1.norm.shift", (4,)),
    ("encoders.2.affines.0.W", (4, 4)), ("encoders.2.affines.0.b", (4,)),
    ("encoders.2.affines.1.W", (4, 4)), ("encoders.2.affines.1.b", (4,)),
    ("encoders.2.norm.gain", (4,)), ("encoders.2.norm.shift", (4,))]
SNAPSHOT_HEAD = [("head.W", (4, 3)), ("head.b", (3,))]
SNAPSHOT_LAYOUTS = {
    ("average", "feature"): SNAPSHOT_ENCODERS + SNAPSHOT_HEAD,
    ("gated", "feature"): SNAPSHOT_ENCODERS + [("fusion.W_G", (12, 12)), ("fusion.b", (12,))]
    + SNAPSHOT_HEAD,
    ("cross", "feature"): SNAPSHOT_ENCODERS + [
        ("fusion.token", (4,)), ("fusion.positional", (4, 4)), ("fusion.blocks.0.W_Q", (4, 4)),
        ("fusion.blocks.0.W_K", (4, 4)), ("fusion.blocks.0.W_V", (4, 4))] + SNAPSHOT_HEAD,
    ("memory", "feature"): SNAPSHOT_ENCODERS + [
        ("fusion.forward_cells.0.W", (6, 8)), ("fusion.forward_cells.0.b", (8,)),
        ("fusion.forward_cells.1.W", (6, 8)), ("fusion.forward_cells.1.b", (8,)),
        ("fusion.backward_cells.0.W", (6, 8)), ("fusion.backward_cells.0.b", (8,)),
        ("fusion.backward_cells.1.W", (6, 8)), ("fusion.backward_cells.1.b", (8,))]
    + SNAPSHOT_HEAD,
    ("concat", "feature"): SNAPSHOT_ENCODERS + [("head.W", (12, 3)), ("head.b", (3,))],
    ("concat", "input"): [
        ("encoder.affines.0.W", (17, 4)), ("encoder.affines.0.b", (4,)),
        ("encoder.affines.1.W", (4, 4)), ("encoder.affines.1.b", (4,)),
        ("encoder.norm.gain", (4,)), ("encoder.norm.shift", (4,))] + SNAPSHOT_HEAD,
}


@pytest.mark.parametrize("kind, level", list(SNAPSHOT_LAYOUTS))
def test_snapshot_layout_is_pinned(kind, level):
    specs = [ViewSpec(id="t", kind="temporal", time_steps=5, channels=2),
             ViewSpec(id="s", kind="static", channels=3),
             ViewSpec(id="c", kind="categorical", cardinality=4)]
    model = build_model(specs, EncoderConfig(latent_dim=4, layers=2, conv_kernel=3),
                        FusionConfig(kind=kind, heads=2), "classification", 3, level,
                        np.random.default_rng(0))
    layout = [(name, p.shape) for name, p in model.named_parameters()]
    assert layout == SNAPSHOT_LAYOUTS[kind, level]


def test_unknown_level_rejected():
    ds = tiny_dataset(n=10)
    with pytest.raises(ValueError, match="unknown level 'output'"):
        FeatureFusionModel(ds.view_specs, EncoderConfig(latent_dim=4), FusionConfig(),
                           ds.task, ds.n_outputs, np.random.default_rng(0), level="output")


def save_with_parameter(tmp_path, name, value):
    """Snapshot a small model into ``tmp_path`` with one parameter overwritten;
    returns the data it fits."""
    ds = tiny_dataset(n=10)
    enc_cfg = EncoderConfig(latent_dim=8, layers=1, dropout=0.0)
    fusion_cfg = FusionConfig(kind="average", heads=2, dropout=0.0)
    model = build_model(ds.view_specs, enc_cfg, fusion_cfg, ds.task, ds.n_outputs,
                        "feature", np.random.default_rng(0))
    save_model(model, enc_cfg, fusion_cfg, tmp_path)
    arrays = dict(np.load(tmp_path / "model.npz"))
    arrays[name] = value(arrays[name])
    np.savez(tmp_path / "model.npz", **arrays)
    return ds


def test_load_model_rejects_wrong_parameter_shape(tmp_path):
    ds = save_with_parameter(tmp_path, "encoders.1.affines.0.W", lambda w: np.zeros(1))
    with pytest.raises(ValueError, match=r"encoders\.1\.affines\.0\.W.*\(1,\).*\(3, 8\)"):
        load_model(tmp_path, ds)


@pytest.mark.parametrize("edit, missing, extra", [
    (lambda arrays: arrays.update(zeta=np.zeros(2), alpha=np.zeros(1)), [], ["alpha", "zeta"]),
    (lambda arrays: [arrays.pop(n) for n in ("head.b", "head.W")], ["head.W", "head.b"], [])],
    ids=["extra", "missing"])
def test_load_model_rejects_a_different_parameter_set(tmp_path, edit, missing, extra):
    ds = save_with_parameter(tmp_path, "head.W", lambda w: w)
    arrays = dict(np.load(tmp_path / "model.npz"))
    edit(arrays)
    np.savez(tmp_path / "model.npz", **arrays)
    with pytest.raises(ValueError) as info:
        load_model(tmp_path, ds)
    assert str(info.value) == (f"{tmp_path / 'model.npz'} does not match the architecture: "
                               f"missing {missing}, extra {extra}")


def test_load_model_rejects_non_finite_parameter(tmp_path):
    ds = save_with_parameter(tmp_path, "head.W", lambda w: np.full_like(w, np.nan))
    with pytest.raises(ValueError, match=r"head\.W has non-finite values"):
        load_model(tmp_path, ds)


def test_load_model_stores_float64_parameters(tmp_path):
    ds = save_with_parameter(tmp_path, "head.W", lambda w: w.astype(np.float32))
    stored = np.load(tmp_path / "model.npz")["head.W"]
    model = load_model(tmp_path, ds)
    assert model.head.W.data.dtype == np.float64
    np.testing.assert_array_equal(model.head.W.data, stored)

@pytest.mark.parametrize("task", ["classification", "regression"])
def test_nan_parameter_fails_training_naming_the_op(task):
    ds = tiny_dataset(task=task, n=20)
    model = tiny_model(ds)
    model.head.W.data = np.full_like(model.head.W.data, np.nan)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"backward root is not finite: .*op 'window_affine'"):
        train_step(model, ds.views, ds.y, AugPolicy(kind="com"), enumerate_combinations(2),
                   Adam(model.parameters()), ds.task, None, rng, rng)


def test_nan_parameter_fails_training_naming_the_epoch_and_step():
    ds = tiny_dataset(n=20)
    model = tiny_model(ds)
    model.head.W.data = np.full_like(model.head.W.data, np.nan)
    with pytest.raises(ValueError, match=r"^epoch 1, step 1: backward root is not finite: "
                                         r".*op 'window_affine'") as info:
        train_model(model, ds, ds, AugPolicy(kind="com"), TrainConfig(batch_size=10))
    assert isinstance(info.value.__cause__, ValueError)
    ds_val = copy.deepcopy(ds)
    ds_val.views["b"][:] = np.nan
    with pytest.raises(ValueError, match=r"^epoch 1, validation: tensor values must be finite$"):
        train_model(tiny_model(ds), ds, ds_val, AugPolicy(kind="com"), TrainConfig(batch_size=10))


def test_non_finite_gradient_fails_training_naming_the_parameter(monkeypatch):
    ds = tiny_dataset(n=20)
    model = tiny_model(ds, kind="gated")
    backward = Tensor.backward

    def backward_then_overflow(self):
        backward(self)
        model.fusion.W_G.grad = np.full_like(model.fusion.W_G.data, np.inf)

    monkeypatch.setattr(Tensor, "backward", backward_then_overflow)
    before = [p.data.copy() for p in model.parameters()]
    with pytest.raises(ValueError, match=r"^epoch 1, step 1: gradient of fusion\.W_G "
                                         r"\(shape \(16, 16\)\) is not finite$"):
        train_model(model, ds, ds, AugPolicy(kind="com"), TrainConfig(batch_size=10))
    assert all(np.array_equal(p.data, b) for p, b in zip(model.parameters(), before))


def test_nan_parameter_fails_predict_and_validation_naming_the_op():
    ds = tiny_dataset(n=20)
    model = tiny_model(ds)
    model.head.W.data = np.full_like(model.head.W.data, np.nan)
    with pytest.raises(ValueError, match=r"prediction under views \('a', 'b'\) is not "
                                         r"finite: .*op 'window_affine'"):
        model.predict(ds.views, np.ones((20, 2), dtype=bool))
    with pytest.raises(ValueError, match=r"validation output under views \('a', 'b'\) is "
                                         r"not finite: .*op 'window_affine'"):
        validation_losses(model, ds, [(0, 1)])


def save_with_architecture(tmp_path, edit):
    """Snapshot a small model into ``tmp_path`` with ``edit`` applied to
    model.json; returns the data it fits."""
    ds = save_with_parameter(tmp_path, "head.W", lambda w: w)
    arch = json.loads((tmp_path / "model.json").read_text())
    edit(arch)
    (tmp_path / "model.json").write_text(json.dumps(arch))
    return ds


@pytest.mark.parametrize("key", ["views", "encoder", "fusion", "task", "n_outputs", "level"])
def test_load_model_names_a_missing_architecture_key(tmp_path, key):
    ds = save_with_architecture(tmp_path, lambda arch: arch.pop(key))
    with pytest.raises(ValueError) as err:
        load_model(tmp_path, ds)
    assert str(err.value) == f"{tmp_path / 'model.json'}: missing required key '{key}'"


@pytest.mark.parametrize("edit, words", [
    (lambda arch: arch["views"][1].update(colour="red"), "unknown key(s) in views[1]: colour"),
    (lambda arch: arch["views"][0].pop("id"), "views[0] is missing required key 'id'"),
    (lambda arch: arch["encoder"].update(width=3), "unknown key(s) in encoder: width"),
    (lambda arch: arch["fusion"].update(depth=2), "unknown key(s) in fusion: depth"),
    (lambda arch: arch["encoder"].update(layers=arch["encoder"].pop("encoder_layers"),
                                         dropout=arch["encoder"].pop("encoder_dropout")),
     "unknown key(s) in encoder: dropout, layers"),
    (lambda arch: arch["views"][0].update(kind="audio"),
     "invalid views[0]: unknown view kind 'audio'")],
    ids=["view-unknown", "view-missing", "encoder-unknown", "fusion-unknown",
         "encoder-old-names", "view-kind"])
def test_load_model_names_a_bad_section_field(tmp_path, edit, words):
    ds = save_with_architecture(tmp_path, edit)
    with pytest.raises(ValueError) as err:
        load_model(tmp_path, ds)
    assert str(err.value) == f"{tmp_path / 'model.json'}: {words}"


def test_snapshot_that_does_not_fit_fails_before_building(tmp_path, monkeypatch):
    ds = save_with_architecture(tmp_path, lambda arch: arch.update(n_outputs=4))

    def build_model_spy(*args):
        raise AssertionError("build_model ran")

    monkeypatch.setattr(model_mod, "build_model", build_model_spy)
    with pytest.raises(ValueError) as err:
        load_model(tmp_path, ds)
    assert str(err.value) == (f"snapshot {tmp_path} does not fit the data: "
                              "its head width is 4, the data's is 3")


def test_oversized_snapshot_is_rejected_without_allocating_its_weights(tmp_path):
    # model.json edited to sizes whose weights would take about 127 MB; the
    # archive's small arrays are rejected before any of them is allocated
    ds = tiny_dataset(n=10)
    enc_cfg = EncoderConfig(latent_dim=8, layers=1)
    fusion_cfg = FusionConfig(kind="cross", heads=2)
    save_model(build_model(ds.view_specs, enc_cfg, fusion_cfg, ds.task, ds.n_outputs, "feature",
                           np.random.default_rng(3)), enc_cfg, fusion_cfg, tmp_path)
    arch = json.loads((tmp_path / "model.json").read_text())
    arch["encoder"].update(encoder_layers=4, latent_dim=1024)
    (tmp_path / "model.json").write_text(json.dumps(arch))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="does not match the architecture: missing "):
            load_model(tmp_path, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def three_kind_views():
    return [ViewSpec(id="a", kind="temporal", time_steps=5, channels=2),
            ViewSpec(id="b", kind="static", channels=3),
            ViewSpec(id="c", kind="categorical", cardinality=3)]


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("kind", FUSION_KINDS)
def test_snapshot_round_trips_through_its_schema(kind, level):
    snap = Snapshot(three_kind_views(), EncoderConfig(latent_dim=8, layers=2, dropout=0.1),
                    FusionConfig(kind=kind, heads=2), "regression", 1, level)
    echoed = json.loads(json.dumps(resolved_dict(snap)))
    assert set(echoed["encoder"]) == {"latent_dim", "encoder_layers", "encoder_dropout",
                                      "conv_kernel"}
    assert _build(Snapshot, echoed, "") == snap


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("kind", FUSION_KINDS)
def test_loaded_model_predicts_bit_identically(tmp_path, kind, level):
    cfg = SyntheticConfig(
        n_samples=12, latent_dim=4, classes=3, seed=4,
        views=[SyntheticViewConfig(id=s.id, kind=s.kind, time_steps=s.time_steps,
                                   channels=s.channels, cardinality=s.cardinality)
               for s in three_kind_views()])
    ds = generate_synthetic(cfg)
    enc_cfg = EncoderConfig(latent_dim=8, layers=1, dropout=0.0)
    fusion_cfg = FusionConfig(kind=kind, heads=2, dropout=0.0)
    saved = build_model(ds.view_specs, enc_cfg, fusion_cfg, ds.task, ds.n_outputs, level,
                        np.random.default_rng(3))
    save_model(saved, enc_cfg, fusion_cfg, tmp_path)
    loaded = load_model(tmp_path, ds)
    assert type(loaded) is type(saved) and loaded.level == saved.level
    available = np.random.default_rng(5).random((12, 3)) < 0.6
    available[~available.any(axis=1), 0] = True
    np.testing.assert_array_equal(loaded.predict(ds.views, available),
                                  saved.predict(ds.views, available))


def test_failed_save_leaves_no_partial_snapshot(tmp_path, monkeypatch):
    ds = tiny_dataset(n=10)
    enc_cfg = EncoderConfig(latent_dim=8, layers=1, dropout=0.0)
    fusion_cfg = FusionConfig(kind="average", heads=2, dropout=0.0)
    old, new = (build_model(ds.view_specs, enc_cfg, fusion_cfg, ds.task, ds.n_outputs,
                            "feature", np.random.default_rng(seed)) for seed in (0, 1))
    save_model(old, enc_cfg, fusion_cfg, tmp_path / "snap")

    def savez_that_fails_partway(fh, **arrays):
        fh.write(b"PK\x03\x04 truncated")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_that_fails_partway)
    for out in (tmp_path / "snap", tmp_path / "fresh"):
        with pytest.raises(OSError, match="disk full"):
            save_model(new, enc_cfg, fusion_cfg, out)
    monkeypatch.undo()
    assert list((tmp_path / "fresh").iterdir()) == []
    assert sorted(p.name for p in (tmp_path / "snap").iterdir()) == ["model.json", "model.npz"]
    loaded = dict(load_model(tmp_path / "snap", ds).named_parameters())
    for name, p in old.named_parameters():
        np.testing.assert_array_equal(loaded[name].data, p.data)


class TestEarlyStopper:
    def test_flat_sequence_stops_at_one_plus_patience(self):
        stopper = EarlyStopper(patience=5)
        epochs_run = 0
        for epoch in range(1, 100):
            epochs_run = epoch
            _, stop = stopper.update(1.0)
            if stop:
                break
        assert epochs_run == 6  # 1 + patience

    def test_strictly_decreasing_never_stops(self):
        stopper = EarlyStopper(patience=5)
        for epoch in range(1, 21):
            improved, stop = stopper.update(1.0 / epoch)
            assert improved and not stop

    def test_recovery_resets_counter(self):
        stopper = EarlyStopper(patience=2)
        for value in [1.0, 1.0, 0.5, 0.5]:
            _, stop = stopper.update(value)
            assert not stop
        _, stop = stopper.update(0.5)
        assert stop


class TestTrainModel:
    def split(self, ds):
        return ds.subset(np.arange(40)), ds.subset(np.arange(40, 60))

    def test_flat_validation_stops_after_patience(self):
        # zero learning rate freezes the model, so validation loss is constant
        ds_train, ds_val = self.split(tiny_dataset())
        model = tiny_model(ds_train)
        cfg = TrainConfig(batch_size=20, lr=0.0, max_epochs=50, patience=3, seed=0)
        result = train_model(model, ds_train, ds_val, AugPolicy(kind="none"), cfg)
        assert len(result.log) == 4  # 1 + patience

    def test_runs_all_epochs_when_improving(self):
        ds_train, ds_val = self.split(tiny_dataset())
        model = tiny_model(ds_train)
        cfg = TrainConfig(batch_size=20, lr=3e-3, max_epochs=6, patience=6, seed=0)
        result = train_model(model, ds_train, ds_val, AugPolicy(kind="com"), cfg)
        assert len(result.log) == 6
        assert "val_loss_combos" in result.log[0]
        assert len(result.log[0]["val_loss_combos"]) == 3

    def test_fixed_seed_reproduces_parameters_bitwise(self):
        ds_train, ds_val = self.split(tiny_dataset())

        def run():
            model = tiny_model(ds_train, dropout=0.2, seed=11)
            cfg = TrainConfig(batch_size=16, lr=1e-3, max_epochs=3, patience=5, seed=9)
            train_model(model, ds_train, ds_val, AugPolicy(kind="com"), cfg)
            return [p.data.copy() for p in model.parameters()]

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)

    def test_best_snapshot_restored(self):
        ds_train, ds_val = self.split(tiny_dataset())
        model = tiny_model(ds_train)
        cfg = TrainConfig(batch_size=20, lr=5e-2, max_epochs=8, patience=2, seed=1)
        result = train_model(model, ds_train, ds_val, AugPolicy(kind="none"), cfg)
        from mvfuse.training import validation_losses
        final_val = validation_losses(model, ds_val, [(0, 1)])[(0, 1)]
        assert abs(final_val - result.best_val_loss) < 1e-12
