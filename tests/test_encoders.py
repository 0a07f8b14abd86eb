"""Encoders: shape contracts, normalization, one-hot routing."""

import numpy as np
import pytest

from mvfuse.encoders import (EncoderConfig, StaticEncoder, TemporalEncoder, ViewSpec,
                             make_encoder, one_hot_batch)
from mvfuse.tensor import Tensor

CFG = EncoderConfig(latent_dim=12, layers=2, dropout=0.2)


class TestTemporalEncoder:
    @pytest.mark.parametrize("T", [1, 4, 9])
    def test_output_width_independent_of_length(self, T):
        enc = TemporalEncoder(3, CFG, np.random.default_rng(0))
        out = enc(Tensor(np.random.default_rng(1).normal(size=(T, 3))))
        assert out.shape == (12,)

    def test_batched_output_shape(self):
        enc = TemporalEncoder(2, CFG, np.random.default_rng(0))
        out = enc(Tensor(np.random.default_rng(1).normal(size=(5, 7, 2))))
        assert out.shape == (5, 12)

    def test_normalized_before_gain_and_shift(self):
        # default gain 1 and shift 0, so the output itself carries the stats
        enc = TemporalEncoder(2, CFG, np.random.default_rng(3))
        out = enc(Tensor(np.random.default_rng(4).normal(size=(4, 6, 2)))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-9)

    def test_constant_series_time_permutation_invariant(self):
        # a constant series through constant kernels pools to the same vector
        enc = TemporalEncoder(1, EncoderConfig(latent_dim=8, layers=1), np.random.default_rng(0))
        enc.convs[0].W.data = np.full_like(enc.convs[0].W.data, 0.25)
        series = np.full((6, 1), 1.7)
        permuted = series[np.random.default_rng(1).permutation(6)]
        a = enc(Tensor(series)).data
        b = enc(Tensor(permuted)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_constant_kernel_pooling_matches_hand_oracle(self):
        cfg = EncoderConfig(latent_dim=8, layers=1, dropout=0.0)
        enc = TemporalEncoder(1, cfg, np.random.default_rng(0))
        enc.convs[0].W.data = np.full((3, 1, 8), 0.5)
        enc.convs[0].b.data = np.zeros(8)
        T, c_val = 5, 2.0
        series = np.full((T, 1), c_val)
        # same padding: interior steps see 3 taps, the two edges see 2
        per_step = np.array([2, 3, 3, 3, 2]) * 0.5 * c_val
        pooled = np.full(8, per_step.mean())
        pooled_norm = (pooled - pooled.mean())  # constant vector -> zeros -> shift
        out = enc(Tensor(series)).data
        np.testing.assert_allclose(out, pooled_norm, atol=1e-9)

    def test_empty_series_rejected(self):
        enc = TemporalEncoder(2, CFG, np.random.default_rng(0))
        with pytest.raises(ValueError, match="conv1d needs at least one time step"):
            enc(Tensor(np.zeros((0, 2))))


class TestStaticEncoder:
    @pytest.mark.parametrize("c", [2, 5, 17])
    def test_output_width_for_any_input_width(self, c):
        enc = StaticEncoder(c, CFG, np.random.default_rng(0))
        out = enc(Tensor(np.random.default_rng(1).normal(size=(4, c))))
        assert out.shape == (4, 12)

    def test_zero_weights_reduce_to_normalized_bias_path(self):
        enc = StaticEncoder(5, CFG, np.random.default_rng(2))
        for aff in enc.affines:
            aff.W.data = np.zeros_like(aff.W.data)
        bias = np.random.default_rng(3).normal(size=12)
        enc.affines[-1].b.data = bias.copy()
        hidden = np.maximum(bias, 0.0)
        mu, var = hidden.mean(), hidden.var()
        expected = (hidden - mu) / np.sqrt(var + 1e-12)
        out = enc(Tensor(np.random.default_rng(4).normal(size=(3, 5)))).data
        np.testing.assert_allclose(out, np.tile(expected, (3, 1)), atol=1e-9)

    def test_seeded_case_matches_layer_by_layer_oracle(self):
        rng = np.random.default_rng(7)
        cfg = EncoderConfig(latent_dim=6, layers=2, dropout=0.0)
        enc = StaticEncoder(4, cfg, rng)
        x = np.random.default_rng(8).normal(size=(3, 4))
        h = x
        for aff in enc.affines:
            h = np.maximum(h @ aff.W.data + aff.b.data, 0.0)
        mu = h.mean(axis=-1, keepdims=True)
        var = h.var(axis=-1, keepdims=True)
        expected = (h - mu) / np.sqrt(var + 1e-12)
        np.testing.assert_allclose(enc(Tensor(x)).data, expected, atol=1e-10)


class TestOneHot:
    def test_examples(self):
        np.testing.assert_array_equal(one_hot_batch(np.array([2]), 4), [[0, 0, 1, 0]])
        np.testing.assert_array_equal(one_hot_batch(np.array([0]), 2), [[1, 0]])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            one_hot_batch(np.array([5]), 4)
        with pytest.raises(ValueError):
            one_hot_batch(np.array([-1]), 4)

    def test_batch_variant(self):
        out = one_hot_batch(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(out, np.eye(3)[[0, 2, 1]])
        with pytest.raises(ValueError):
            one_hot_batch(np.array([3]), 3)


class TestViewSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ViewSpec(id="a", kind="temporal", time_steps=0, channels=2)
        with pytest.raises(ValueError, match="temporal view needs channels >= 1"):
            ViewSpec(id="a", kind="temporal", time_steps=3, channels=0)
        with pytest.raises(ValueError):
            ViewSpec(id="a", kind="categorical", cardinality=1)
        with pytest.raises(ValueError):
            ViewSpec(id="a", kind="spatial")

    @pytest.mark.parametrize("dims, message", [
        ({"kind": "temporal", "time_steps": 3}, "temporal view needs channels >= 1"),
        ({"kind": "static"}, "static view needs channels >= 1"),
        ({"kind": "categorical", "cardinality": None}, "categorical view needs cardinality >= 2"),
        ({"kind": "static", "channels": 2, "time_steps": 7}, "static view takes no time_steps"),
        ({"kind": "static", "channels": 2, "cardinality": 3},
         "static view takes no cardinality"),
        ({"kind": "temporal", "time_steps": 3, "channels": 2, "cardinality": 3},
         "temporal view takes no cardinality"),
        ({"kind": "categorical", "cardinality": 3, "channels": 1},
         "categorical view takes no channels")],
        ids=["temporal-no-channels", "static-no-channels", "categorical-no-cardinality",
             "static-time-steps", "static-cardinality", "temporal-cardinality",
             "categorical-channels"])
    def test_each_kind_takes_its_own_dimensions(self, dims, message):
        with pytest.raises(ValueError) as info:
            ViewSpec(id="a", **dims)
        assert str(info.value) == message

    def test_raw_shapes(self):
        assert ViewSpec(id="a", kind="temporal", time_steps=4, channels=3).raw_shape == (4, 3)
        assert ViewSpec(id="b", kind="static", channels=5).raw_shape == (5,)
        assert ViewSpec(id="c", kind="categorical", cardinality=7).raw_shape == (7,)

    def test_factory_routes_by_kind(self):
        rng = np.random.default_rng(0)
        t = make_encoder(ViewSpec(id="a", kind="temporal", time_steps=3, channels=2), CFG, rng)
        s = make_encoder(ViewSpec(id="b", kind="static", channels=4), CFG, rng)
        c = make_encoder(ViewSpec(id="c", kind="categorical", cardinality=5), CFG, rng)
        assert isinstance(t, TemporalEncoder)
        assert isinstance(s, StaticEncoder)
        assert isinstance(c, StaticEncoder)
        out = c(Tensor(one_hot_batch(np.array([1, 4]), 5)))
        assert out.shape == (2, 12)
