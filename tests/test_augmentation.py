"""Augmentation generators: combinations, view dropping, time-step dropping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfuse.augmentation import (AugPolicy, enumerate_combinations, pattern_matrix,
                                 sensd_mask, tempd_mask)


def bitmask_oracle(m):
    """Every non-empty subset of range(m) via bit patterns."""
    return {tuple(i for i in range(m) if pattern >> i & 1)
            for pattern in range(1, 2**m)}


class TestEnumerateCombinations:
    def test_three_named_views_match_expected_order(self):
        combos = enumerate_combinations(3)
        assert combos == [(0, 1, 2), (0, 1), (0, 2), (1, 2), (0,), (1,), (2,)]

    def test_single_view(self):
        assert enumerate_combinations(1) == [(0,)]

    def test_four_views_give_fifteen(self):
        assert len(enumerate_combinations(4)) == 15

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_matches_bitmask_oracle(self, m):
        combos = enumerate_combinations(m)
        assert len(combos) == 2**m - 1
        assert set(combos) == bitmask_oracle(m)
        assert len(set(combos)) == len(combos)  # no duplicates
        assert all(len(c) > 0 for c in combos)

    def test_order_is_size_descending_then_lexicographic(self):
        combos = enumerate_combinations(3)
        sizes = [len(c) for c in combos]
        assert sizes == sorted(sizes, reverse=True)
        assert combos[1:4] == [(0, 1), (0, 2), (1, 2)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            enumerate_combinations(0)


def pattern_loop(masks, m):
    """Index-tuple masks as boolean patterns, one mask at a time."""
    patterns = np.zeros((len(masks), m), dtype=bool)
    for k, mask in enumerate(masks):
        patterns[k, list(mask)] = True
    return patterns


@pytest.mark.parametrize("seed", range(4))
def test_pattern_matrix_matches_the_mask_loop(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 8))
    combos = enumerate_combinations(m)
    for count in (0, 1, 5, 40):
        masks = [combos[i] for i in rng.integers(0, len(combos), count)]
        masks += [(int(v),) for v in rng.integers(0, m, count // 4)]  # single views
        got = pattern_matrix(masks, m)
        assert got.dtype == bool and got.shape == (len(masks), m)
        np.testing.assert_array_equal(got, pattern_loop(masks, m))


class TestSensdMask:
    def test_single_view_always_full(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sensd_mask(1, rng) == (0,)

    def test_never_empty_over_many_draws(self):
        rng = np.random.default_rng(1)
        assert all(len(sensd_mask(3, rng)) > 0 for _ in range(10_000))

    def test_two_view_conditional_drop_frequency(self):
        # conditioned on a non-empty mask, each view is dropped with
        # probability (1/4) / (3/4) = 1/3; check within three sigma
        rng = np.random.default_rng(2)
        n = 10_000
        draws = [sensd_mask(2, rng) for _ in range(n)]
        p = 1.0 / 3.0
        sigma = np.sqrt(p * (1 - p) / n)
        for view in range(2):
            dropped = sum(view not in mask for mask in draws) / n
            assert abs(dropped - p) < 3 * sigma

    def test_no_views_rejected(self):
        with pytest.raises(ValueError, match="need at least one view"):
            sensd_mask(0, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        a = [sensd_mask(4, np.random.default_rng(7)) for _ in range(20)]
        b = [sensd_mask(4, np.random.default_rng(7)) for _ in range(20)]
        assert a == b


class TestTempdMask:
    def test_ratio_zero_is_identity(self):
        series = np.random.default_rng(0).normal(size=(6, 2))
        out = tempd_mask(series, 0.0, np.random.default_rng(1))
        np.testing.assert_array_equal(out, series)

    def test_exact_drop_count(self):
        series = np.ones((10, 3))
        out = tempd_mask(series, 0.5, np.random.default_rng(2))
        zero_rows = np.all(out == 0.0, axis=1)
        assert zero_rows.sum() == 5
        np.testing.assert_array_equal(out[~zero_rows], np.ones((5, 3)))

    def test_reproducible_bit_for_bit(self):
        series = np.random.default_rng(3).normal(size=(12, 2))
        a = tempd_mask(series, 0.3, np.random.default_rng(4))
        b = tempd_mask(series, 0.3, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)

    def test_input_untouched(self):
        series = np.ones((8, 2))
        tempd_mask(series, 0.5, np.random.default_rng(5))
        np.testing.assert_array_equal(series, np.ones((8, 2)))

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            tempd_mask(np.ones((4, 1)), 1.0, np.random.default_rng(0))


class TestAugPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AugPolicy(kind="mixup")
        with pytest.raises(ValueError):
            AugPolicy(level="decision")
        with pytest.raises(ValueError):
            AugPolicy(tempd_ratio=1.5)

    def test_defaults(self):
        policy = AugPolicy()
        assert policy.kind == "none"
        assert policy.level == "feature"
        assert policy.tempd_ratio == 0.3
