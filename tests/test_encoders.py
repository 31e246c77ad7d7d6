import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import rankdata

from autotab.encoders import (EncoderSpec, _general_concordance, class_ginis, dense_ranks,
                              fit_target_map, freq_encode, norm_gini, oof_target_encode)
from autotab.errors import DataError

from oracles import (concordance_kendalltau, concordance_pairwise, gini_pairwise,
                     oof_mean_by_hand, quantile_discretize)


def _column(rng, n, levels):
    """n floats with `levels` distinct values (ties), or all distinct at 0."""
    if levels == 0:
        return rng.normal(size=n)
    return rng.choice(rng.normal(size=levels) * 10.0, size=n)


@given(n=st.integers(2, 80), x_levels=st.integers(0, 6), classes=st.integers(2, 5),
       share=st.integers(1, 80), seed=st.integers(0, 2**16))
def test_class_ginis_equal_norm_gini_of_each_indicator(n, x_levels, classes, share, seed):
    """The per-class Gini from x's ranks and one bincount is norm_gini of
    each class indicator bit for bit: ties in x, signed zeros, classes absent
    from the rows, and x ranks with gaps (ranked over a larger table, then
    a subset of rows taken)."""
    rng = np.random.default_rng(seed)
    table = _column(rng, n + 20, x_levels)
    table[rng.random(n + 20) < 0.1] = -0.0
    table[rng.random(n + 20) < 0.1] = 0.0
    x_rank, x_levels_all = dense_ranks(table)
    rows = np.sort(rng.choice(n + 20, size=n, replace=False))
    y = rng.integers(0, max(1, classes * share // 80), size=n)  # some classes absent
    got = class_ginis(y, classes, x_rank[rows], x_levels_all)
    want = [norm_gini((y == c).astype(np.float64), table[rows]) for c in range(classes)]
    assert [v.hex() for v in got] == [v.hex() for v in want]


class TestGeneralConcordance:
    @given(n=st.integers(2, 60), x_levels=st.integers(0, 6), y_levels=st.integers(0, 6),
           seed=st.integers(0, 2**16))
    def test_equals_the_pair_count(self, n, x_levels, y_levels, seed):
        rng = np.random.default_rng(seed)
        x, y = _column(rng, n, x_levels), _column(rng, n, y_levels)
        c_minus_d, p = _general_concordance(y, x)
        assert c_minus_d == concordance_pairwise(y, x)
        assert p == n * (n - 1) // 2 - sum(
            int(np.sum(y[i] == y[i + 1:])) for i in range(n))

    @pytest.mark.parametrize("x_levels,y_levels", [(0, 0), (7, 0), (0, 7), (7, 7),
                                                   (300, 40), (1, 5), (5, 1)])
    def test_equals_the_kendalltau_reconstruction(self, x_levels, y_levels):
        rng = np.random.default_rng(x_levels * 1000 + y_levels)
        for n in (61, 500, 4000):
            x, y = _column(rng, n, x_levels), _column(rng, n, y_levels)
            y = y + 0.05 * x * (n % 2)  # some dependence for odd n
            assert _general_concordance(y, x) == concordance_kendalltau(y, x)

    def test_signed_zeros_are_ties(self):
        x = np.array([-0.0, 0.0, 1.0, -0.0])
        y = np.array([3.0, 1.0, 2.0, 0.0])
        assert _general_concordance(y, x)[0] == concordance_pairwise(y, x)


class TestNormGini:
    def test_perfectly_concordant(self):
        assert norm_gini([0, 0, 1, 1], [1, 2, 3, 4]) == 1.0

    def test_all_x_tied(self):
        assert norm_gini([0, 1, 0, 1], [7, 7, 7, 7]) == 0.0

    def test_derived_pairwise_example(self):
        y = [0, 1, 1, 0, 1]
        x = [0.2, 0.1, 0.9, 0.5, 0.7]
        expected = gini_pairwise(y, x)
        assert expected == pytest.approx(1.0 / 3.0)
        assert norm_gini(y, x) == pytest.approx(expected, abs=1e-12)

    def test_constant_target_scores_zero(self):
        assert norm_gini([1.0, 1.0, 1.0], [1, 2, 3]) == 0.0

    def test_length_mismatch_and_short_input(self):
        with pytest.raises(DataError):
            norm_gini([0, 1], [1, 2, 3])
        with pytest.raises(DataError):
            norm_gini([0], [1])

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            norm_gini([0, 1, 0], [1.0, np.nan, 2.0])

    @pytest.mark.parametrize("target_kind", ["binary", "multiclass", "regression"])
    def test_matches_pairwise_oracle(self, target_kind, rng):
        for _ in range(60):
            n = int(rng.integers(3, 80))
            if target_kind == "binary":
                y = rng.integers(0, 2, size=n).astype(float)
            elif target_kind == "multiclass":
                y = rng.integers(0, 4, size=n).astype(float)
            else:
                y = rng.normal(size=n).round(1)
            x = rng.choice([0.5, 1.5, 2.5, rng.normal()], size=n)
            kind = "multiclass" if target_kind == "multiclass" else None
            assert norm_gini(y, x, kind) == pytest.approx(
                gini_pairwise(y, x, kind), abs=1e-9)

    def test_binary_equals_rankdata_formula_on_ties(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 60))
            y = rng.integers(0, 2, size=n).astype(float)
            x = rng.choice([-0.0, 0.0, 1.5, -2.0, rng.normal()], size=n)
            n1 = int(y.sum())
            p = float(n1) * float(n - n1)
            if p == 0:
                continue
            r1 = float(rankdata(x)[y == 1].sum())
            expected = min(1.0, abs(2.0 * (r1 - n1 * (n1 + 1) / 2.0) - p) / p)
            assert norm_gini(y, x) == expected

    def test_scale_shift_and_negation_invariance(self, rng):
        y = rng.integers(0, 2, size=50).astype(float)
        x = rng.normal(size=50)
        base = norm_gini(y, x)
        assert norm_gini(y, 3.5 * x + 11.0) == pytest.approx(base, abs=1e-12)
        assert norm_gini(y, -x) == pytest.approx(base, abs=1e-12)

    def test_multiclass_is_max_over_indicators(self, rng):
        y = rng.integers(0, 3, size=60)
        x = rng.normal(size=60)
        per_class = [norm_gini((y == c).astype(float), x) for c in range(3)]
        assert norm_gini(y, x, "multiclass") == pytest.approx(max(per_class))


class TestFreqEncode:
    def test_direct_counts(self):
        _, enc = freq_encode(np.array(["a", "a", "b"]))
        assert enc.tolist() == [2.0, 2.0, 1.0]

    def test_all_singletons(self):
        _, enc = freq_encode(np.array(["a", "b", "c"]))
        assert enc.tolist() == [1.0, 1.0, 1.0]

    def test_unseen_maps_to_zero(self):
        mapping, _ = freq_encode(np.array(["a", "a", "b"]))
        assert mapping.apply(np.array(["d"]))[0] == 0.0
        assert mapping.apply(np.array(["a", "d", "b"])).tolist() == [2.0, 0.0, 1.0]


class TestOofTargetEncode:
    def test_single_value_unsmoothed(self):
        enc = oof_target_encode(["u"] * 4, [1, 0, 1, 0], [0, 0, 1, 1], alpha=0.0)
        assert enc.tolist() == [[0.5]] * 4

    def test_two_values_unsmoothed(self):
        enc = oof_target_encode(["u", "v", "u", "v"], [1, 0, 1, 0],
                                [0, 0, 1, 1], alpha=0.0)
        assert enc[:, 0].tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_smoothed_hand_computed(self):
        # out-fold stats for each value are a single row; global mean 0.5
        enc = oof_target_encode(["u", "v", "u", "v"], [1, 0, 1, 0],
                                [0, 0, 1, 1], alpha=2.0)
        assert enc[:, 0] == pytest.approx([2 / 3, 1 / 3, 2 / 3, 1 / 3])

    def test_matches_literal_formula(self, rng):
        for _ in range(30):
            n = int(rng.integers(6, 50))
            col = rng.integers(0, 5, size=n)
            y = rng.random(size=n)
            fold = rng.integers(0, 3, size=n)
            alpha = float(rng.choice([0.0, 1.0, 2.0, 5.0]))
            got = oof_target_encode(col, y, fold, alpha=alpha)
            assert got.shape == (n, 1)
            assert got[:, 0] == pytest.approx(oof_mean_by_hand(col, y, fold, alpha))

    def test_unseen_outside_fold_gets_global_mean(self):
        # value "w" appears only inside fold 0
        enc = oof_target_encode(["w", "w", "u", "u"], [1, 0, 1, 0],
                                [0, 0, 1, 1], alpha=0.0)
        assert enc[:2, 0] == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_no_leakage_of_own_target(self, alpha, rng):
        for _ in range(25):
            n = int(rng.integers(8, 40))
            col = rng.integers(0, 4, size=n)
            y = rng.random(size=n)
            fold = rng.integers(0, 4, size=n)
            i = int(rng.integers(0, n))
            base = oof_target_encode(col, y, fold, alpha=alpha)
            y2 = y.copy()
            y2[i] += 3.0
            changed = oof_target_encode(col, y2, fold, alpha=alpha)
            assert changed[i, 0] == base[i, 0]

    def test_rejects_nonpartition(self):
        with pytest.raises(DataError):
            oof_target_encode([1, 2, 1], [0, 1, 0], [-1, 0, 0])

    def test_multiclass_column_per_class(self):
        enc = oof_target_encode(["a", "a", "b", "b"], [0, 1, 2, 0],
                                [0, 1, 0, 1], alpha=0.0, n_classes=3)
        assert enc.shape == (4, 3)
        # row 0 ("a", fold 0): out-fold "a" is row 1 with class 1
        assert enc[0].tolist() == [0.0, 1.0, 0.0]


class TestTargetMap:
    def test_full_train_statistics_with_smoothing(self):
        mapping = fit_target_map(np.array(["a", "a", "b"]),
                                 np.array([1.0, 0.0, 1.0]), alpha=2.0)
        gm = 2.0 / 3.0
        got = mapping.apply(np.array(["a", "b", "zz"]))
        assert got.shape == (3, 1)
        assert got[:, 0] == pytest.approx([(1.0 + 2 * gm) / 4.0, (1.0 + 2 * gm) / 3.0, gm])

    def test_multiclass_default_is_prior(self):
        mapping = fit_target_map(np.array([0, 0, 1]), np.array([0, 1, 2]),
                                 alpha=1.0, n_classes=3)
        out = mapping.apply(np.array([99]))
        assert out[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3])


@given(n=st.integers(2, 60), levels=st.integers(1, 8), n_classes=st.integers(3, 5),
       k=st.integers(2, 5), seed=st.integers(0, 2**16))
def test_multiclass_column_is_the_indicator_encoding(n, levels, n_classes, k, seed):
    """Column c of a multiclass encoding is, bit for bit, the K = 1 encoding
    of the indicator y == c, both out of fold and through the full map."""
    rng = np.random.default_rng(seed)
    col = rng.integers(0, levels, size=n)
    y = rng.integers(0, n_classes, size=n)
    fold = rng.integers(0, k, size=n)
    probe = np.array([levels, 0, levels - 1])  # one unseen value, two seen
    oof = oof_target_encode(col, y, fold, n_classes=n_classes)
    mapped = fit_target_map(col, y, n_classes=n_classes).apply(probe)
    assert oof.shape == (n, n_classes) and mapped.shape == (3, n_classes)
    for c in range(n_classes):
        yc = (y == c).astype(np.float64)
        assert oof[:, c].tobytes() == oof_target_encode(col, yc, fold)[:, 0].tobytes()
        assert mapped[:, c].tobytes() == fit_target_map(col, yc).apply(probe)[:, 0].tobytes()


class TestQuantileDiscretize:
    def test_median_split(self):
        bins = quantile_discretize(np.arange(1.0, 11.0), 2)
        assert bins.tolist() == [0] * 5 + [1] * 5

    def test_constant_column_single_bin(self):
        bins = quantile_discretize(np.full(6, 3.3), 4)
        assert set(bins.tolist()) == {0}

    def test_heavy_ties_merge_bins(self):
        col = np.array([1.0] * 30 + [2.0] * 30 + [3.0] * 2)
        bins = quantile_discretize(col, 4)
        assert len(set(bins.tolist())) < 4
        # derived from the merge rule: identical values share a bin
        assert len(set(bins[:30].tolist())) == 1

    def test_missing_goes_to_reserved_bin(self):
        bins = quantile_discretize(np.array([1.0, np.nan, 2.0, 3.0]), 2)
        assert bins[1] == -1
        assert (bins[[0, 2, 3]] >= 0).all()

    def test_q_below_two_rejected(self):
        with pytest.raises(DataError):
            quantile_discretize(np.array([1.0, 2.0]), 1)


def test_encoder_spec_validation():
    with pytest.raises(DataError):
        EncoderSpec("nope")
    assert EncoderSpec("frequency").kind == "frequency"
