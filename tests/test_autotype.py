import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotab.autotype import (TYPING_Q, apply_typing, infer_feature_kind,
                              select_category_encoding)
from autotab.data import dataset_from_arrays
from autotab.encoders import freq_encode, norm_gini, oof_target_encode, target_rows
from autotab.validation import CVScheme, make_folds

from oracles import quantile_discretize


def _folds_for(ds, k=5, seed=0):
    return make_folds(CVScheme("kfold", k=k, seed=seed), ds)


def _report_for(X, y, task="binary", **kwargs):
    ds = dataset_from_arrays(np.asarray(X, dtype=float), np.asarray(y), task, **kwargs)
    folds = _folds_for(ds)
    return infer_feature_kind(ds, folds), ds, folds


def _skewed_informative_column(n, seed):
    """Three integer levels whose order does not track the target means.

    The middle level is rare and sits strictly between two decile edges
    (cumulative band 0.54..0.56), so 10-quantile binning merges it into a
    neighbor and the binned encoding loses part of the signal.
    """
    rng = np.random.default_rng(seed)
    n1 = int(0.54 * n)
    n2 = int(0.02 * n)
    counts = [n1, n2, n - n1 - n2]
    values = np.repeat([1.0, 2.0, 3.0], counts)
    rng.shuffle(values)
    means = {1.0: 0.5, 2.0: 0.9, 3.0: 0.1}
    y = (rng.random(n) < np.vectorize(means.get)(values)).astype(np.int64)
    return values, y


class TestRules:
    def test_unique_ids_stay_numeric_r2(self):
        rng = np.random.default_rng(0)
        ids = np.arange(400, dtype=float)
        y = rng.integers(0, 2, size=400)
        report, _, _ = _report_for(ids[:, None], y)
        (col,) = report.columns
        assert col.is_number
        assert col.fired_rule == "R2"

    def test_binary_flag_numeric_r1(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=300).astype(float)
        y = rng.integers(0, 2, size=300)
        report, _, _ = _report_for(x[:, None], y)
        assert report.columns[0].fired_rule == "R1"
        assert report.columns[0].is_number

    def test_informative_low_cardinality_becomes_category(self):
        values, y = _skewed_informative_column(4000, seed=7)
        report, ds, _ = _report_for(values[:, None], y)
        (col,) = report.columns
        assert not col.is_number
        assert col.fired_rule == "R10"
        # the derived expectation behind the verdict: the target encoding
        # beats the raw ordering by more than the R3 margin
        assert col.ng_target_oof > col.ng_raw + 0.01
        ds2 = apply_typing(ds, report)
        assert ds2.columns["f0"].kind == "category"

    def test_float_literals_stay_numeric_r7(self):
        # informative low-cardinality column, but carrying fractional parts
        values, y = _skewed_informative_column(4000, seed=9)
        report, _, _ = _report_for((values + 0.5)[:, None], y)
        (col,) = report.columns
        assert col.is_number
        assert col.fired_rule == "R7"

    def test_empty_feature_set_empty_report(self):
        ds = dataset_from_arrays(np.zeros((50, 1)), np.arange(50) % 2, "binary",
                                 category_columns=["f0"])
        # the lone column is categorical, so no int/float candidates remain
        ds2 = dataset_from_arrays(np.random.default_rng(0).normal(size=(50, 1)),
                                  np.arange(50) % 2, "binary",
                                  category_columns=["f0"])
        folds = _folds_for(ds2)
        report = infer_feature_kind(ds2, folds)
        assert report.columns == []

    def test_mostly_missing_column_numeric_with_zero_scores(self):
        rng = np.random.default_rng(4)
        x = np.full(500, np.nan)
        x[:3] = [1.0, 2.0, 3.0]
        y = rng.integers(0, 2, size=500)
        report, _, _ = _report_for(x[:, None], y)
        (col,) = report.columns
        assert col.is_number
        assert col.fired_rule == "R9"
        assert (col.ng_raw, col.ng_quantile_oof, col.ng_frequency,
                col.ng_target_oof) == (0, 0, 0, 0)

    def test_determinism(self):
        values, y = _skewed_informative_column(1500, seed=11)
        r1, ds, folds = _report_for(values[:, None], y)
        r2 = infer_feature_kind(ds, folds)
        assert r1.to_json() == r2.to_json()

    def test_multiclass_typing_runs(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 6, size=900).astype(float)
        y = rng.integers(0, 3, size=900)
        ds = dataset_from_arrays(x[:, None], y, "multiclass")
        report = infer_feature_kind(ds, _folds_for(ds))
        assert len(report.columns) == 1
        assert 0.0 <= report.columns[0].ng_target_oof <= 1.0

    def test_report_json_fields(self):
        values, y = _skewed_informative_column(800, seed=13)
        report, _, _ = _report_for(values[:, None], y)
        payload = report.to_json()
        entry = payload["f0"]
        for key in ("ng_raw", "ng_quantile_oof", "ng_frequency", "ng_target_oof",
                    "unique_count", "is_number", "fired_rule"):
            assert key in entry


class TestSelectCategoryEncoding:
    def test_id_like_category_scores_are_noise(self):
        rng = np.random.default_rng(6)
        codes = np.arange(300)
        y = rng.integers(0, 2, size=300)
        ds = dataset_from_arrays(codes[:, None].astype(float), y, "binary",
                                 category_columns=["f0"])
        folds = _folds_for(ds)
        spec = select_category_encoding(ds.columns["f0"].values, ds.target, folds)
        # injective ids: both encodings are pure noise; exact ties break to
        # the target encoder
        assert spec.kind in ("frequency", "oof_target")

    def test_target_separated_category_prefers_target_encoding(self):
        rng = np.random.default_rng(7)
        codes = rng.integers(0, 12, size=2000)
        probs = rng.random(12)[codes]
        y = (rng.random(2000) < probs).astype(np.int64)
        # counts are near-uniform, so frequency carries no signal
        ds = dataset_from_arrays(codes[:, None].astype(float), y, "binary",
                                 category_columns=["f0"])
        folds = _folds_for(ds)
        spec = select_category_encoding(ds.columns["f0"].values, ds.target, folds)
        assert spec.kind == "oof_target"



def _random_table(rng, n, task):
    """Columns of every typing kind, a share of each missing: integer levels,
    rounded floats, distinct floats, signed zeros, a constant and a column
    with a single present value."""
    X = np.column_stack([
        rng.integers(0, rng.integers(2, 12), size=n).astype(float),
        rng.normal(size=n).round(1),
        rng.normal(size=n),
        rng.choice([-0.0, 0.0, 1.0], size=n),
        np.full(n, 3.0),
        np.where(np.arange(n) == 0, 5.0, np.nan),
    ])
    if task == "regression":
        y = (X[:, 0] * X[:, 1] + rng.normal(size=n)).round(rng.integers(0, 3))
    else:
        y = rng.integers(0, 2 if task == "binary" else 4, size=n)
        y[:4] = np.arange(4) % (2 if task == "binary" else 4)  # every class present
    X[rng.random(X.shape) < rng.uniform(0.0, 0.4)] = np.nan
    return X, y


@pytest.mark.parametrize("task", ["regression", "binary", "multiclass"])
@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 160), k=st.integers(2, 5))
def test_scores_equal_norm_gini_on_the_same_encoding(task, seed, n, k):
    """Typing scores from the run's shared target ranks and each column's one
    np.unique; every score must be the public `norm_gini` of the same
    encoding, bit for bit."""
    X, y = _random_table(np.random.default_rng(seed), n, task)
    ds = dataset_from_arrays(X, y, task)
    folds = _folds_for(ds, k=k, seed=seed)
    kind = "multiclass" if task == "multiclass" else None
    n_classes = ds.task.encoding_classes
    for col in infer_feature_kind(ds, folds).columns:
        values = ds.columns[col.name].values
        ok = ~np.isnan(values)
        if col.missing_rate > 0.99 or ok.sum() < 2:
            continue
        x, yy, fold = values[ok], ds.target[ok], folds.fold_of_row[ok]

        def ng_of_oof(enc_col):
            enc = oof_target_encode(enc_col, yy, fold, n_classes=n_classes)
            return max(norm_gini(yc, enc[:, c])
                       for c, yc in enumerate(target_rows(yy, n_classes)))

        expected = (norm_gini(yy, x, kind), ng_of_oof(quantile_discretize(x, TYPING_Q)),
                    norm_gini(yy, freq_encode(x)[1], kind), ng_of_oof(x))
        got = (col.ng_raw, col.ng_quantile_oof, col.ng_frequency, col.ng_target_oof)
        assert [v.hex() for v in got] == [v.hex() for v in expected], col.name
