import numpy as np
import pytest

from autotab.budget import TimeBudget
from autotab.data import dataset_from_arrays
from autotab.encoders import EncoderSpec, fit_target_map
from autotab.gbm import GBMParams
from autotab.learners import GBMFolds, GBMView, LinearView, fit_gbm, fit_linear
from autotab.validation import CVScheme, make_folds

from conftest import make_binary, make_multiclass


def _cat_dataset(n=600, seed=0, n_classes=2):
    rng = np.random.default_rng(seed)
    cat = rng.integers(0, 8, size=n).astype(float)
    num = rng.normal(size=n)
    if n_classes == 2:
        probs = (cat / 7.0) * 0.8 + 0.1
        y = (rng.random(n) < probs).astype(np.int64)
        kind = "binary"
    else:
        y = ((cat.astype(int) + rng.integers(0, 2, size=n)) % n_classes)
        kind = "multiclass"
    X = np.column_stack([cat, num])
    return dataset_from_arrays(X, y, kind, feature_names=["c", "x"],
                               category_columns=["c"])


class TestGBMView:
    def test_numeric_passthrough_and_te_column(self):
        ds = _cat_dataset()
        folds = make_folds(CVScheme("kfold", k=4, seed=0), ds)
        view = GBMView().fit(ds, {"c": EncoderSpec("oof_target")})
        assert view.feature_names == ["c__te0", "x"]
        X = view.train_matrix(ds, folds)
        assert X.shape == (600, 2)
        assert np.isfinite(X[:, 0]).all()

    def test_frequency_spec_respected(self):
        ds = _cat_dataset()
        folds = make_folds(CVScheme("kfold", k=4, seed=0), ds)
        view = GBMView().fit(ds, {"c": EncoderSpec("frequency")})
        assert view.feature_names == ["c__freq", "x"]
        X = view.train_matrix(ds, folds)
        codes = ds.columns["c"].values
        counts = np.bincount(codes)
        assert X[:, 0] == pytest.approx(counts[codes].astype(float))

    def test_multiclass_te_one_column_per_class(self):
        ds = _cat_dataset(n_classes=3)
        folds = make_folds(CVScheme("kfold", k=4, seed=0), ds)
        view = GBMView().fit(ds, {"c": EncoderSpec("oof_target")})
        assert view.feature_names[:3] == ["c__te0", "c__te1", "c__te2"]
        assert view.groups["c"] == [0, 1, 2]
        X = view.train_matrix(ds, folds)
        assert X.shape == (600, 4)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_training_encoding_is_the_map_of_the_other_folds(self, n_classes):
        # A training row is encoded by the inference map fitted on the other
        # folds' rows: both paths smooth alike, one column per target row.
        ds = _cat_dataset(n_classes=n_classes)
        k = ds.task.encoding_classes
        folds = make_folds(CVScheme("kfold", k=4, seed=0), ds)
        view = GBMView().fit(ds, {"c": EncoderSpec("oof_target")})
        X = view.train_matrix(ds, folds)
        codes, y = ds.columns["c"].values, ds.target
        assert view.groups["c"] == list(range(3 if n_classes == 3 else 1))
        assert np.array_equal(view.target_maps["c"].means,
                              fit_target_map(codes, y, n_classes=k).means)
        for _, tr, va in folds.iter_splits():
            expect = fit_target_map(codes[tr], y[tr], n_classes=k).apply(codes[va])
            np.testing.assert_allclose(X[va][:, view.groups["c"]], expect, rtol=1e-12)

    def test_transform_handles_unseen_codes(self):
        ds = _cat_dataset()
        view = GBMView().fit(ds, {"c": EncoderSpec("oof_target")})
        ds2 = _cat_dataset(seed=99)
        X2 = view.transform(ds2)
        assert np.isfinite(X2[:, 0]).all()


class TestLinearView:
    def test_onehot_for_low_cardinality(self):
        ds = _cat_dataset()
        folds = make_folds(CVScheme("kfold", k=4, seed=0), ds)
        view = LinearView().fit(ds)
        assert sum(1 for n in view.feature_names if n.startswith("c__oh")) == 8
        X = view.train_matrix(ds, folds)
        onehot_cols = [i for i, n in enumerate(view.feature_names)
                       if n.startswith("c__oh")]
        assert set(np.unique(X[:, onehot_cols])) <= {0.0, 1.0}

    def test_standardized_numeric(self):
        ds = _cat_dataset()
        folds = make_folds(CVScheme("kfold", k=4, seed=0), ds)
        view = LinearView().fit(ds)
        X = view.train_matrix(ds, folds)
        j = view.feature_names.index("x")
        assert abs(X[:, j].mean()) < 1e-9
        assert X[:, j].std() == pytest.approx(1.0)

    def test_high_cardinality_uses_target_encoding(self):
        rng = np.random.default_rng(1)
        cat = rng.integers(0, 150, size=800).astype(float)
        y = rng.integers(0, 2, size=800)
        ds = dataset_from_arrays(cat[:, None], y, "binary",
                                 feature_names=["c"], category_columns=["c"])
        view = LinearView().fit(ds)
        assert view.feature_names == ["c__te0"]


    def test_train_matrix_reuses_the_fit_matrix_bit_identically(self):
        rng = np.random.default_rng(4)
        n = 700
        X = np.column_stack([rng.integers(0, 8, size=n), rng.integers(0, 150, size=n),
                             rng.normal(size=n)]).astype(float)
        X[rng.random(n) < 0.1, 2] = np.nan
        ds = dataset_from_arrays(X, rng.integers(0, 2, size=n), "binary",
                                 feature_names=["lo", "hi", "x"],
                                 category_columns=["lo", "hi"])
        folds = make_folds(CVScheme("kfold", k=4, seed=0), ds)
        view = LinearView().fit(ds)
        assert list(view.onehot) == ["lo"] and list(view.target_maps) == ["hi"]
        assert view.with_indicator == ["x"]
        reused = view.train_matrix(ds, folds)
        built = view.train_matrix(ds, folds)  # nothing left to reuse
        assert np.array_equal(reused, built)
        inference = view.transform(ds)
        te = view.feature_names.index("hi__te0")
        assert not np.array_equal(reused[:, te], inference[:, te])
        others = [j for j in range(len(view.feature_names)) if j != te]
        assert np.array_equal(reused[:, others], inference[:, others])


class TestFitGBMModel:
    def test_oof_and_metric(self):
        ds = _cat_dataset()
        folds = make_folds(CVScheme("stratified_kfold", k=4, seed=0), ds)
        model = fit_gbm(GBMFolds(ds, folds, {"c": EncoderSpec("oof_target")}),
                        GBMParams(n_estimators_cap=60, max_leaves=4,
                                  min_data_in_leaf=20))
        assert model.oof.shape == (600,)
        assert model.oof_mask.all()
        # the Bayes-optimal ordering scores about 0.80 on this draw
        assert model.metric_oof > 0.70

    def test_predict_is_fold_average(self):
        ds = _cat_dataset()
        folds = make_folds(CVScheme("kfold", k=3, seed=0), ds)
        model = fit_gbm(GBMFolds(ds, folds), GBMParams(n_estimators_cap=20))
        X = model.view.transform(ds)
        per_fold = np.array([est.predict(X) for est in model.estimators])
        assert model.predict(ds) == pytest.approx(per_fold.mean(axis=0))

    def test_single_fold_predict_equals_estimator(self):
        ds = _cat_dataset()
        folds = make_folds(CVScheme("holdout", holdout_fraction=0.3, seed=0), ds)
        model = fit_gbm(GBMFolds(ds, folds), GBMParams(n_estimators_cap=20))
        assert len(model.estimators) == 1
        X = model.view.transform(ds)
        assert model.predict(ds) == pytest.approx(model.estimators[0].predict(X))

    def test_two_fold_outputs_average_in_probability_space(self):
        ds = _cat_dataset()
        folds = make_folds(CVScheme("kfold", k=2, seed=0), ds)
        model = fit_gbm(GBMFolds(ds, folds), GBMParams(n_estimators_cap=10))
        X = model.view.transform(ds)
        p0 = model.estimators[0].predict(X)
        p1 = model.estimators[1].predict(X)
        assert model.predict(ds) == pytest.approx((p0 + p1) / 2.0)

    def test_multiclass_rows_sum_to_one(self):
        X, y = make_multiclass(400, 5, 3, 3, seed=2)
        ds = dataset_from_arrays(X, y, "multiclass")
        folds = make_folds(CVScheme("stratified_kfold", k=3, seed=0), ds)
        model = fit_gbm(GBMFolds(ds, folds), GBMParams(n_estimators_cap=15))
        preds = model.predict(ds)
        assert np.abs(preds.sum(axis=1) - 1.0).max() < 1e-9

    def test_row_order_invariance(self):
        ds = _cat_dataset()
        folds = make_folds(CVScheme("kfold", k=3, seed=0), ds)
        model = fit_gbm(GBMFolds(ds, folds), GBMParams(n_estimators_cap=15))
        preds = model.predict(ds)
        perm = np.random.default_rng(3).permutation(ds.n_rows)
        X = np.column_stack([ds.columns["c"].values.astype(float),
                             ds.columns["x"].values])
        ds2 = dataset_from_arrays(X[perm], ds.target[perm], "binary",
                                  feature_names=["c", "x"], category_columns=["c"])
        assert model.predict(ds2) == pytest.approx(preds[perm])

    def test_budget_split_across_folds(self):
        X, y = make_binary(4000, 10, 5, seed=4)
        ds = dataset_from_arrays(X, y, "binary")
        folds = make_folds(CVScheme("kfold", k=4, seed=0), ds)
        # patience as large as the cap: only the budget can end the fit early
        model = fit_gbm(GBMFolds(ds, folds), GBMParams(n_estimators_cap=2000),
                        budget=TimeBudget(0.5), patience=2000)
        assert model.truncated
        assert len(model.estimators) == 4


class TestFitLinearModel:
    def test_holdout_oof_contains_nan_outside(self):
        ds = _cat_dataset()
        folds = make_folds(CVScheme("holdout", holdout_fraction=0.25, seed=0), ds)
        model = fit_linear(ds, folds)
        assert np.isnan(model.oof[~model.oof_mask]).all()
        assert np.isfinite(model.oof[model.oof_mask]).all()
