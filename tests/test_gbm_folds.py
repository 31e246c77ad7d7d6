"""GBMFolds: one encoding and one binning per fold, shared by every booster
of a run, with results equal to binning each booster's columns from scratch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotab import learners
from autotab.data import dataset_from_arrays
from autotab.gbm import BinMapper, GBMEstimator, GBMParams, fit_booster
from autotab.gbm import boosting
from autotab.learners import GBMFolds
from autotab.metrics import MetricSpec
from autotab.pipeline import PresetConfig, fit_preset
from autotab.validation import CVScheme, make_folds

from conftest import make_binary


def _dataset(task_kind: str, seed: int):
    """Four numeric columns (one with NaN) and one category column, which
    target-encodes to one column for binary and three for multiclass."""
    rng = np.random.default_rng(seed)
    n = 240
    X = rng.normal(size=(n, 5))
    X[:, 4] = rng.integers(0, 6, size=n)
    X[rng.random(n) < 0.15, 1] = np.nan
    score = X[:, 0] + 0.5 * X[:, 4] + rng.normal(size=n)
    if task_kind == "binary":
        y = (score > np.median(score)).astype(np.int64)
    else:
        y = np.digitize(score, np.quantile(score, [1 / 3, 2 / 3]))
    return dataset_from_arrays(X, y, task_kind, category_columns=["f4"])


def _assert_same_booster(a, b, X_va):
    assert a.eval_history == b.eval_history and a.best_iteration == b.best_iteration
    ea, eb = a.estimator, b.estimator
    assert np.array_equal(ea.forest.offsets, eb.forest.offsets)
    for fa, fb in zip(ea.forest.fields, eb.forest.fields, strict=True):
        assert fa.dtype == fb.dtype and fa.tobytes() == fb.tobytes()
    assert ea.predict(X_va).tobytes() == eb.predict(X_va).tobytes()


@settings(max_examples=30, deadline=None)
@given(task_kind=st.sampled_from(["binary", "multiclass"]),
       flavor=st.sampled_from(["leaf_wise", "symmetric_depth_wise"]),
       validate=st.booleans(), fold=st.integers(0, 2), seed=st.integers(0, 3),
       picks=st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True))
def test_shared_booster_equals_binning_its_columns_from_scratch(
        task_kind, flavor, validate, fold, seed, picks):
    ds = _dataset(task_kind, seed)
    data = GBMFolds(ds, make_folds(CVScheme("kfold", k=3, seed=seed), ds))
    cols = [c for c in picks if c < data.X.shape[1]] or [0]  # any order
    params = GBMParams(n_estimators_cap=8, max_leaves=6, max_depth=3, subsample=0.8,
                       colsample=0.7, min_data_in_leaf=3, flavor=flavor)
    tr, va = data.splits[fold]
    X, y = data.X, ds.target
    n_classes = ds.task.n_classes
    metric = MetricSpec("roc_auc" if task_kind == "binary" else "neg_logloss")
    val = dict(X_val=X[va][:, cols], y_val=y[va], metric=metric) if validate else {}
    shared = fit_booster(params=params, seed=seed, patience=3,
                         **data.inputs(fold, cols, validate))
    raw = fit_booster(X[tr][:, cols], y[tr], params, task_kind, n_classes, seed=seed,
                      patience=3, **val)
    _assert_same_booster(shared, raw, X[va][:, cols])


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6), st.integers(0, 10))
def test_take_equals_fitting_the_columns(cols, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, 6)).round(seed % 3)  # few distinct values, or many
    X[rng.random(X.shape) < 0.1] = np.nan
    X[:, 5] = np.nan  # a column with no finite value
    taken = BinMapper().fit(X).take(cols).edges
    fitted = BinMapper().fit(X[:, cols]).edges
    assert len(taken) == len(fitted)
    for a, b in zip(taken, fitted):
        assert a.tobytes() == b.tobytes()


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_fit_preset_bins_each_fold_once_per_feature_set(monkeypatch):
    """Two folds, cutoff selection, both expert phases and the stack, no
    tuning: the run's data is binned once per fold and the stack's once per
    fold, 4 mapper fits where each booster used to fit its own (7). The
    expert phases on the selected subset take their view from the run's:
    2 view fits, the run's and the stack's. One fold worker or two, none of
    it is built twice."""
    X, y = make_binary(600, 6, 3, seed=2)
    ds = dataset_from_arrays(X, y, "binary")
    bin_fits = _count_calls(monkeypatch, BinMapper, "fit")
    views = _count_calls(monkeypatch, learners.GBMView, "fit")
    boosters = _count_calls(monkeypatch, learners, "fit_booster")
    for threads in ("1", "2"):
        monkeypatch.setenv("LAMA_THREADS", threads)
        for calls in (bin_fits, views, boosters):
            calls.clear()
        model = fit_preset(ds, PresetConfig(cv=CVScheme("stratified_kfold", k=2, seed=0),
                                            tuning_enabled=False, stack_policy="always",
                                            selection_strategy="cutoff",
                                            budget_seconds=3600.0, seed=3))
        assert [m.learner_tag for m in model.level1] == [
            "linear", "gbm_leaf_expert", "gbm_sym_expert"]
        assert len(boosters) == 6  # two folds for each expert phase and the stack's GBM
        assert len(bin_fits) == 4
        assert len(model.selected) < X.shape[1] and len(views) == 2


def test_fit_preset_without_gbm_work_builds_no_gbm_data(monkeypatch):
    X, y = make_binary(400, 5, 3, seed=4)
    ds = dataset_from_arrays(X, y, "binary")
    views = _count_calls(monkeypatch, learners.GBMView, "fit")
    bin_fits = _count_calls(monkeypatch, BinMapper, "fit")
    fit_preset(ds, PresetConfig(use_gbm_leaf=False, use_gbm_sym=False,
                                selection_strategy="none", stack_policy="never",
                                budget_seconds=3600.0, seed=1))
    assert views == [] and bin_fits == []


@pytest.mark.parametrize("selected", [None, ["f0", "f1", "f2", "f3", "f4"], ["f3", "f0"]])
def test_fit_gbm_view_matches_its_columns(selected):
    """A phase on every feature reuses the run's view; on a subset it takes
    the subset's view from it, whose columns are the ones its boosters saw."""
    ds = _dataset("multiclass", 0)
    data = GBMFolds(ds, make_folds(CVScheme("kfold", k=2, seed=0), ds))
    model = learners.fit_gbm(data, GBMParams(n_estimators_cap=5, max_leaves=4),
                             selected=selected)
    assert (model.view is data.view) == (selected != ["f3", "f0"])
    cols = data.columns(selected)
    assert model.view.feature_names == [data.view.feature_names[c] for c in cols]
    assert np.array_equal(model.view.transform(ds), data.view.transform(ds)[:, cols],
                          equal_nan=True)


@pytest.mark.parametrize("flavor", ["leaf_wise", "symmetric_depth_wise"])
def test_fit_gbm_routes_no_rows_and_looks_up_kept_thresholds_only(monkeypatch, flavor):
    """The OOF predictions are the boosters' own validation scores: fit_gbm
    predicts nothing, and raw thresholds are looked up for the splits of
    the trees that early stopping kept, not for every grown tree. The OOF
    predictions equal predicting the validation rows bit for bit."""
    ds = _dataset("multiclass", 1)
    data = GBMFolds(ds, make_folds(CVScheme("kfold", k=3, seed=0), ds))
    selected = ["f3", "f0", "f4"]
    predicts = _count_calls(monkeypatch, GBMEstimator, "predict")
    lookups = _count_calls(monkeypatch, BinMapper, "raw_threshold")
    grown = _count_calls(monkeypatch, boosting,
                         "grow_leafwise" if flavor == "leaf_wise" else "grow_oblivious")
    params = GBMParams(learning_rate=0.5, n_estimators_cap=60, max_leaves=8, max_depth=3,
                       subsample=0.8, colsample=0.7, flavor=flavor)
    model = learners.fit_gbm(data, params, selected=selected, patience=3)
    assert predicts == []
    forests = [est.forest for est in model.estimators]
    splits = sum(int((t.feature >= 0).sum()) for forest in forests for t in forest)
    assert len(lookups) == splits
    assert len(grown) > sum(len(forest) for forest in forests)  # early stopping dropped some
    X = data.X[:, data.columns(selected)]
    for est, (_, va) in zip(model.estimators, data.splits):
        assert model.oof[va].tobytes() == est.predict(X[va]).tobytes()
