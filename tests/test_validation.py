import numpy as np
import pytest

from autotab.data import dataset_from_arrays
from autotab.errors import DataError
from autotab.pipeline import PresetConfig, fit_preset
from autotab.validation import CVScheme, FoldAssignment, make_folds, oof_assemble

from conftest import binary_dataset, make_binary, make_multiclass


def _dataset_with_column(values, y, name="g"):
    X = np.column_stack([values, np.arange(len(y), dtype=float)])
    return dataset_from_arrays(X, y, "binary", feature_names=[name, "x"])


class TestSchemes:
    def test_scheme_validation(self):
        with pytest.raises(DataError):
            CVScheme("kfold", k=1)
        with pytest.raises(DataError):
            CVScheme("holdout", holdout_fraction=1.5)
        with pytest.raises(DataError):
            CVScheme("group_kfold")
        with pytest.raises(DataError):
            CVScheme("custom")

    def test_kfold_partitions_evenly(self):
        ds = binary_dataset(n=4)
        folds = make_folds(CVScheme("kfold", k=2, seed=0), ds)
        sizes = np.bincount(folds.fold_of_row)
        assert sizes.tolist() == [2, 2]

    def test_kfold_k_exceeds_rows(self):
        ds = binary_dataset(n=4)
        with pytest.raises(DataError):
            make_folds(CVScheme("kfold", k=9, seed=0), ds)

    def test_stratified_one_positive_per_fold(self):
        X = np.arange(8, dtype=float).reshape(4, 2)
        ds = dataset_from_arrays(X, np.array([0, 0, 1, 1]), "binary")
        folds = make_folds(CVScheme("stratified_kfold", k=2, seed=3), ds)
        y = ds.target
        for f in range(2):
            assert y[folds.fold_of_row == f].sum() == 1

    def test_stratified_small_class_falls_back(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        y = np.array([0] * 9 + [1])
        ds = dataset_from_arrays(X, y, "binary")
        folds = make_folds(CVScheme("stratified_kfold", k=3, seed=0), ds)
        assert folds.warnings

    def test_group_exclusive(self):
        y = np.array([0, 1, 0, 1])
        ds = _dataset_with_column(np.array([1.0, 1.0, 2.0, 2.0]), y)
        folds = make_folds(CVScheme("group_kfold", k=2, group_column="g"), ds)
        assert folds.fold_of_row[0] == folds.fold_of_row[1]
        assert folds.fold_of_row[2] == folds.fold_of_row[3]
        assert folds.fold_of_row[0] != folds.fold_of_row[2]

    def test_group_count_below_k(self):
        y = np.array([0, 1, 0, 1])
        ds = _dataset_with_column(np.ones(4), y)
        with pytest.raises(DataError):
            make_folds(CVScheme("group_kfold", k=2, group_column="g"), ds)

    def test_holdout_semantics(self):
        ds = binary_dataset(n=100)
        folds = make_folds(CVScheme("holdout", holdout_fraction=0.25, seed=1), ds)
        assert (folds.fold_of_row == 0).sum() == 25
        assert (folds.fold_of_row == -1).sum() == 75
        assert folds.oof_mask().sum() == 25

    def test_time_series_expanding_monotone(self):
        times = np.array([5.0, 1.0, 4.0, 2.0, 3.0, 0.0, 6.0, 7.0, 8.0])
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0])
        ds = _dataset_with_column(times, y, name="t")
        folds = make_folds(CVScheme("time_series", k=2, time_column="t"), ds)
        t = times
        for f, tr, va in folds.iter_splits():
            assert t[tr].max() <= t[va].min()
            assert len(tr) > 0 and len(va) > 0

    def test_custom_fold_vector(self):
        ds = binary_dataset(n=6)
        folds = make_folds(CVScheme("custom", fold_of_row=(0, 1, 0, 1, 2, 2)), ds)
        assert folds.k == 3
        assert folds.partitions_rows()

    def test_same_seed_identical(self):
        ds = binary_dataset(n=50)
        a = make_folds(CVScheme("kfold", k=5, seed=7), ds)
        b = make_folds(CVScheme("kfold", k=5, seed=7), ds)
        assert np.array_equal(a.fold_of_row, b.fold_of_row)
        c = make_folds(CVScheme("kfold", k=5, seed=8), ds)
        assert not np.array_equal(a.fold_of_row, c.fold_of_row)

    def test_group_assignment_is_row_order_equivariant(self, rng):
        values = rng.integers(0, 7, size=40).astype(float)
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        ds = _dataset_with_column(values, y)
        folds = make_folds(CVScheme("group_kfold", k=3, group_column="g"), ds)
        perm = rng.permutation(40)
        ds2 = _dataset_with_column(values[perm], y[perm])
        folds2 = make_folds(CVScheme("group_kfold", k=3, group_column="g"), ds2)
        assert np.array_equal(folds2.fold_of_row, folds.fold_of_row[perm])


class TestMissingClass:
    """A fold whose training rows lack a class is reported, not silent."""

    @staticmethod
    def _data(n=120):
        X, y = make_multiclass(n, 4, 3, 2, seed=3)
        y[y == 2] = 1
        y[7] = 2  # the only row of class 2: the fold validating it trains without it
        return X, dataset_from_arrays(X, y, "multiclass")

    def test_plain_kfold_warns_for_the_fold(self):
        _, ds = self._data()
        folds = make_folds(CVScheme("kfold", k=3, seed=0), ds)
        f = int(folds.fold_of_row[7])
        assert folds.warnings == [f"fold {f}: its training rows hold no row of class '2'"]

    def test_every_class_in_every_fold_warns_nothing(self):
        X, y = make_multiclass(120, 4, 3, 2, seed=3)
        ds = dataset_from_arrays(X, y, "multiclass")
        assert make_folds(CVScheme("kfold", k=3, seed=0), ds).warnings == []

    def test_warning_reaches_the_report(self):
        _, ds = self._data()
        model = fit_preset(ds, PresetConfig(cv=CVScheme("kfold", k=3, seed=0),
                                            tuning_enabled=False, selection_strategy="none",
                                            use_gbm_sym=False, stack_policy="never",
                                            budget_seconds=60.0, seed=0))
        assert any("hold no row of class '2'" in w for w in model.report["warnings"])


class TestOofAssemble:
    def test_interleaved_placement(self):
        ds = binary_dataset(n=4)
        folds = FoldAssignment(np.array([1, 1, 0, 0], dtype=np.int32), 2,
                               CVScheme("custom", fold_of_row=(1, 1, 0, 0)))
        out = oof_assemble([np.array([0.2, 0.3]), np.array([0.8, 0.9])], folds)
        assert out.tolist() == [0.8, 0.9, 0.2, 0.3]

    def test_holdout_rows_flagged_absent(self):
        scheme = CVScheme("holdout", holdout_fraction=0.25, seed=0)
        fold = np.array([-1, 0, -1, -1], dtype=np.int32)
        folds = FoldAssignment(fold, 1, scheme)
        out = oof_assemble([np.array([0.7])], folds)
        assert out[1] == 0.7
        assert np.isnan(out[[0, 2, 3]]).all()

    def test_coverage_gap_is_error(self):
        folds = FoldAssignment(np.array([0, 0, 1, 1], dtype=np.int32), 2,
                               CVScheme("custom", fold_of_row=(0, 0, 1, 1)))
        with pytest.raises(DataError):
            oof_assemble([np.array([0.2, 0.3]), np.array([0.8])], folds)
        with pytest.raises(DataError):
            oof_assemble([np.array([0.2, 0.3])], folds)


class TestInvariantSweep:
    def test_random_scheme_draws_hold_invariants(self, rng):
        X, y = make_binary(60, 3, 2, seed=5)
        for trial in range(60):
            kind = rng.choice(["kfold", "stratified_kfold", "group_kfold",
                               "time_series", "holdout"])
            k = int(rng.integers(2, 6))
            seed = int(rng.integers(0, 1000))
            extra = rng.integers(0, 8, size=60).astype(float)
            ds = _dataset_with_column(extra, y)
            if kind == "group_kfold":
                scheme = CVScheme(kind, k=k, group_column="g", seed=seed)
            elif kind == "time_series":
                scheme = CVScheme(kind, k=k, time_column="g", seed=seed)
            elif kind == "holdout":
                scheme = CVScheme(kind, holdout_fraction=float(rng.uniform(0.1, 0.9)),
                                  seed=seed)
            else:
                scheme = CVScheme(kind, k=k, seed=seed)
            folds = make_folds(scheme, ds)
            _assert_fold_invariants(folds, ds)


def _assert_fold_invariants(folds, ds):
    fold = folds.fold_of_row
    kind = folds.scheme.kind
    if kind in ("kfold", "stratified_kfold", "group_kfold"):
        assert fold.min() >= 0
        sizes = np.bincount(fold, minlength=folds.k)
        if kind == "kfold":
            assert sizes.max() - sizes.min() <= 1
        if kind == "stratified_kfold" and not folds.warnings:
            for c in np.unique(ds.target):
                counts = np.bincount(fold[ds.target == c], minlength=folds.k)
                assert counts.max() - counts.min() <= 1
        if kind == "group_kfold":
            groups = ds.columns[folds.scheme.group_column].values
            for g in np.unique(groups):
                assert len(np.unique(fold[groups == g])) == 1
    if kind == "time_series":
        t = ds.columns[folds.scheme.time_column].values
        for f, tr, va in folds.iter_splits():
            assert t[tr].max() <= t[va].min()
    if kind == "holdout":
        assert set(np.unique(fold)) == {-1, 0}
    # every validation fold is non-empty and train/valid never overlap
    for f, tr, va in folds.iter_splits():
        assert len(va) > 0
        assert not set(tr) & set(va)
