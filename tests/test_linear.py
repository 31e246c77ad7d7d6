import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from autotab import learners, linear
from autotab.budget import TimeBudget
from autotab.data import dataset_from_arrays
from autotab.errors import BudgetError, ConfigError
from autotab.learners import fit_linear
from autotab.linear import (LinearParams, RidgePath, _Logistic, _Softmax,
                            default_lambda_grid, fit_lambda_path, fold_ridge_paths,
                            solve, unpack)
from autotab.metrics import MetricSpec
from autotab.validation import CVScheme, make_folds

from conftest import make_binary, make_regression
from oracles import lbfgs_solve, linear_objective, ridge_lambda_path, ridge_svd_solve


def separable(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64)
    return X, y


class TestParams:
    def test_grid_must_decrease(self):
        with pytest.raises(ConfigError):
            LinearParams(lam_grid=(1.0, 2.0))
        with pytest.raises(ConfigError):
            LinearParams(lam_grid=(1.0, -1.0))

    def test_default_grid_spans_expected_range(self):
        grid = default_lambda_grid()
        assert len(grid) == 20
        assert grid[0] == pytest.approx(1e3)
        assert grid[-1] == pytest.approx(1e-5)


class TestSolver:
    def test_huge_lambda_shrinks_weights(self):
        X, y = separable(300, seed=1)
        x = solve(X, y.astype(float), 1e3, "binary")
        est = unpack(x, 2, "binary", 0, 1e3)
        assert np.linalg.norm(est.weights) < 1e-3

    def test_warm_and_cold_start_agree(self):
        X, y = make_binary(200, 4, 3, seed=2)
        yf = y.astype(float)
        grid = default_lambda_grid()
        x_prev = None
        for lam in grid[:8]:
            warm = solve(X, yf, float(lam), "binary", x0=x_prev)
            cold = solve(X, yf, float(lam), "binary", x0=None)
            assert np.abs(warm - cold).max() < 1e-6
            x_prev = warm

    def test_objective_monotone_over_iterations(self):
        X, y = make_binary(300, 5, 3, seed=3)
        trace = []
        solve(X, y.astype(float), 0.01, "binary", trace=trace)
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-12)

    def test_regression_matches_closed_form_ridge(self):
        X, y = make_regression(200, 3, 3, seed=4)
        lam = 0.5
        n = X.shape[0]
        Xc = np.hstack([X, np.ones((n, 1))])
        # closed form of mean-squared loss + 0.5*lam*|w|^2, intercept free
        reg = lam * n * np.eye(4)
        reg[3, 3] = 0.0
        w_star = np.linalg.solve(Xc.T @ Xc + reg, Xc.T @ y)
        x = RidgePath(X, y).solve(lam)
        assert np.abs(x - w_star).max() < 1e-9

    def test_multiclass_gradient_is_consistent(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        x0 = rng.normal(size=3 * 3 + 3) * 0.1
        loss = _Softmax(X, y, 0.1, 3)
        f0 = loss.value(x0, loss.scores(x0))
        g0 = loss.gradient(x0, loss.scores(x0))
        eps = 1e-6
        for i in range(len(x0)):
            xp = x0.copy()
            xp[i] += eps
            fp = loss.value(xp, loss.scores(xp))
            assert (fp - f0) / eps == pytest.approx(g0[i], abs=1e-4)


def _classification(kind, n, d, seed, separable=False, duplicate=False, constant=False):
    """Gaussian columns (plus a copy of column 0 and a constant column when
    asked) and labels from a random linear model: noisy, or exactly
    separable."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    n_out = 3 if kind == "multiclass" else 1
    scores = X @ rng.normal(size=(d, n_out))
    if not separable:
        scores = scores + rng.gumbel(size=scores.shape)
    if kind == "multiclass":
        y = np.argmax(scores, axis=1)
    else:
        y = (scores[:, 0] > 0).astype(np.float64)
    if duplicate:
        X = np.hstack([X, X[:, :1]])
    if constant:
        X = np.hstack([X, np.full((n, 1), 3.7)])
    return X, y, n_out if kind == "multiclass" else 0


class TestNewton:
    @pytest.mark.parametrize("kind", ["binary", "multiclass"])
    def test_hessian_products_are_gradient_differences(self, kind):
        X, y, k = _classification(kind, 60, 4, seed=1)
        loss = _Softmax(X, y, 0.3, k) if k else _Logistic(X, y, 0.3)
        rng = np.random.default_rng(2)
        x, v = rng.normal(size=(2, loss.size))
        grad = lambda u: loss.gradient(u, loss.scores(u))
        eps = 1e-6
        fd = (grad(x + eps * v) - grad(x - eps * v)) / (2 * eps)
        grad(x)
        assert np.abs(loss.hessp(v) - fd).max() <= 1e-7
        unit = np.eye(loss.size)
        diag = [loss.hessp(e) @ e for e in unit]
        assert np.allclose(loss.diagonal(), diag, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("kind", ["binary", "multiclass"])
    @pytest.mark.parametrize("scale", [1e-9, 1e-3, 0.5, 30.0])
    def test_change_is_the_objective_difference(self, kind, scale):
        """Both branches (all score changes within 1, or not) agree with the
        difference of two objective values, where that difference is not
        lost to rounding."""
        X, y, k = _classification(kind, 80, 3, seed=3)
        loss = _Softmax(X, y, 0.1, k) if k else _Logistic(X, y, 0.1)
        rng = np.random.default_rng(4)
        x, d = rng.normal(size=(2, loss.size))
        d *= scale
        loss.gradient(x, loss.scores(x))
        change = loss.change(x, d, loss.scores(d))
        f = loss.value(x, loss.scores(x))
        assert change == pytest.approx(loss.value(x + d, loss.scores(x + d)) - f,
                                       rel=1e-6, abs=4 * np.finfo(float).eps * f)
        if scale == 1e-9:  # first order: the slope along d
            assert change == pytest.approx(loss.gradient(x, loss.scores(x)) @ d, rel=1e-6)

    @settings(max_examples=60)
    @given(kind=st.sampled_from(["binary", "multiclass"]), n=st.integers(20, 150),
           d=st.integers(1, 6), seed=st.integers(0, 2**16), separable=st.booleans(),
           duplicate=st.booleans(), constant=st.booleans(),
           lam=st.sampled_from([1e3, 1.0, 1e-2, 1e-5]))
    def test_stationary_and_no_worse_than_lbfgs(self, kind, n, d, seed, separable,
                                                duplicate, constant, lam):
        X, y, k = _classification(kind, n, d, seed, separable, duplicate, constant)
        # a class missing from y has no finite optimum
        assume(np.unique(y).size == (k or 2))
        trace = []
        x = solve(X, y, lam, kind, k, trace=trace)
        f, g = linear_objective(x, X, y, lam, kind, k)
        assert len(trace) < 500 and np.abs(g).max() <= 1e-8
        f_lbfgs, _ = linear_objective(lbfgs_solve(X, y, lam, kind, k), X, y, lam, kind, k)
        assert f <= f_lbfgs + 1e-12 * max(1.0, abs(f))
        assert np.all(np.diff(trace) <= 0.0)
        if trace:  # the objective the solver tracks is the true one
            assert trace[-1] == pytest.approx(f, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("kind", ["binary", "multiclass"])
    @pytest.mark.parametrize("separable,duplicate", [(False, False), (True, True)])
    def test_warm_started_path(self, kind, separable, duplicate):
        X, y, k = _classification(kind, 120, 4, seed=9, separable=separable,
                                  duplicate=duplicate, constant=duplicate)
        x_prev = None
        for lam in default_lambda_grid():
            trace = []
            x = solve(X, y, float(lam), kind, k, x0=x_prev, trace=trace)
            f, g = linear_objective(x, X, y, lam, kind, k)
            assert np.abs(g).max() <= 1e-8
            ref = lbfgs_solve(X, y, float(lam), kind, k, x0=x_prev)
            assert f <= linear_objective(ref, X, y, lam, kind, k)[0] + 1e-12 * max(1.0, abs(f))
            assert np.all(np.diff(trace) <= 0.0)
            x_prev = x

    def test_max_iterations_counts_newton_steps(self):
        X, y, _ = _classification("binary", 200, 5, seed=10, separable=True)
        for cap in (1, 3):
            trace = []
            x = solve(X, y, 1e-5, "binary", max_iterations=cap, trace=trace)
            assert len(trace) == cap
            assert np.abs(linear_objective(x, X, y, 1e-5, "binary")[1]).max() > 1e-8

    def test_multiclass_steps_keep_the_intercept_sum(self):
        """Moving every intercept by one constant changes nothing: no step
        goes that way, so a warm start keeps its intercept sum."""
        X, y, k = _classification("multiclass", 100, 3, seed=11)
        x0 = np.zeros(4 * k)
        x0[-k:] = [2.0, -1.0, 0.5]
        x = solve(X, y, 1e-3, "multiclass", k, x0=x0)
        assert x[-k:].sum() == pytest.approx(1.5, abs=1e-9)


def _rank_deficient(n, d, seed, duplicate=True, constant=True):
    """Gaussian columns, optionally with a copy of column 0 and a constant
    column appended."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if duplicate:
        X = np.hstack([X, X[:, :1]])
    if constant:
        X = np.hstack([X, np.full((n, 1), 3.7)])
    return X, rng.normal(size=n) + 2.0


def _assert_stationary(X, y, x, lam):
    """The gradient of the ridge objective vanishes at x, entry by entry."""
    assert np.all(np.isfinite(x))
    n = X.shape[0]
    w, b = x[:-1], x[-1]
    r = X @ w + b - y
    grad_w = X.T @ r / n + lam * w
    grad_b = r.mean()
    # the size of the terms the gradient sums, entry by entry
    size = np.abs(X @ w) + abs(b) + np.abs(y)
    assert np.all(np.abs(grad_w) <= 1e-9 * (np.abs(X).T @ size / n + lam * np.abs(w)))
    assert abs(grad_b) <= 1e-9 * size.mean()


def _assert_min_norm_lstsq(X, y, x):
    Xc, yc = X - X.mean(axis=0), y - y.mean()
    w_ls = np.linalg.lstsq(Xc, yc, rcond=None)[0]
    assert np.abs(x[:-1] - w_ls).max() <= 1e-9 * np.abs(w_ls).max()
    assert x[-1] == pytest.approx(y.mean() - X.mean(axis=0) @ w_ls, rel=1e-9)


def _folds(kind, n, k, seed):
    """A fold assignment of n rows. The custom scheme draws folds -1..k-1
    per row: at k = 1 no fold trains on the rows of fold 0."""
    rng = np.random.default_rng(seed)
    columns = np.column_stack([rng.permutation(n).astype(float), rng.normal(size=n)])
    labels = np.arange(n) % 2
    ds = dataset_from_arrays(columns, labels, "binary", feature_names=["t", "x"])
    if kind == "custom":
        fold = rng.integers(-1, k, size=n)
        fold[rng.integers(n)] = k - 1
        scheme = CVScheme("custom", fold_of_row=tuple(fold.tolist()))
    elif kind == "holdout":
        scheme = CVScheme("holdout", holdout_fraction=0.3, seed=seed)
    else:
        scheme = CVScheme(kind, k=k, time_column="t", seed=seed)
    return make_folds(scheme, ds)


class TestRidgePath:
    @given(n=st.integers(1, 40), d=st.integers(1, 12), seed=st.integers(0, 2**16),
           duplicate=st.booleans(), constant=st.booleans(),
           lam=st.sampled_from([0.0, 1e-5, 1e-2, 1.0, 1e3]))
    def test_gradient_vanishes_at_solution(self, n, d, seed, duplicate, constant, lam):
        X, y = _rank_deficient(n, d, seed, duplicate, constant)
        _assert_stationary(X, y, RidgePath(X, y).solve(lam), lam)

    @pytest.mark.parametrize("n,d", [(50, 6), (5, 10)])
    def test_unregularized_rank_deficient_is_min_norm_lstsq(self, n, d):
        X, y = _rank_deficient(n, d, seed=n + d)
        _assert_min_norm_lstsq(X, y, RidgePath(X, y).solve(0.0))

    def test_all_constant_columns_fit_the_mean(self):
        X = np.full((7, 3), 0.1)
        y = np.arange(7.0)
        x = RidgePath(X, y).solve(0.0)
        assert np.array_equal(x[:-1], np.zeros(3))
        assert x[-1] == pytest.approx(3.0)

    @pytest.mark.parametrize("n,d", [(200, 6), (50, 6), (5, 10)])
    def test_equals_the_svd_of_the_centered_rows(self, n, d):
        X, y = _rank_deficient(n, d, seed=n + d)
        path = RidgePath(X, y)
        for lam in [0.0] + default_lambda_grid().tolist():
            ref = ridge_svd_solve(X, y, lam)
            assert np.abs(path.solve(lam) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_coefficients_are_the_solutions_of_each_strength(self):
        X, y = _rank_deficient(30, 5, seed=3)
        path = RidgePath(X, y)
        grid = default_lambda_grid()
        W, b = path.coefficients(grid)
        assert W.shape == (X.shape[1], grid.shape[0]) and b.shape == grid.shape
        for j, lam in enumerate(grid):
            x = path.solve(float(lam))
            assert np.allclose(W[:, j], x[:-1], rtol=1e-13, atol=1e-15)
            assert b[j] == pytest.approx(x[-1], rel=1e-13, abs=1e-15)


class TestFoldRidgePaths:
    """Each fold's path, built from the factors of row blocks, is the path of
    the fold's training rows."""

    @settings(max_examples=100)
    @given(kind=st.sampled_from(["kfold", "stratified_kfold", "holdout", "time_series",
                                 "custom"]),
           n=st.integers(4, 40), d=st.integers(1, 10), k=st.integers(1, 5),
           seed=st.integers(0, 2**16), duplicate=st.booleans(), constant=st.booleans())
    def test_block_paths_equal_the_paths_of_the_training_rows(self, kind, n, d, k, seed,
                                                              duplicate, constant):
        assume(kind == "custom" or 2 <= k <= n // 2)
        folds = _folds(kind, n, k, seed)
        masks = [folds.train_mask(f) for f in range(folds.k)]
        assume(all(mask.any() for mask in masks))
        X, y = _rank_deficient(n, d, seed, duplicate, constant)
        for mask, path in zip(masks, fold_ridge_paths(X, y, folds)):
            one = RidgePath(X[mask], y[mask])
            assert path.n == mask.sum()
            for lam in (0.0, 1e-5, 1e3):
                x, ref = path.solve(lam), one.solve(lam)
                assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
                _assert_stationary(X[mask], y[mask], x, lam)

    def test_a_block_no_fold_trains_on_is_not_factored(self, monkeypatch):
        folds = _folds("holdout", 40, 1, seed=2)
        X, y = _rank_deficient(40, 3, seed=2)
        factored = []
        of = linear.RidgeBlock.of.__func__

        def recorded(cls, Xb, yb):
            factored.append(Xb.shape[0])
            return of(cls, Xb, yb)

        monkeypatch.setattr(linear.RidgeBlock, "of", classmethod(recorded))
        (path,) = fold_ridge_paths(X, y, folds)
        assert factored == [int((folds.fold_of_row == -1).sum())] == [path.n]

    @pytest.mark.parametrize("n,d", [(50, 6), (15, 10)])
    def test_unregularized_rank_deficient_is_min_norm_lstsq(self, n, d):
        X, y = _rank_deficient(n, d, seed=n + d)
        folds = _folds("kfold", n, 3, seed=n)
        for f, path in enumerate(fold_ridge_paths(X, y, folds)):
            tr = folds.train_mask(f)
            _assert_min_norm_lstsq(X[tr], y[tr], path.solve(0.0))


class TestLambdaPath:
    def test_path_stops_after_two_worse_points(self):
        X, y = make_binary(500, 4, 2, seed=6, noise=2.0)
        params = LinearParams()
        est, score, history = fit_lambda_path(
            X[:350], y[:350].astype(float), X[350:], y[350:], "binary", 0,
            MetricSpec("roc_auc"), params)
        best = int(np.argmax(history))
        assert len(history) <= len(params.lam_grid)
        if len(history) < len(params.lam_grid):
            assert len(history) - 1 - best >= 2

    def test_best_lambda_returned(self):
        X, y = make_binary(400, 4, 2, seed=7)
        est, score, history = fit_lambda_path(
            X[:300], y[:300].astype(float), X[300:], y[300:], "binary", 0,
            MetricSpec("roc_auc"), LinearParams())
        assert score == max(history)

    def test_regression_path_returns_exact_best_solution(self):
        X, y = make_regression(400, 6, 3, seed=14, noise=2.0)
        est, score, history = fit_lambda_path(
            X[:300], y[:300], X[300:], y[300:], "regression", 0,
            MetricSpec("neg_rmse"), LinearParams())
        assert score == max(history)
        x = RidgePath(X[:300], y[:300]).solve(est.lam)
        assert np.array_equal(est.weights, x[:-1]) and est.intercept == x[-1]


class TestFitLinear:
    def test_separable_oof_auc(self):
        X, y = separable(500, seed=8)
        ds = dataset_from_arrays(X, y, "binary")
        folds = make_folds(CVScheme("stratified_kfold", k=5, seed=0), ds)
        model = fit_linear(ds, folds)
        assert model.metric_oof >= 0.99

    def test_budget_exhausted_before_first_fold(self):
        X, y = separable(200, seed=9)
        ds = dataset_from_arrays(X, y, "binary")
        folds = make_folds(CVScheme("kfold", k=3, seed=0), ds)
        with pytest.raises(BudgetError):
            fit_linear(ds, folds, budget=TimeBudget(0.0))

    def test_later_folds_degrade_instead_of_failing(self):
        X, y = make_binary(2000, 8, 4, seed=10)
        ds = dataset_from_arrays(X, y, "binary")
        folds = make_folds(CVScheme("kfold", k=5, seed=0), ds)
        model = fit_linear(ds, folds, budget=TimeBudget(0.05))
        assert len(model.estimators) == 5
        assert np.isfinite(model.metric_oof)

    def test_later_folds_that_degrade_keep_the_solver_params(self, monkeypatch):
        """A fold solved at the best strength alone, on an expired budget,
        stops where LinearParams says, as the path's solves do."""
        X, y = make_binary(400, 5, 3, seed=13)
        ds = dataset_from_arrays(X, y, "binary")
        folds = make_folds(CVScheme("kfold", k=3, seed=0), ds)
        params = LinearParams(max_iterations=1, tolerance=1e-3)

        class ExpiresAfterFirstPath:
            expired_now = False

            def expired(self):
                return self.expired_now

        budget = ExpiresAfterFirstPath()

        def path_then_expire(*args, **kwargs):
            out = linear.fit_lambda_path(*args, **kwargs)
            budget.expired_now = True
            return out

        solves = []

        def recorded_solve(*args, **kwargs):
            x = linear.solve(*args, **kwargs)
            solves.append((args, x))
            return x

        monkeypatch.setattr(learners, "fit_lambda_path", path_then_expire)
        monkeypatch.setattr(learners, "solve", recorded_solve)
        model = fit_linear(ds, folds, params=params, budget=budget)
        assert model.truncated and len(solves) == 2
        for args, x in solves:
            expected = linear.solve(*args, max_iterations=1, tolerance=1e-3)
            assert np.array_equal(x, expected)
            assert not np.array_equal(x, linear.solve(*args))

    def test_later_regression_folds_that_degrade_solve_from_their_own_factor(self,
                                                                             monkeypatch):
        """A regression fold solved at the best strength alone, on an expired
        budget, takes the solution from the factor of its own training rows
        that `fold_ridge_paths` made: no Newton solve, no new factorization."""
        X, y = make_regression(400, 5, 3, seed=13)
        ds = dataset_from_arrays(X, y, "regression")
        folds = make_folds(CVScheme("kfold", k=3, seed=0), ds)

        class ExpiresAfterFirstPath:
            expired_now = False

            def expired(self):
                return self.expired_now

        budget = ExpiresAfterFirstPath()

        def path_then_expire(*args, **kwargs):
            out = linear.fit_lambda_path(*args, **kwargs)
            budget.expired_now = True
            return out

        factored = []

        def recorded_paths(X, y, folds):
            factored.append((X, y))
            return linear.fold_ridge_paths(X, y, folds)

        solves = []
        monkeypatch.setattr(learners, "fit_lambda_path", path_then_expire)
        monkeypatch.setattr(learners, "fold_ridge_paths", recorded_paths)
        monkeypatch.setattr(learners, "solve", lambda *args, **kwargs: solves.append(args))
        model = fit_linear(ds, folds, budget=budget)
        assert model.truncated and solves == [] and len(factored) == 1
        best_lam = model.estimators[0].lam
        ridges = fold_ridge_paths(*factored[0], folds)
        for f in range(1, folds.k):
            est = model.estimators[f]
            assert est.lam == best_lam
            got = np.append(est.weights, est.intercept)
            assert got.tobytes() == ridges[f].solve(best_lam).tobytes()

    @pytest.mark.parametrize("kind,k", [("kfold", 5), ("holdout", 1)])
    def test_regression_matches_the_per_fold_svd_path(self, kind, k):
        """Each fold picks the strength, and walks as many grid points, as
        the path of one SVD per fold does, with the same OOF predictions."""
        X, y = make_regression(600, 8, 5, seed=15, noise=1.0)
        X = np.hstack([X, X[:, :1], np.full((600, 1), 2.5)])  # duplicate, constant
        ds = dataset_from_arrays(X, y, "regression")
        folds = make_folds(CVScheme(kind, k=k, holdout_fraction=0.3, seed=1), ds)
        params = LinearParams()
        model = fit_linear(ds, folds, params=params)
        Xv = model.view.train_matrix(ds, folds)
        oof = np.full(600, np.nan)
        for f, tr, va in folds.iter_splits():
            lam, history, pred = ridge_lambda_path(Xv[tr], y[tr], Xv[va], y[va],
                                                   ds.task.metric, params.lam_grid)
            assert model.estimators[f].lam == lam
            assert len(model.extra["lambda_histories"][f]) == len(history)
            assert np.allclose(model.extra["lambda_histories"][f], history,
                               rtol=1e-12, atol=1e-14)
            oof[va] = pred
        mask = folds.oof_mask()
        assert np.abs(model.oof[mask] - oof[mask]).max() <= 1e-12 * np.abs(oof[mask]).max()

    def test_multiclass_predictions_are_simplex(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(300, 4))
        y = rng.integers(0, 3, size=300)
        ds = dataset_from_arrays(X, y, "multiclass")
        folds = make_folds(CVScheme("stratified_kfold", k=4, seed=0), ds)
        model = fit_linear(ds, folds)
        preds = model.predict(ds)
        assert preds.shape == (300, 3)
        assert np.abs(preds.sum(axis=1) - 1.0).max() < 1e-9

    def test_missing_values_imputed_with_indicator(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(300, 2))
        X[rng.random(300) < 0.25, 0] = np.nan
        y = (np.nan_to_num(X[:, 1]) > 0).astype(np.int64)
        ds = dataset_from_arrays(X, y, "binary")
        folds = make_folds(CVScheme("kfold", k=3, seed=0), ds)
        model = fit_linear(ds, folds)
        assert "f0__isna" in model.feature_names
        assert np.isfinite(model.metric_oof)
