import numpy as np
import pytest

from autotab.errors import DataError
from autotab.gbm import GBMParams, fit_booster
from autotab.metrics import MetricSpec, evaluate
from autotab.selection import (ImportanceVector, cutoff_select, forward_select,
                               permutation_importance)


METRIC = MetricSpec("roc_auc")


def _booster_fit(params=None):
    params = params or GBMParams(n_estimators_cap=40, max_leaves=8,
                                 min_data_in_leaf=5)

    def fit_fn(X, y):
        return fit_booster(X, y, params, "binary").estimator

    return fit_fn


def _subset_fit(X, y, fit_fn=None):
    """forward_select's fit_fn: fit on the training columns `cols`."""
    fit_fn = fit_fn or _booster_fit()
    return lambda cols: fit_fn(X[:, cols], y)


def _signal_data(n=800, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    logits = 2.5 * X[:, 0] + 1.5 * X[:, 1]
    y = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(np.int64)
    return X, y


class TestPermutationImportance:
    def test_unused_feature_exactly_zero(self):
        X, y = _signal_data()
        X = np.hstack([X, np.full((X.shape[0], 1), 3.33)])
        est = _booster_fit()(X, y)
        imp = permutation_importance(est, X, y, METRIC, seed=5)
        assert imp.scores[-1] == 0.0

    def test_sole_predictive_feature_drops_to_chance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=900)
        y = (x > 0).astype(np.int64)
        X = x[:, None]
        est = _booster_fit()(X, y)
        imp = permutation_importance(est, X, y, METRIC, seed=2)
        assert imp.baseline_score > 0.99
        # shuffling the only informative column leaves roughly chance AUC
        assert imp.scores[0] == pytest.approx(imp.baseline_score - 0.5, abs=0.05)

    def test_column_order_independent(self):
        X, y = _signal_data(seed=3)
        est = _booster_fit()(X, y)
        imp = permutation_importance(est, X, y, METRIC, seed=9)
        # swap two columns and refit an identical problem
        Xs = X[:, [1, 0, 2, 3]]
        est2 = _booster_fit()(Xs, y)
        imp2 = permutation_importance(est2, Xs, y, METRIC, seed=9)
        assert imp2.scores[1] == pytest.approx(imp.scores[0], abs=0.05)

    def test_group_shuffling_moves_together(self):
        X, y = _signal_data(seed=4)
        est = _booster_fit()(X, y)
        groups = [("pair", [0, 1]), ("rest", [2, 3])]
        imp = permutation_importance(est, X, y, METRIC, seed=1, groups=groups)
        assert imp.names == ["pair", "rest"]
        assert imp.scores[0] > imp.scores[1]


class TestCutoffSelect:
    def test_paper_rule_drops_nonpositive(self):
        imp = ImportanceVector(["f1", "f2", "f3"], np.array([0.3, 0.0, -0.1]))
        assert cutoff_select(imp) == ["f1"]

    def test_all_positive_keeps_all(self):
        imp = ImportanceVector(["a", "b"], np.array([0.2, 0.1]))
        assert cutoff_select(imp) == ["a", "b"]

    def test_all_nonpositive_empty(self):
        imp = ImportanceVector(["a", "b"], np.array([0.0, -0.2]))
        assert cutoff_select(imp) == []


class TestForwardSelect:
    def test_block_covering_everything_is_kept(self):
        X, y = _signal_data(seed=5)
        kept, trace = forward_select(X[500:], y[500:], _subset_fit(X[:500], y[:500]),
                                     block_size=10, metric=METRIC)
        # one block against -inf baseline keeps the whole set
        assert len(kept) == 4
        assert trace.accepted == [True]

    def test_noise_blocks_rejected_often(self):
        accepted_noise = 0
        trials = 20
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            n = 600
            x0 = rng.normal(size=n)
            noise = rng.normal(size=(n, 6))
            y = (rng.random(n) < 1 / (1 + np.exp(-3.0 * x0))).astype(np.int64)
            X = np.hstack([x0[:, None], noise])
            kept, trace = forward_select(X[400:], y[400:], _subset_fit(X[:400], y[:400]),
                                         block_size=1, metric=METRIC, seed=seed)
            assert "f0" in kept
            accepted_noise += len(kept) - 1
        # over 20 seeds and 120 noise blocks, most are rejected
        assert accepted_noise <= 0.2 * trials * 6

    def test_blocks_walk_in_descending_importance_order(self):
        X, y = _signal_data(seed=6)
        fit_fn = _booster_fit()
        est = fit_fn(X[:500], y[:500])
        imp = permutation_importance(est, X[500:], y[500:], METRIC, seed=0)
        expected = [imp.names[i] for i in np.argsort(-imp.scores, kind="stable")]
        _, trace = forward_select(X[500:], y[500:], _subset_fit(X[:500], y[:500], fit_fn),
                                  block_size=1, metric=METRIC, seed=0)
        assert trace.ranked == expected
        flattened = [n for block in trace.block_names for n in block]
        assert flattened == expected

    def test_baseline_trace_strictly_increases_on_accepts(self):
        X, y = _signal_data(seed=7)
        _, trace = forward_select(X[500:], y[500:], _subset_fit(X[:500], y[:500]),
                                  block_size=1, metric=METRIC)
        baseline = -np.inf
        for score, accepted in zip(trace.block_scores, trace.accepted):
            if accepted:
                assert score > baseline
                baseline = score

    def test_kept_set_refit_matches_final_baseline(self):
        X, y = _signal_data(seed=8)
        fit_fn = _booster_fit()
        kept, trace = forward_select(X[500:], y[500:], _subset_fit(X[:500], y[:500], fit_fn),
                                     block_size=2, metric=METRIC)
        cols = [int(n[1:]) for n in kept]
        refit = fit_fn(X[:500][:, cols], y[:500])
        score = evaluate(METRIC, y[500:], refit.predict(X[500:][:, cols]))
        final_baseline = max(s for s, a in zip(trace.block_scores, trace.accepted) if a)
        assert score == pytest.approx(final_baseline, abs=1e-9)

    def test_empty_feature_set_rejected(self):
        with pytest.raises(DataError):
            forward_select(np.empty((5, 0)), np.zeros(5),
                           _subset_fit(np.empty((10, 0)), np.zeros(10)), 1, METRIC)
