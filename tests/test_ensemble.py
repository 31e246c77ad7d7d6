import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotab import ensemble
from autotab.budget import TimeBudget
from autotab.data import dataset_from_arrays
from autotab.ensemble import (ENSEMBLE_STEPS, BlendWeights, apply_blend, blend_weights,
                              build_stack_features)
from autotab.errors import DataError
from autotab.gbm import GBMParams
from autotab.learners import GBMFolds, fit_gbm, fit_linear
from autotab.metrics import MetricSpec, evaluate, neg_logloss
from autotab.validation import CVScheme, make_folds

from conftest import make_multiclass

from oracles import simplex_grid_best

AUC = MetricSpec("roc_auc")
LOGLOSS = MetricSpec("neg_logloss")


def _noisy_models(seed, n=120, qualities=(1.2, 1.0, 0.8)):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    preds = [1 / (1 + np.exp(-(q * (2 * y - 1) + rng.normal(0, 1.5, size=n))))
             for q in qualities]
    return y, preds


class TestBlendWeights:
    def test_perfect_model_keeps_full_weight(self):
        y = np.array([0, 1, 0, 1, 1, 0])
        exact = y.astype(np.float64)
        other = np.array([0.4, 0.6, 0.5, 0.7, 0.2, 0.9])
        bw = blend_weights([exact, other], y, AUC)
        assert bw.weights[0] == 1.0
        assert bw.weights[1] == 0.0
        assert bw.metric_value == 1.0

    def test_identical_models_stay_at_vertex(self):
        y = np.array([0, 1, 0, 1])
        p = np.array([0.3, 0.8, 0.4, 0.6])
        bw = blend_weights([p, p.copy()], y, AUC)
        assert bw.weights.tolist() == [1.0, 0.0]

    def test_single_model_short_circuit(self):
        y = np.array([0, 1, 1])
        bw = blend_weights([np.array([0.1, 0.9, 0.8])], y, AUC)
        assert bw.weights.tolist() == [1.0]

    def test_never_below_best_single(self):
        for seed in range(25):
            y, preds = _noisy_models(seed)
            bw = blend_weights(preds, y, AUC)
            best = max(evaluate(AUC, y, p) for p in preds)
            assert bw.metric_value >= best

    def test_matches_simplex_oracle(self):
        for seed in range(10):
            y, preds = _noisy_models(seed)
            bw = blend_weights(preds, y, LOGLOSS)
            _, oracle = simplex_grid_best(preds, y, neg_logloss, step=0.01)
            assert bw.metric_value >= oracle - 1e-6

    def test_weights_form_distribution(self):
        for seed in range(10):
            y, preds = _noisy_models(seed, qualities=(1.0, 0.9, 0.8, 0.2))
            bw = blend_weights(preds, y, LOGLOSS)
            assert (bw.weights >= 0).all()
            assert bw.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_trace_strictly_increasing(self):
        y, preds = _noisy_models(3)
        bw = blend_weights(preds, y, LOGLOSS)
        trace = np.asarray(bw.sweep_trace)
        assert np.all(np.diff(trace) > 0)

    def test_pruning_never_costs_metric(self):
        for seed in range(15):
            y, preds = _noisy_models(seed, qualities=(1.5, 1.4, 0.05))
            bw = blend_weights(preds, y, LOGLOSS)
            kept = [p for p, w in zip(preds, bw.weights) if w > 0]
            weights = bw.weights[bw.weights > 0]
            blended = sum(w * p for w, p in zip(weights, kept))
            assert evaluate(LOGLOSS, y, blended) == pytest.approx(
                bw.metric_value, abs=1e-12)
            for i in bw.dropped:
                assert bw.weights[i] == 0.0

    def test_mask_restricts_rows(self):
        y, preds = _noisy_models(5)
        mask = np.zeros(len(y), dtype=bool)
        mask[:60] = True
        bw = blend_weights(preds, y, LOGLOSS, mask=mask)
        manual = blend_weights([p[:60] for p in preds], y[:60], LOGLOSS)
        assert bw.weights == pytest.approx(manual.weights)


def _random_oofs(kind, m, n, rng):
    """y and m OOF predictions of random quality for one task kind."""
    if kind == "binary":
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        return y, [1 / (1 + np.exp(-(rng.uniform(0, 2) * (2 * y - 1)
                                     + rng.normal(0, 1.5, size=n))))
                   for _ in range(m)]
    if kind == "multiclass":
        y = rng.integers(0, 3, size=n)
        y[:3] = [0, 1, 2]
        preds = []
        for _ in range(m):
            z = rng.uniform(0, 2) * np.eye(3)[y] + rng.normal(0, 1.0, size=(n, 3))
            e = np.exp(z - z.max(axis=1, keepdims=True))
            preds.append(e / e.sum(axis=1, keepdims=True))
        return y, preds
    y = rng.normal(size=n)
    return y, [rng.uniform(0, 1) * y + rng.normal(0, rng.uniform(0.2, 2), size=n)
               for _ in range(m)]


def _as_counts(weights):
    """The integer counts whose share of their total is `weights`, or None."""
    for total in range(1, ENSEMBLE_STEPS + 2):
        counts = np.rint(weights * total)
        if counts.sum() == total and np.array_equal(counts / total, weights):
            return counts
    return None


class TestEnsembleSelection:
    @settings(max_examples=60, deadline=None)
    @given(task=st.sampled_from([("binary", "roc_auc"), ("multiclass", "neg_logloss"),
                                 ("regression", "r2"), ("regression", "neg_rmse")]),
           m=st.integers(2, 4), n=st.integers(20, 80), masked=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_blend_properties(self, task, m, n, masked, seed):
        kind, name = task
        metric = MetricSpec(name)
        rng = np.random.default_rng(seed)
        y, preds = _random_oofs(kind, m, n, rng)
        mask = rng.random(n) < 0.7 if masked else None
        if mask is not None:
            mask[:3] = True
        bw = blend_weights(preds, y, metric, mask=mask)
        rows = np.ones(n, dtype=bool) if mask is None else mask
        yy, pp = y[rows], [p[rows] for p in preds]
        # each single model as apply_blend gives it
        singles = [evaluate(metric, yy, apply_blend(pp, BlendWeights(np.eye(m)[i])))
                   for i in range(m)]
        assert bw.metric_value >= max(singles)
        assert _as_counts(bw.weights) is not None
        assert bw.metric_value == evaluate(metric, yy, apply_blend(pp, bw))
        assert bw.dropped == [i for i in range(m) if bw.weights[i] == 0.0]
        assert bw.evals <= m * (ENSEMBLE_STEPS + 1)

    def test_evaluation_count(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return evaluate(*args)

        monkeypatch.setattr(ensemble, "evaluate", counted)
        y, preds = _noisy_models(4)
        bw = blend_weights(preds, y, AUC)
        assert len(calls) == bw.evals == 3 * (ENSEMBLE_STEPS + 1)
        assert (bw.steps, bw.stop) == (ENSEMBLE_STEPS, "steps")

    def test_expired_budget_returns_best_single(self):
        y, preds = _noisy_models(6)
        bw = blend_weights(preds, y, AUC, budget=TimeBudget(0.0))
        singles = [evaluate(AUC, y, p) for p in preds]
        best = int(np.argmax(singles))
        assert bw.weights.tolist() == np.eye(3)[best].tolist()
        assert bw.metric_value == singles[best]
        assert bw.dropped == [i for i in range(3) if i != best]
        report = bw.to_json()
        assert (report["evals"], report["steps"], report["stop"]) == (3, 0, "budget")


class TestApplyBlend:
    def test_degenerate_weight_returns_model_verbatim(self):
        p1 = np.array([0.1, 0.9])
        p2 = np.array([0.5, 0.5])
        out = apply_blend([p1, p2], BlendWeights(np.array([1.0, 0.0])))
        assert out.tolist() == p1.tolist()

    def test_even_mix(self):
        out = apply_blend([np.array([0.2]), np.array([0.6])],
                          BlendWeights(np.array([0.5, 0.5])))
        assert out[0] == pytest.approx(0.4)

    def test_multiclass_rows_renormalized(self):
        rng = np.random.default_rng(0)
        a = rng.dirichlet(np.ones(4), size=50)
        b = rng.dirichlet(np.ones(4), size=50)
        out = apply_blend([a, b], BlendWeights(np.array([0.3, 0.7])))
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            apply_blend([np.zeros(3), np.zeros(4)],
                        BlendWeights(np.array([0.5, 0.5])))

    def test_row_permutation_equivariant(self):
        rng = np.random.default_rng(1)
        a, b = rng.random(30), rng.random(30)
        w = BlendWeights(np.array([0.4, 0.6]))
        out = apply_blend([a, b], w)
        perm = rng.permutation(30)
        assert apply_blend([a[perm], b[perm]], w) == pytest.approx(out[perm])


class TestStack:
    def test_binary_models_one_column_each(self):
        y, preds = _noisy_models(7)
        models = [_fake_model(f"m{i}") for i in range(len(preds))]
        X, names = build_stack_features(models, preds)
        assert X.shape == (len(y), 3)
        assert names == ["m0__c0", "m1__c0", "m2__c0"]

    def test_multiclass_models_class_columns(self):
        rng = np.random.default_rng(2)
        oof = rng.dirichlet(np.ones(4), size=30)
        models = [_fake_model("a"), _fake_model("b")]
        X, names = build_stack_features(models, [oof, oof])
        assert X.shape == (30, 8)
        assert names[:4] == ["a__c0", "a__c1", "a__c2", "a__c3"]

    def test_level2_learner_tracks_level1_quality(self):
        X, y = make_multiclass(2500, 6, 3, 4, seed=3)
        ds = dataset_from_arrays(X, y, "multiclass")
        folds = make_folds(CVScheme("stratified_kfold", k=4, seed=0), ds)
        level1 = [
            fit_gbm(GBMFolds(ds, folds),
                    GBMParams(n_estimators_cap=120, max_leaves=16,
                              min_data_in_leaf=10), tag="gbm"),
            fit_linear(ds, folds, tag="linear"),
        ]
        from autotab.pipeline import stack_feature_transform

        X2, names = build_stack_features(level1, [m.oof for m in level1])
        ds2 = dataset_from_arrays(stack_feature_transform(X2, ds.task), y,
                                  "multiclass", feature_names=names)
        level2 = [
            fit_gbm(GBMFolds(ds2, folds), GBMParams(n_estimators_cap=80, max_leaves=8,
                                          min_data_in_leaf=20), tag="stack_gbm"),
            fit_linear(ds2, folds, tag="stack_linear"),
        ]
        blend = blend_weights([m.oof for m in level2], ds2.target, LOGLOSS)
        best_l1 = max(m.metric_oof for m in level1)
        assert blend.metric_value >= best_l1 - 0.01


def _fake_model(tag):
    class _M:
        learner_tag = tag
    return _M()
