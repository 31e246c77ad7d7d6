import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotab.budget import TimeBudget
from autotab.errors import ConfigError, DataError
from autotab.gbm import GBMParams, boosting, fit_booster
from autotab.gbm.binning import MISSING_BIN, BinMapper
from autotab.gbm.losses import sigmoid
from autotab.metrics import MetricSpec, default_metric
from autotab.stopping import best_iteration, improves

from conftest import make_binary
from oracles import predict_codes, sigmoid_masked


def make_xor(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int64)
    return X, y


# any float64 bit pattern (NaN payloads and signs, subnormals, infinities,
# signed zeros) and the special values themselves
_ANY_FLOAT = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: np.uint64(bits).view(np.float64)),
    st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                     745.0, -745.0, 1e-300]),
    st.floats(-800.0, 800.0))


@given(st.lists(_ANY_FLOAT, max_size=40))
def test_sigmoid_is_bit_identical_to_the_masked_form(values):
    z = np.array(values, dtype=np.float64)
    assert sigmoid(z).tobytes() == sigmoid_masked(z).tobytes()


class TestBinning:
    def test_few_uniques_map_identically(self):
        X = np.array([[1.0], [2.0], [2.0], [5.0]])
        mapper = BinMapper().fit(X)
        codes = mapper.transform(X)
        assert codes[:, 0].tolist() == [0, 1, 1, 2]

    def test_missing_goes_to_reserved_bin(self):
        X = np.array([[1.0], [np.nan], [3.0]])
        mapper = BinMapper().fit(X)
        codes = mapper.transform(X)
        assert codes[1, 0] == MISSING_BIN

    def test_many_uniques_capped(self, rng):
        X = rng.normal(size=(5000, 1))
        mapper = BinMapper().fit(X)
        codes = mapper.transform(X)
        assert codes.max() <= 254
        assert len(np.unique(codes)) > 200

    def test_raw_threshold_consistent_with_codes(self, rng):
        X = rng.normal(size=(300, 1))
        mapper = BinMapper().fit(X)
        codes = mapper.transform(X)
        for t in (3, 17, 40):
            if t >= len(mapper.edges[0]):
                continue
            edge = mapper.raw_threshold(0, t)
            assert np.array_equal(codes[:, 0] <= t, X[:, 0] <= edge)


class TestEarlyStop:
    """`best_iteration` picks the iteration early stopping keeps."""

    def test_patience_rule(self, monkeypatch):
        # training halts once (current - best) >= patience and keeps the argmax;
        # the scores come from `evaluate`, which a booster calls for every
        # metric but ROC AUC (that one it scores with a prepared RocAuc)
        history = [0.5, 0.7, 0.6, 0.6, 0.9, 0.9]
        assert best_iteration(history[:4]) == 1
        scores = iter(history)
        monkeypatch.setattr(boosting, "evaluate", lambda *args: next(scores))
        X, y = make_binary(200, 3, 2, seed=0)
        res = fit_booster(X[:150], y[:150], GBMParams(n_estimators_cap=50), "binary",
                          X_val=X[150:], y_val=y[150:], metric=MetricSpec("neg_logloss"),
                          patience=2)
        assert res.eval_history == [0.5, 0.7]
        assert res.best_iteration == 1
        assert res.estimator.n_iterations == 2

    def test_strictly_improving_returns_last(self):
        assert best_iteration([0.1, 0.2, 0.3, 0.4]) == 3

    def test_plateau_earliest_best(self):
        assert best_iteration([0.7, 0.7, 0.7]) == 0

    def test_empty_history_rejected(self):
        with pytest.raises(ConfigError):
            best_iteration([])

    @given(st.lists(st.one_of(st.sampled_from([0.5, 0.5, 0.7, np.nan, -np.inf, np.inf]),
                              st.floats(allow_nan=True)), min_size=1, max_size=30))
    def test_running_best_equals_best_iteration(self, history):
        # the booster's score-by-score rule, on histories with ties and NaNs
        best = 0
        for i, score in enumerate(history):
            if i and improves(score, history[best]):
                best = i
            assert best == best_iteration(history[: i + 1])


class TestBoosting:
    @pytest.mark.parametrize("flavor", ["leaf_wise", "symmetric_depth_wise"])
    def test_xor_reaches_perfect_train_accuracy(self, flavor):
        X, y = make_xor(400, seed=1)
        params = GBMParams(learning_rate=0.2, max_leaves=8, max_depth=4,
                           min_data_in_leaf=2, n_estimators_cap=300, flavor=flavor)
        res = fit_booster(X, y, params, "binary")
        acc = ((res.estimator.predict(X) > 0.5) == y).mean()
        assert acc == 1.0

    def test_constant_target_regression(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        y = np.full(100, 7.25)
        params = GBMParams(n_estimators_cap=3)
        res = fit_booster(X, y, params, "regression")
        assert res.estimator.predict(X) == pytest.approx(np.full(100, 7.25))

    def test_full_batch_train_loss_non_increasing(self):
        X, y = make_binary(500, 5, 3, seed=2)
        params = GBMParams(learning_rate=0.1, max_leaves=16, subsample=1.0,
                           colsample=1.0, n_estimators_cap=200)
        est = fit_booster(X, y, params, "binary").estimator
        # mean log-loss after each iteration, rebuilt from the fitted trees
        raw = np.full(len(y), float(est.base_score))
        losses = []
        for tree in est.forest:
            raw += tree.predict_raw(X)
            losses.append(np.mean(np.logaddexp(0.0, raw) - y * raw))
        assert len(losses) == 200
        assert np.all(np.diff(losses) <= 1e-12)

    def test_multiclass_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 4))
        y = rng.integers(0, 3, size=300)
        params = GBMParams(n_estimators_cap=20, max_leaves=8)
        res = fit_booster(X, y, params, "multiclass", n_classes=3)
        probs = res.estimator.predict(X)
        assert probs.shape == (300, 3)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_early_stopping_truncates_trees(self):
        X, y = make_binary(600, 4, 2, seed=5)
        params = GBMParams(learning_rate=0.3, max_leaves=32,
                           n_estimators_cap=500, min_data_in_leaf=2)
        res = fit_booster(X[:400], y[:400], params, "binary",
                          X_val=X[400:], y_val=y[400:],
                          metric=MetricSpec("roc_auc"), patience=10)
        assert res.estimator.n_iterations < 500
        assert res.estimator.n_iterations == res.best_iteration + 1

    def test_budget_truncation_flags_model(self):
        X, y = make_binary(3000, 8, 4, seed=6)
        params = GBMParams(n_estimators_cap=2000, max_leaves=64)
        res = fit_booster(X, y, params, "binary", budget=TimeBudget(0.15))
        assert res.truncated
        assert res.estimator.n_iterations < 2000

    def test_determinism_given_seed(self):
        X, y = make_binary(400, 6, 3, seed=7)
        params = GBMParams(subsample=0.8, colsample=0.8, n_estimators_cap=30)
        r1 = fit_booster(X, y, params, "binary", seed=11)
        r2 = fit_booster(X, y, params, "binary", seed=11)
        assert np.array_equal(r1.estimator.predict(X), r2.estimator.predict(X))
        r3 = fit_booster(X, y, params, "binary", seed=12)
        assert not np.array_equal(r1.estimator.predict(X), r3.estimator.predict(X))

    def test_missing_values_route_consistently(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(500, 2))
        X[rng.random(500) < 0.3, 0] = np.nan
        y = (np.nan_to_num(X[:, 0], nan=2.0) > 0).astype(np.int64)
        params = GBMParams(n_estimators_cap=50, max_leaves=8)
        res = fit_booster(X, y, params, "binary")
        acc = ((res.estimator.predict(X) > 0.5) == y).mean()
        assert acc > 0.95

    @pytest.mark.parametrize("flavor", ["leaf_wise", "symmetric_depth_wise"])
    def test_split_isolating_missing_values(self, flavor):
        # With 5% NaN the best split is often "all values left, missing right",
        # a threshold at the last value bin; raw and binned routing must agree.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5000, 10))
        X[rng.random(X.shape) < 0.05] = np.nan
        y = (np.nan_to_num(X[:, 0]) + rng.normal(size=5000) > 0).astype(np.int64)
        res = fit_booster(X, y, GBMParams(n_estimators_cap=100, flavor=flavor), "binary")
        mapper = BinMapper().fit(X)
        codes = mapper.transform(X)
        assert any(np.isinf(t.raw_threshold).any() for t in res.estimator.forest)
        for tree in res.estimator.forest:
            assert np.array_equal(tree.predict_raw(X), predict_codes(tree, codes))

    @pytest.mark.parametrize("flavor", ["leaf_wise", "symmetric_depth_wise"])
    @pytest.mark.parametrize("task_kind", ["binary", "multiclass"])
    def test_subsampled_train_scores_sum_all_trees(self, monkeypatch, flavor, task_kind):
        # Rows left out of a tree's subsample still receive its prediction:
        # the raw scores each iteration starts from equal the base score plus
        # every earlier tree's prediction on all rows.
        seen = []
        make_loss = boosting.make_loss

        class Recording:
            def __init__(self, loss):
                self.loss = loss

            def __getattr__(self, name):
                return getattr(self.loss, name)

            def transform(self, raw):
                seen.append(raw.copy())
                return self.loss.transform(raw)

        monkeypatch.setattr(boosting, "make_loss", lambda *a: Recording(make_loss(*a)))
        X, y = make_binary(400, 5, 3, seed=21)
        n_classes = 0
        if task_kind == "multiclass":
            y = y + (X[:, 3] > 0.5)
            n_classes = 3
        params = GBMParams(subsample=0.7, max_leaves=6, max_depth=3,
                           n_estimators_cap=6, flavor=flavor)
        est = fit_booster(X, y, params, task_kind, n_classes, seed=4).estimator
        codes = BinMapper().fit(X).transform(X)
        raw = (np.tile(est.base_score, (400, 1)) if n_classes
               else np.full(400, float(est.base_score)))
        for i, tree in enumerate(est.forest):  # each iteration's trees in class order
            it, c = divmod(i, max(n_classes, 1))
            if c == 0:
                assert np.array_equal(seen[it], raw)
            if n_classes:
                raw[:, c] += predict_codes(tree, codes)
            else:
                raw += predict_codes(tree, codes)
        assert np.array_equal(seen[-1], raw)  # the scores after the last tree
        assert len(seen) == est.n_iterations + 1 == 7

    def test_no_features_rejected(self):
        with pytest.raises(DataError):
            fit_booster(np.empty((10, 0)), np.zeros(10), GBMParams(), "regression")

    @pytest.mark.parametrize("task_kind,n_classes,labels", [
        ("multiclass", 3, [0, 1, 2, 3]), ("multiclass", 3, [-1, 0, 1, 2]),
        ("multiclass", 3, [0, 1, 1.5, 2]), ("binary", 0, [0, 1, 2]), ("binary", 0, [-1, 1]),
        ("binary", 0, [0, 1, np.nan])])
    def test_labels_outside_the_classes_rejected(self, task_kind, n_classes, labels):
        """A label the model has no output for raises before anything is
        fitted: class 3 of 3 used to grow a fourth output that prediction
        folded into class 0, and a negative label failed inside bincount."""
        X = np.random.default_rng(0).normal(size=(60, 3))
        y = np.resize(np.array(labels, dtype=np.float64), 60)
        with pytest.raises(DataError, match="class numbers"):
            fit_booster(X, y, GBMParams(n_estimators_cap=2), task_kind, n_classes)

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            GBMParams(learning_rate=0.0)
        with pytest.raises(ConfigError):
            GBMParams(subsample=1.5)
        with pytest.raises(ConfigError):
            GBMParams(flavor="exact")
        for reg in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError):
                GBMParams(l2_leaf_reg=reg)

    def test_oblivious_tree_shares_level_splits(self):
        """A symmetric tree of depth d is the complete binary tree of
        2^(d+1) - 1 nodes: node i splits into 2i+1 and 2i+2, and every
        internal node of a level carries that level's feature and bin."""
        X, y = make_xor(300, seed=9)
        params = GBMParams(max_depth=3, n_estimators_cap=5,
                           flavor="symmetric_depth_wise", min_data_in_leaf=2)
        res = fit_booster(X, y, params, "binary")
        assert any((tree.feature >= 0).any() for tree in res.estimator.forest)
        for tree in res.estimator.forest:
            n_nodes = tree.feature.shape[0]
            depth = n_nodes.bit_length() - 1
            assert n_nodes == 2 ** (depth + 1) - 1 and depth <= 3
            inner = np.arange(2 ** depth - 1)
            assert (tree.feature[inner] >= 0).all() and (tree.feature[inner.shape[0]:] == -1).all()
            assert tree.left[inner].tolist() == (2 * inner + 1).tolist()
            assert tree.right[inner].tolist() == (2 * inner + 2).tolist()
            for d in range(depth):
                level = np.arange(2 ** d - 1, 2 ** (d + 1) - 1)
                assert len(set(zip(tree.feature[level].tolist(),
                                   tree.bin_threshold[level].tolist()))) == 1


class _ExpiresAfter:
    """A budget that expires at its (k+1)-th check: k iterations run."""

    def __init__(self, k: int) -> None:
        self.left = k

    def expired(self) -> bool:
        self.left -= 1
        return self.left < 0


@settings(max_examples=60, deadline=None)
@given(task_kind=st.sampled_from(["binary", "multiclass", "regression"]),
       flavor=st.sampled_from(["leaf_wise", "symmetric_depth_wise"]),
       subsample=st.sampled_from([1.0, 0.6]), colsample=st.sampled_from([1.0, 0.5]),
       stopping=st.sampled_from(["patience", "never", "no_metric"]),
       iterations=st.one_of(st.none(), st.integers(0, 5)), seed=st.integers(0, 2**16))
def test_validation_scores_equal_predicting_the_kept_trees(task_kind, flavor, subsample,
                                                           colsample, stopping, iterations,
                                                           seed):
    """`val_raw`, the validation raw scores the booster summed while it
    trained, is predict_raw_scores on the raw X_val bit for bit, whether
    early stopping dropped trees, never fired or did not run, and whether
    the budget truncated the fit."""
    rng = np.random.default_rng(seed)
    n, n_val = int(rng.integers(30, 200)), int(rng.integers(1, 80))
    X = rng.normal(size=(n + n_val, int(rng.integers(1, 6))))
    X[rng.random(X.shape) < 0.1] = np.nan
    signal = np.nan_to_num(X[:, 0]) + rng.normal(size=n + n_val)
    n_classes = 3 if task_kind == "multiclass" else 0
    y = {"binary": (signal > 0).astype(np.int64), "regression": signal,
         "multiclass": np.digitize(signal, [-0.5, 0.5])}[task_kind]
    y[:3] = [0, 1, 2] if task_kind == "multiclass" else [0, 1, 0]
    params = GBMParams(learning_rate=0.5, n_estimators_cap=int(rng.integers(2, 15)),
                       max_leaves=int(rng.integers(2, 10)), max_depth=int(rng.integers(1, 4)),
                       subsample=subsample, colsample=colsample,
                       min_data_in_leaf=int(rng.integers(1, 6)), flavor=flavor)
    val = {"patience": dict(metric=default_metric(task_kind), patience=2),
           "never": dict(metric=default_metric(task_kind), patience=100),
           "no_metric": {}}[stopping]
    budget = None if iterations is None else _ExpiresAfter(iterations)
    res = fit_booster(X[:n], y[:n], params, task_kind, n_classes, X_val=X[n:], y_val=y[n:],
                      budget=budget, seed=seed, **val)
    want = res.estimator.predict_raw_scores(X[n:])
    assert res.val_raw.dtype == want.dtype and res.val_raw.shape == want.shape
    assert res.val_raw.tobytes() == want.tobytes()
    if stopping != "patience" and iterations is not None:
        assert res.truncated == (iterations < params.n_estimators_cap)
