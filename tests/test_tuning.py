import numpy as np
import pytest

from autotab.budget import TimeBudget
from autotab.data import Task, dataset_from_arrays
from autotab.learners import GBMFolds
from autotab.tuning import (SearchSpace, TrialHistory, _dict_from_params, _params_from_dict,
                            expert_params, tpe_suggest, tune_gbm)
from autotab.validation import CVScheme, make_folds

from conftest import make_binary

BINARY = Task("binary", 2, labels=("0", "1"))


class TestExpertParams:
    def test_small_tier(self):
        p = expert_params(BINARY, 5_000, "leaf_wise")
        assert p.learning_rate == 0.1
        assert p.max_leaves == 32
        assert p.subsample == 0.9
        assert p.colsample == 0.9

    def test_large_tier(self):
        p = expert_params(BINARY, 500_000, "leaf_wise")
        assert p.learning_rate == 0.025
        assert p.max_leaves == 128
        assert p.min_data_in_leaf == 50

    def test_symmetric_uses_depth_tiers(self):
        assert expert_params(BINARY, 5_000, "symmetric_depth_wise").max_depth == 5
        assert expert_params(BINARY, 50_000, "symmetric_depth_wise").max_depth == 6
        assert expert_params(BINARY, 500_000, "symmetric_depth_wise").max_depth == 7

    def test_deterministic(self):
        a = expert_params(BINARY, 12_345, "leaf_wise")
        b = expert_params(BINARY, 12_345, "leaf_wise")
        assert a == b

    @pytest.mark.parametrize("flavor", ["leaf_wise", "symmetric_depth_wise"])
    @pytest.mark.parametrize("n_rows", [5_000, 50_000, 500_000])
    def test_round_trips_through_the_trial_dict(self, flavor, n_rows):
        expert = expert_params(BINARY, n_rows, flavor)
        space = SearchSpace.for_flavor(flavor)
        trial = _dict_from_params(expert, space)
        assert set(trial) == {d.name for d in space.dims}
        assert _params_from_dict(trial, space, expert) == expert


class TestTpeSuggest:
    def test_startup_is_uniform_within_bounds(self):
        space = SearchSpace.for_flavor("leaf_wise")
        history = TrialHistory(seed=0)
        for i in range(50):
            cand = tpe_suggest(history, space,
                               rng=np.random.default_rng(i))
            for dim in space.dims:
                assert dim.low <= cand[dim.name] <= dim.high
                if dim.integer:
                    assert cand[dim.name] == int(cand[dim.name])

    def test_deterministic_given_seed_and_history(self):
        space = SearchSpace.for_flavor("leaf_wise")
        rng = np.random.default_rng(42)
        history = TrialHistory(seed=7)
        for i in range(15):
            cand = tpe_suggest(history, space, rng=np.random.default_rng(i))
            history.append(cand, float(rng.normal()), 0.01)
        a = tpe_suggest(history, space)
        b = tpe_suggest(history, space)
        assert a == b

    def test_candidates_always_inside_bounds(self):
        space = SearchSpace.for_flavor("symmetric_depth_wise")
        rng = np.random.default_rng(0)
        history = TrialHistory(seed=1)
        for i in range(30):
            cand = tpe_suggest(history, space)
            for dim in space.dims:
                assert dim.low <= cand[dim.name] <= dim.high
            history.append(cand, float(rng.normal()), 0.01)

    def test_concentrates_on_good_region(self):
        # good trials cluster near learning_rate 0.1; the suggestion should
        # stay in [0.05, 0.2] for at least 90 of 100 seeds
        space = SearchSpace.for_flavor("leaf_wise")
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            history = TrialHistory(seed=seed)
            for i in range(30):
                lr = float(np.clip(rng.normal(0.1, 0.01), 0.01, 0.25))
                good = True
                if i % 3 == 0:  # a third of trials sit far away and score badly
                    lr = float(rng.choice([0.011, 0.24]))
                    good = False
                cand = {d.name: d.from_unit(rng.random()) for d in space.dims}
                cand["learning_rate"] = lr
                history.append(cand, 1.0 + rng.normal(0, 0.01) if good
                               else rng.normal(0, 0.01), 0.01)
            suggestion = tpe_suggest(history, space)
            if 0.05 <= suggestion["learning_rate"] <= 0.2:
                hits += 1
        assert hits >= 90


class TestTuneGbm:
    def _dataset(self, seed=0):
        X, y = make_binary(900, 6, 4, seed=seed)
        return dataset_from_arrays(X, y, "binary")

    def test_degenerate_budget_returns_expert(self):
        ds = self._dataset()
        folds = make_folds(CVScheme("kfold", k=4, seed=0), ds)
        params, history = tune_gbm(GBMFolds(ds, folds), "leaf_wise", TimeBudget(0.0))
        assert len(history) == 0
        assert params == expert_params(ds.task, 900, "leaf_wise")

    def test_trial_zero_is_expert_and_best_is_max(self):
        ds = self._dataset()
        folds = make_folds(CVScheme("kfold", k=4, seed=0), ds)
        params, history = tune_gbm(GBMFolds(ds, folds), "leaf_wise", TimeBudget(20.0),
                                   seed=3, max_trials=12)
        expert = expert_params(ds.task, 900, "leaf_wise")
        assert history.params[0]["learning_rate"] == expert.learning_rate
        assert history.params[0]["max_leaves"] == expert.max_leaves
        best = history.best_index()
        assert history.scores[best] == max(history.scores)
        # tuned never loses to the expert trial on the tuning split
        assert history.scores[best] >= history.scores[0] - 1e-9

    def test_trial_count_never_exceeds_cap(self):
        ds = self._dataset(seed=1)
        folds = make_folds(CVScheme("kfold", k=4, seed=0), ds)
        _, history = tune_gbm(GBMFolds(ds, folds), "symmetric_depth_wise",
                              TimeBudget(15.0), max_trials=5)
        assert len(history) <= 5

    def test_all_trials_inside_search_space(self):
        ds = self._dataset(seed=2)
        folds = make_folds(CVScheme("kfold", k=4, seed=0), ds)
        space = SearchSpace.for_flavor("leaf_wise")
        _, history = tune_gbm(GBMFolds(ds, folds), "leaf_wise", TimeBudget(15.0),
                              max_trials=14)
        for cand in history.params:
            for dim in space.dims:
                assert dim.low <= cand[dim.name] <= dim.high
