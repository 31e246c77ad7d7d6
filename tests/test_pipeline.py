import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from autotab.budget import TimeBudget
from autotab.data import dataset_from_arrays
from autotab import pipeline
from autotab.ensemble import apply_blend, blend_weights
from autotab.errors import BudgetError, ConfigError
from autotab.pipeline import (AutoMLModel, PhasePlan, PresetConfig, allocate_time,
                              fit_preset, stack_feature_transform, utilized_fit)

from conftest import make_binary, make_multiclass, make_regression, write_csv

SRC = Path(__file__).resolve().parents[1] / "src"


def _binary_ds(n=800, f=6, seed=0):
    X, y = make_binary(n, f, 4, seed=seed)
    return dataset_from_arrays(X, y, "binary")


def _fast_config(**kw):
    base = dict(budget_seconds=20.0, tuning_enabled=False,
                selection_strategy="none", seed=1)
    base.update(kw)
    return PresetConfig(**base)


class TestAllocateTime:
    def _plan(self):
        return PhasePlan.for_config(PresetConfig(), stack_active=False)

    def test_huge_budget_schedules_every_phase(self):
        plan = self._plan()
        budget = TimeBudget(10_000.0)
        observed = {}
        for phase, _ in plan.phases:
            alloc = allocate_time(budget, plan, observed, phase)
            assert alloc is not None and alloc > 0
            observed[phase] = 1.0  # pretend it ran quickly

    def test_tiny_budget_runs_linear_only(self):
        plan = self._plan()
        budget = TimeBudget(0.001)
        alloc = allocate_time(budget, plan, {}, "linear")
        assert alloc is not None and alloc > 0
        observed = {"linear": 0.001}
        for phase, _ in plan.phases[1:]:
            assert allocate_time(budget, plan, observed, phase) is None
            observed[phase] = None

    def test_tuned_phase_skipped_when_expert_was_slow(self):
        plan = self._plan()
        budget = TimeBudget(100.0, started_at=__import__("time").monotonic() - 80.0)
        observed = {"linear": 5.0, "gbm_leaf_expert": 15.0}
        # remaining 20s < 2 x 15s expert duration
        assert allocate_time(budget, plan, observed, "gbm_leaf_tuned") is None

    def test_share_recomputed_over_remainder(self):
        plan = self._plan()
        budget = TimeBudget(100.0)
        observed = {"linear": 10.0, "gbm_leaf_expert": 40.0, "gbm_leaf_tuned": 1.0}
        alloc = allocate_time(budget, plan, observed, "gbm_sym_expert")
        remaining = budget.remaining()
        share = 0.15 / (0.15 + 0.25)
        assert alloc == pytest.approx(min(remaining * share, remaining - 5.0), rel=1e-6)


class TestFitPresetBinary:
    def test_full_roster_blend_no_stack(self):
        ds = _binary_ds()
        model = fit_preset(ds, _fast_config(budget_seconds=60.0))
        tags = [m.learner_tag for m in model.level1]
        assert "linear" in tags or len(tags) >= 1
        assert model.level2 == []
        assert model.blend.weights.sum() == pytest.approx(1.0)
        assert model.oof_mask.all()

    def test_blend_never_below_best_single(self):
        ds = _binary_ds(seed=3)
        model = fit_preset(ds, _fast_config(budget_seconds=60.0))
        best = max(m.metric_oof for m in model.level2 or model.level1)
        assert model.metric_oof >= best - 1e-12

    def test_report_structure(self):
        ds = _binary_ds(seed=4)
        model = fit_preset(ds, _fast_config())
        report = model.report
        for key in ("typing", "encoders", "cv", "phases", "blend", "models",
                    "metric_oof_blend", "selection", "skipped"):
            assert key in report
        assert report["cv"]["kind"] == "stratified_kfold"

    def test_blend_stop_on_spent_budget_is_reported(self, monkeypatch):
        budgets = []

        def blend_on_spent_budget(*args, budget, **kwargs):
            budgets.append(budget)
            return blend_weights(*args, budget=TimeBudget(0.0), **kwargs)

        monkeypatch.setattr(pipeline, "blend_weights", blend_on_spent_budget)
        model = fit_preset(_binary_ds(n=400, seed=8),
                           _fast_config(use_gbm_sym=False, stack_policy="never"))
        assert len(budgets) == 1 and budgets[0].total_seconds == 20.0
        blend = model.report["blend"]
        assert (blend["steps"], blend["stop"]) == (0, "budget")
        assert blend["evals"] == len(blend["weights"])
        assert any(w.startswith("blend: the budget ran out") for w in model.report["warnings"])

    def test_selection_cutoff_runs(self):
        X, y = make_binary(1200, 10, 3, seed=5, noise=0.5)
        ds = dataset_from_arrays(X, y, "binary")
        model = fit_preset(ds, _fast_config(selection_strategy="cutoff",
                                            budget_seconds=40.0))
        assert 1 <= len(model.selected) <= 10
        assert model.report["selection"]["strategy"] == "cutoff"

    def test_metric_override(self):
        ds = _binary_ds(seed=6)
        model = fit_preset(ds, _fast_config(metric="neg_logloss"))
        assert model.task.metric.name == "neg_logloss"

    def test_tuning_enabled_adds_tuned_models(self):
        ds = _binary_ds(n=600, seed=7)
        cfg = _fast_config(tuning_enabled=True, use_gbm_sym=False,
                           budget_seconds=45.0)
        model = fit_preset(ds, cfg)
        tags = {m.learner_tag for m in model.level1}
        ran = {p["name"] for p in model.report["phases"]}
        assert "gbm_leaf_tuned" in ran or "gbm_leaf_tuned" in model.report["skipped"]
        assert model.report["tuning"]


class TestFitPresetMulticlass:
    def test_stack_built_by_default(self):
        X, y = make_multiclass(900, 5, 3, 3, seed=1)
        ds = dataset_from_arrays(X, y, "multiclass")
        model = fit_preset(ds, _fast_config(use_gbm_sym=False, budget_seconds=60.0))
        assert model.level2
        assert {m.learner_tag for m in model.level2} <= {"stack_gbm", "stack_linear"}
        # two levels: the level-2 learners read only level-1 predictions
        level1_tags = {m.learner_tag for m in model.level1}
        for m in model.level2:
            assert {name.rsplit("__c", 1)[0] for name in m.feature_names} <= level1_tags

    def test_stack_never_policy(self):
        X, y = make_multiclass(600, 4, 3, 3, seed=2)
        ds = dataset_from_arrays(X, y, "multiclass")
        model = fit_preset(ds, _fast_config(stack_policy="never",
                                            use_gbm_sym=False, use_gbm_leaf=False))
        assert model.level2 == []

    def test_always_policy_stacks_binary(self):
        ds = _binary_ds(n=600, seed=8)
        model = fit_preset(ds, _fast_config(stack_policy="always",
                                            use_gbm_sym=False))
        assert model.level2

    def test_failed_stack_learner_is_reported(self, monkeypatch):
        fit_linear = pipeline.fit_linear

        def failing_stack_linear(*args, tag="linear", **kwargs):
            if tag == "stack_linear":
                raise BudgetError("no time left")
            return fit_linear(*args, tag=tag, **kwargs)

        monkeypatch.setattr(pipeline, "fit_linear", failing_stack_linear)
        ds = _binary_ds(n=500, seed=3)
        model = fit_preset(ds, _fast_config(stack_policy="always", use_gbm_sym=False))
        assert [m.learner_tag for m in model.level2] == ["stack_gbm"]
        assert "stack_linear: no time left" in model.report["warnings"]

    def test_predictions_have_class_columns(self):
        X, y = make_multiclass(700, 5, 4, 3, seed=3)
        ds = dataset_from_arrays(X, y, "multiclass")
        model = fit_preset(ds, _fast_config(use_gbm_sym=False, use_gbm_leaf=False))
        preds = model.predict_dataset(ds)
        assert preds.shape == (700, 4)
        assert np.abs(preds.sum(axis=1) - 1.0).max() < 1e-9


class TestStackedPredict:
    @pytest.mark.parametrize("kind", ["binary", "multiclass"])
    def test_predict_dataset_recomputed_by_hand(self, kind):
        if kind == "binary":
            ds = _binary_ds(n=500, seed=14)
        else:
            X, y = make_multiclass(600, 5, 3, 3, seed=14)
            ds = dataset_from_arrays(X, y, "multiclass")
        model = fit_preset(ds, _fast_config(stack_policy="always", use_gbm_sym=False))
        assert model.level2
        preds = [m.predict(ds) for m in model.level1]
        names = [f"{m.learner_tag}__c{c}" for m, p in zip(model.level1, preds)
                 for c in range(p.shape[1] if p.ndim == 2 else 1)]
        X2 = stack_feature_transform(np.column_stack(preds), ds.task)
        ds2 = dataset_from_arrays(X2, ds.target, kind, feature_names=names)
        expected = apply_blend([m.predict(ds2) for m in model.level2], model.blend)
        assert np.array_equal(model.predict_dataset(ds), expected)


class TestBudgetDegradation:
    def test_tiny_budget_linear_only(self):
        ds = _binary_ds(n=2000, f=10, seed=9)
        model = fit_preset(ds, PresetConfig(budget_seconds=1.2,
                                            selection_strategy="none",
                                            tuning_enabled=True, seed=0))
        tags = [m.learner_tag for m in model.level1]
        assert tags == ["linear"]
        assert model.blend.weights.tolist() == [1.0]
        assert model.report["skipped"]

    def test_regression_task(self):
        X, y = make_regression(700, 5, 3, seed=4)
        ds = dataset_from_arrays(X, y, "regression")
        model = fit_preset(ds, _fast_config(use_gbm_sym=False))
        assert model.task.kind == "regression"
        preds = model.predict_dataset(ds)
        assert preds.shape == (700,)
        assert np.isfinite(preds).all()


class TestUtilized:
    def test_single_run_returned_verbatim(self):
        ds = _binary_ds(n=500, seed=10)
        cfg = _fast_config(budget_seconds=30.0, use_gbm_sym=False,
                           use_gbm_leaf=False)
        out = utilized_fit(ds, [cfg], [[7]], budget=TimeBudget(30.0))
        assert isinstance(out, AutoMLModel)
        direct = fit_preset(ds, PresetConfig(
            budget_seconds=out.config["budget_seconds"], tuning_enabled=False,
            selection_strategy="none", seed=7, use_gbm_sym=False,
            use_gbm_leaf=False))
        assert np.array_equal(out.oof[out.oof_mask], direct.oof[direct.oof_mask])

    def test_two_seeds_average(self):
        ds = _binary_ds(n=500, seed=11)
        cfg = _fast_config(budget_seconds=60.0, use_gbm_sym=False,
                           use_gbm_leaf=False)
        out = utilized_fit(ds, [cfg], [[1, 2]], budget=TimeBudget(60.0))
        assert len(out.runs) == 2
        assert out.blend.weights.tolist() == [1.0]
        mask = out.runs[0].oof_mask & out.runs[1].oof_mask
        avg = np.mean([r.oof for r in out.runs], axis=0)
        from autotab.metrics import evaluate
        expected = evaluate(ds.task.metric, ds.target[mask], avg[mask])
        assert out.metric_oof == pytest.approx(expected, abs=1e-12)

    def test_two_configs_blend(self):
        ds = _binary_ds(n=500, seed=12)
        cfg_a = _fast_config(budget_seconds=80.0, use_gbm_sym=False,
                             use_gbm_leaf=False)
        cfg_b = _fast_config(budget_seconds=80.0, use_gbm_leaf=True,
                             use_gbm_sym=False, use_linear=False)
        out = utilized_fit(ds, [cfg_a, cfg_b], [[1], [1]], budget=TimeBudget(80.0))
        assert len(out.runs) == 2
        assert len(out.blend.weights) == 2

    def test_no_configs_rejected(self):
        ds = _binary_ds(n=100, seed=13)
        with pytest.raises(ConfigError):
            utilized_fit(ds, [], [], budget=TimeBudget(5.0))


def test_fit_save_load_predict_import_no_scipy(tmp_path):
    """scipy is a test dependency only: a binary preset, a regression preset
    (its auto-typing counts Kendall pairs) and a linear-only multiclass
    preset fit, save, load and predict without importing it."""
    runs = []
    for kind, (X, y) in [("binary", make_binary(300, 3, 2, seed=1)),
                         ("regression", make_regression(300, 3, 2, seed=2)),
                         ("multiclass", make_multiclass(300, 3, 3, 2, seed=3))]:
        X[:, 2] = np.round(X[:, 2])  # a few integer levels for auto-typing
        rows = [[*row, label] for row, label in zip(X.tolist(), y.tolist())]
        csv = write_csv(tmp_path / f"{kind}.csv", ["a", "b", "c", "target"], rows)
        runs.append((kind, csv, str(tmp_path / f"{kind}.lama")))
    code = f"""
import sys
from autotab import PresetConfig, build_dataset, fit_preset, predict_automl, read_csv
from autotab.artifact import load_model, save_model
for kind, csv, path in {runs!r}:
    only_linear = kind == "multiclass"
    config = PresetConfig(budget_seconds=20.0, tuning_enabled=False,
                          selection_strategy="none", seed=1, use_gbm_leaf=not only_linear,
                          use_gbm_sym=False)
    save_model(fit_preset(build_dataset(read_csv(csv), "target", kind), config), path)
    pred = predict_automl(load_model(path), read_csv(csv))
    assert pred.shape[0] == 300, pred.shape
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
