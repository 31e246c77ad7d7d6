"""Fold workers: `fit_gbm` trains a phase's folds on threads, capped by
LAMA_THREADS, with models bit-identical at any worker count, fold-order
results and errors, a budget split by waves, and no thread left behind."""

import dataclasses
import json
import math
import os
import sys
import threading
import time
import zipfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autotab
from autotab import budget as budget_module
from autotab import learners
from autotab.artifact import save_model
from autotab.budget import TimeBudget
from autotab.data import dataset_from_arrays
from autotab.errors import ConfigError
from autotab.gbm import GBMParams
from autotab.learners import GBMFolds, fit_gbm
from autotab.pipeline import PresetConfig, fit_preset
from autotab.threads import thread_cap, worker_count
from autotab.validation import CVScheme, make_folds

from conftest import make_binary

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _dataset(task_kind: str, seed: int, n: int = 150):
    """Three numeric columns (one with NaN) and one category column."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    X[:, 3] = rng.integers(0, 5, size=n)
    X[rng.random(n) < 0.15, 1] = np.nan
    score = X[:, 0] + 0.5 * X[:, 3] + rng.normal(size=n)
    if task_kind == "binary":
        y = (score > np.median(score)).astype(np.int64)
    elif task_kind == "multiclass":
        y = np.digitize(score, np.quantile(score, [1 / 3, 2 / 3]))
    else:
        y = score
    return dataset_from_arrays(X, y, task_kind, category_columns=["f3"])


def _fit(data, params, threads: str, **kwargs):
    with mock.patch.dict(os.environ, {"LAMA_THREADS": threads}):
        return fit_gbm(data, params, patience=3, **kwargs)


def _assert_same_model(a, b):
    assert a.oof.tobytes() == b.oof.tobytes() and a.metric_oof == b.metric_oof
    assert a.truncated == b.truncated
    assert json.dumps(a.extra["eval_histories"]) == json.dumps(b.extra["eval_histories"])
    assert len(a.estimators) == len(b.estimators)
    for ea, eb in zip(a.estimators, b.estimators):
        assert ea.base_score.tobytes() == eb.base_score.tobytes()
        for field in dataclasses.fields(ea.forest):
            fa, fb = getattr(ea.forest, field.name), getattr(eb.forest, field.name)
            assert fa.dtype == fb.dtype and fa.tobytes() == fb.tobytes()


@settings(max_examples=20, deadline=None)
@given(task_kind=st.sampled_from(["binary", "multiclass", "regression"]),
       flavor=st.sampled_from(["leaf_wise", "symmetric_depth_wise"]),
       k=st.sampled_from([2, 3, 5]), seed=st.integers(0, 3),
       subsample=st.sampled_from([0.7, 1.0]), colsample=st.sampled_from([0.6, 1.0]))
def test_models_are_bit_identical_at_any_worker_count(task_kind, flavor, k, seed,
                                                      subsample, colsample):
    ds = _dataset(task_kind, seed)
    data = GBMFolds(ds, make_folds(CVScheme("kfold", k=k, seed=seed), ds))
    params = GBMParams(learning_rate=0.3, n_estimators_cap=15, max_leaves=6, max_depth=3,
                       subsample=subsample, colsample=colsample, min_data_in_leaf=3,
                       flavor=flavor)
    one, two = (_fit(data, params, w, seed=seed) for w in ("1", "2"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more workers than cores, handing the GIL over often
    try:
        three = _fit(data, params, "3", seed=seed)
    finally:
        sys.setswitchinterval(interval)
    _assert_same_model(one, two)
    _assert_same_model(one, three)


def _artifact_entries(model, path) -> dict:
    """The artifact's entries, with the manifest's timing fields dropped:
    they differ between any two runs, whatever the worker count."""
    save_model(model, str(path))
    timing = {"elapsed", "allocated", "seconds", "wallclock_seconds", "training_seconds"}

    def untimed(node):
        if isinstance(node, dict):
            return {k: untimed(v) for k, v in node.items() if k not in timing}
        if isinstance(node, list):
            if len(node) == 2 and isinstance(node[0], str) and node[0] in timing:
                return None  # a report dict's [key, value] item
            return [untimed(v) for v in node]
        return node

    with zipfile.ZipFile(path) as z:
        entries = {name: z.read(name) for name in z.namelist()}
    manifest = untimed(json.loads(entries.pop("manifest.json")))
    return {"manifest.json": json.dumps(manifest).encode(), **entries}


def _small_preset(seed: int = 3):
    X, y = make_binary(400, 5, 3, seed=seed)
    ds = dataset_from_arrays(X, y, "binary")
    return ds, PresetConfig(cv=CVScheme("stratified_kfold", k=3, seed=0),
                            tuning_enabled=False, stack_policy="always",
                            budget_seconds=3600.0, seed=seed)


def test_artifacts_are_byte_identical_at_one_and_the_default_worker_count(tmp_path,
                                                                           monkeypatch):
    ds, config = _small_preset()
    monkeypatch.setenv("LAMA_THREADS", "1")
    serial = _artifact_entries(fit_preset(ds, config), tmp_path / "serial.lama")
    monkeypatch.delenv("LAMA_THREADS")
    pooled = _artifact_entries(fit_preset(ds, config), tmp_path / "pooled.lama")
    assert serial.keys() == pooled.keys()
    for name in serial:
        assert serial[name] == pooled[name], name


def test_fit_preset_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setenv("LAMA_THREADS", "3")
    ds, config = _small_preset(seed=5)
    before = threading.active_count()
    fit_preset(ds, config)
    assert threading.active_count() == before


def test_the_lowest_failing_fold_raises(monkeypatch):
    """Fold 2 fails first in time, fold 1 first in fold order: fold 1's
    error is raised, as a serial loop would, and the pool is gone after."""
    ds = _dataset("binary", 0)
    data = GBMFolds(ds, make_folds(CVScheme("kfold", k=3, seed=0), ds))
    real = learners.fit_booster

    def failing(*, seed, **kwargs):
        if seed == 1:
            time.sleep(0.2)
            raise ValueError("fold 1")
        if seed == 2:
            raise ValueError("fold 2")
        return real(seed=seed, **kwargs)

    monkeypatch.setattr(learners, "fit_booster", failing)
    before = threading.active_count()
    with pytest.raises(ValueError, match="fold 1"):
        _fit(data, GBMParams(n_estimators_cap=5), "3")
    assert threading.active_count() == before


class _Clock:
    """A fake time.monotonic that moves only when a fold advances it."""

    def __init__(self) -> None:
        self.now, self.lock = 0.0, threading.Lock()

    def monotonic(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        with self.lock:
            self.now += seconds


class _Parent(TimeBudget):
    """A budget that remembers, per thread, the last remaining() it returned."""

    seen: dict

    def remaining(self) -> float:
        left = super().remaining()
        self.seen[threading.get_ident()] = left
        return left


@pytest.mark.parametrize("workers,k", [(1, 5), (1, 3), (2, 5), (3, 5)])
def test_fold_budgets_divide_the_time_left_by_the_waves_left(monkeypatch, workers, k):
    clock = _Clock()
    monkeypatch.setattr(budget_module, "time", SimpleNamespace(monotonic=clock.monotonic))
    ds = _dataset("binary", 1)
    data = GBMFolds(ds, make_folds(CVScheme("kfold", k=k, seed=0), ds))
    parent = _Parent(100.0, started_at=0.0)
    parent.seen = {}
    grants = {}  # fold -> (sub-budget seconds, parent's remaining when it was carved)
    real = learners.fit_booster

    def recording(*, budget, seed, **kwargs):
        grants[seed] = budget.total_seconds, parent.seen[threading.get_ident()]
        clock.advance(1.0 + 2.0 * seed)
        return real(seed=seed, **kwargs)

    monkeypatch.setattr(learners, "fit_booster", recording)
    _fit(data, GBMParams(n_estimators_cap=3), str(workers), budget=parent)
    assert sorted(grants) == list(range(k))
    for f, (sub, left) in grants.items():
        assert sub == pytest.approx(left / math.ceil((k - f) / workers), rel=1e-12)
        assert sub <= left
    if workers == 1:  # the serial split: the time left over the folds left
        left = 100.0
        for f in range(k):
            assert grants[f][0] == pytest.approx(left / (k - f), rel=1e-12)
            left -= 1.0 + 2.0 * f


@pytest.mark.parametrize("raw,cap", [(None, None), ("", None), ("1", 1), ("3", 3),
                                     (" 2 ", 2)])
def test_lama_threads_parses_to_a_positive_cap(monkeypatch, raw, cap):
    """The fold workers and the numeric pools take the same parsed cap."""
    if raw is None:
        monkeypatch.delenv("LAMA_THREADS", raising=False)
    else:
        monkeypatch.setenv("LAMA_THREADS", raw)
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert thread_cap() == cap
    assert worker_count() == (cap or len(os.sched_getaffinity(0)))
    autotab._apply_thread_cap()
    assert [os.environ.get(var) for var in THREAD_VARS] == [cap and str(cap)] * 4


@pytest.mark.parametrize("raw", ["0", "-2", "two", "1.5", "2 threads"])
def test_a_bad_lama_threads_is_a_config_error(monkeypatch, raw):
    """The numeric pools' cap and the fold workers read the same parse:
    neither passes a bad value through."""
    monkeypatch.setenv("LAMA_THREADS", raw)
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    with pytest.raises(ConfigError, match="LAMA_THREADS"):
        autotab._apply_thread_cap()
    assert not any(var in os.environ for var in THREAD_VARS)
    ds = _dataset("binary", 0)
    data = GBMFolds(ds, make_folds(CVScheme("kfold", k=2, seed=0), ds))
    with pytest.raises(ConfigError, match="LAMA_THREADS"):
        fit_gbm(data, GBMParams(n_estimators_cap=3))

