"""One benchmark operation, its output checks, and the measurement loop.

An operation is what a user does: read the training CSV, build the dataset,
fit the preset, save and load the model, then predict a held-out CSV. Each
operation runs on its own sample of the workload seed.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from autotab import (CVScheme, PresetConfig, build_dataset, fit_preset,
                     predict_automl, read_csv)
from autotab.artifact import load_model, save_model

import speed
import tracing
from workloads import Table, Workload

QUALITY_SAMPLES = 3  # oof_metric is their median; holdout_metric pools their tables
# A prediction takes well under a second, so each operation times it a few
# times and keeps the median.
PREDICT_REPEATS = 3


@dataclass
class Inputs:
    workload: Workload
    train: Table
    holdout: Table
    train_csv: str
    holdout_csv: str
    model_path: str


@dataclass
class OpResult:
    fit_s: float = 0.0
    fit_preset_s: float = 0.0
    predict_s: float = 0.0
    fit_cal_s: float = float("nan")  # calibrated seconds (see speed.py)
    predict_cal_s: float = float("nan")
    oof_metric: float = float("nan")
    holdout_metric: float = float("nan")
    holdout: tuple | None = None  # (labels, predictions) of the held-out table
    digest: str = ""  # hash of the held-out predictions
    failure: dict | None = None  # why the operation counts as failed
    wrong_output: bool = False
    layers: dict = field(default_factory=dict)


def prepare(workload: Workload, seed: int, index: int, workdir: str) -> Inputs:
    train, holdout = workload.tables(seed, index)
    paths = [os.path.join(workdir, name) for name in ("train.csv", "holdout.csv", "model.lama")]
    train.write(paths[0])
    holdout.write(paths[1], drop=workload.target)
    return Inputs(workload, train, holdout, *paths)


def preset_config(workload: Workload) -> PresetConfig:
    kw = dict(workload.config)
    if "cv_k" in kw:
        kind = "kfold" if workload.task == "regression" else "stratified_kfold"
        kw["cv"] = CVScheme(kind, k=kw.pop("cv_k"), seed=42)
    return PresetConfig(seed=42, **kw)


def holdout_labels(inputs: Inputs) -> np.ndarray:
    """Held-out targets, class labels coded in sorted order as autotab does."""
    target = inputs.workload.target
    cells = inputs.holdout.cells[inputs.holdout.header.index(target)]
    if inputs.workload.task == "regression":
        return np.array([float(c) for c in cells])
    labels = sorted(set(inputs.train.cells[inputs.train.header.index(target)]))
    return np.array([labels.index(c) for c in cells])


def score(workload: Workload, y: np.ndarray, pred: np.ndarray) -> float:
    """The workload's metric, computed here and not by the library."""
    if workload.task == "binary":  # ROC AUC via average ranks
        r = rankdata(pred)
        pos = y == 1
        n1, n0 = int(pos.sum()), int((~pos).sum())
        return float((r[pos].sum() - n1 * (n1 + 1) / 2) / (n1 * n0))
    if workload.task == "multiclass":  # negated log loss
        p = np.clip(pred[np.arange(len(y)), y], 1e-15, 1.0)
        return float(np.mean(np.log(p)))
    if workload.config.get("metric") != "r2":
        raise ValueError("regression workloads are scored by r2")
    return float(1.0 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2))


def check_predictions(task: str, n_classes: int, n_rows: int, pred: np.ndarray) -> str | None:
    """Why the predictions are invalid, or None when they are fine."""
    shape = (n_rows, n_classes) if task == "multiclass" else (n_rows,)
    if pred.shape != shape:
        return f"prediction shape {pred.shape}, expected {shape}"
    if not np.all(np.isfinite(pred)):
        return "non-finite predictions"
    if task != "regression" and (pred.min() < 0.0 or pred.max() > 1.0):
        return "probabilities outside [0, 1]"
    if task == "multiclass" and np.max(np.abs(pred.sum(axis=1) - 1.0)) > 1e-9:
        return "class probabilities do not sum to 1"
    return None


def _where(exc: BaseException) -> str:
    """The innermost library frame an exception passed through."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__)
              if f"{os.sep}autotab{os.sep}" in f.filename]
    if not frames:
        return "benchmark"
    f = frames[-1]
    path = f.filename.split(f"{os.sep}autotab{os.sep}", 1)[1]
    return f"autotab/{path}:{f.lineno} in {f.name}"


def run_op(inputs: Inputs, tracer: tracing.Tracer | None) -> OpResult:
    """One operation. Exceptions are recorded as failures, never retried."""
    w = inputs.workload
    out = OpResult()
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    # Probes inside traced spans would count as library time, and probes
    # inside a budgeted fit would take time from its budget.
    probing = tracer is None
    stage = "read_csv"
    try:
        with speed.Stopwatch(probing and w.fixed_work) as fit_watch, span("op.fit"):
            with span("data.read_csv"):
                raw = read_csv(inputs.train_csv, target_name=w.target)
            stage = "build_dataset"
            with span("data.build_dataset"):
                dataset = build_dataset(raw, w.target, w.task)
            stage = "fit_preset"
            t1 = time.perf_counter()
            with span("pipeline.fit_preset"):
                model = fit_preset(dataset, preset_config(w))
            out.fit_preset_s = time.perf_counter() - t1
        out.fit_s, out.fit_cal_s = fit_watch.wall_s, fit_watch.calibrated_s
        del raw, dataset
        stage = "save_model"
        with span("artifact.save"):
            save_model(model, inputs.model_path)
        stage = "predict"
        watches = []
        for _ in range(PREDICT_REPEATS):
            with speed.Stopwatch(probing) as watch, span("op.predict"):
                with span("artifact.load"):
                    loaded = load_model(inputs.model_path)
                with span("data.read_csv_holdout"):
                    raw_h = read_csv(inputs.holdout_csv)
                with span("pipeline.predict_automl"):
                    pred = predict_automl(loaded, raw_h)
            watches.append(watch)
        out.predict_s = statistics.median(x.wall_s for x in watches)
        out.predict_cal_s = statistics.median(x.calibrated_s for x in watches)
    except Exception as exc:  # the benchmark counts every raise as a failure
        out.failure = {"type": type(exc).__name__, "stage": stage,
                       "where": _where(exc), "message": str(exc)[:200]}
        return out

    report = model.report
    out.oof_metric = float(report["metric_oof_blend"])
    problem = check_predictions(w.task, len(model.task.labels), inputs.holdout.n_rows, pred)
    if problem is None and not np.isfinite(out.oof_metric):
        problem = "non-finite OOF metric"
    if problem is not None:
        out.failure = {"type": "WrongOutput", "stage": "predict", "where": "benchmark",
                       "message": problem}
        out.wrong_output = True
        return out
    out.holdout = (holdout_labels(inputs), pred)
    out.holdout_metric = score(w, *out.holdout)
    out.digest = hashlib.sha256(np.ascontiguousarray(pred).tobytes()).hexdigest()[:16]
    if w.fixed_work:
        truncated = [p["name"] for p in report["phases"] if p.get("truncated")]
        if truncated or tracing.skipped_phases(report):
            out.failure = {"type": "PhaseCut", "stage": "fit_preset", "where": "benchmark",
                           "message": f"truncated {truncated}, skipped {report['skipped']}, "
                                      f"selection {report.get('selection', {}).get('skipped')}"}
    if tracer is not None:
        cells = inputs.train.n_rows * len(inputs.train.header)
        out.layers = tracing.layer_metrics(tracer.spans, report, cells,
                                           os.path.getsize(inputs.model_path))
    return out


def measure(workload: Workload, seed: int, workdir: str, seconds: float,
            traced: bool) -> tuple[list[tuple[bool, int, OpResult]], dict]:
    """Run operations until the next one would end past `seconds`.

    Operation i runs on the seed's i-th sample (see `Workload.tables`), so a
    run's medians cover several held-out tables. Untraced runs make at
    least QUALITY_SAMPLES operations. Traced runs make pairs: an untraced and
    a traced operation on the same sample, which must agree bit for bit on a
    fixed-work workload and whose difference is the tracing overhead. The
    loop stops at the first failure. Returns the operations (traced flag,
    sample index, result) and the traffic of sample 0.
    """
    tracer = tracing.Tracer()
    results: list[tuple[bool, int, OpResult]] = []
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    traffic: dict = {}
    minimum = 1 if traced else QUALITY_SAMPLES
    index = 0
    while True:
        inputs = prepare(workload, seed, index, workdir)
        if index == 0:
            traffic = {"train": inputs.train.traffic(), "holdout": inputs.holdout.traffic()}
        t0 = time.perf_counter()
        for with_spans in ((False, True) if traced else (False,)):
            if with_spans:
                tracer.reset()
                tracer.install()
                try:
                    res = run_op(inputs, tracer)
                finally:
                    tracer.uninstall()
            else:
                res = run_op(inputs, None)
            results.append((with_spans, index, res))
            if res.failure is not None:
                return results, traffic
        durations.append(time.perf_counter() - t0)
        index += 1
        if index >= minimum and time.perf_counter() + statistics.median(durations) > deadline:
            return results, traffic


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
