"""Per-fold training of the two model classes, feature views, and inference.

A feature view turns a typed dataset into a float matrix for one learner
family and stores everything needed to repeat the mapping on new data:

* GBM view: numeric columns pass through with NaN for missing; category
  columns are target- or frequency-encoded per their encoder spec (the
  training matrix uses leak-free out-of-fold target statistics, inference
  uses the stored full-train maps).
* Linear view: numeric columns are median-imputed with a missing-indicator
  column and standardized; categories are one-hot up to cardinality 100,
  target-encoded above it.

For regression, `fit_linear` factors the linear view's rows once per run:
one QR per block of rows that the same folds train on, from which every
fold's ridge path follows (`linear.fold_ridge_paths`).

A target-encoded column `c` becomes K columns `c__te0 .. c__te{K-1}`, one
per target row of the task (`encoders.target_rows`): K = 1 for binary and
regression, the class count for multiclass.

Every GBM booster of a run trains through one `GBMFolds`: the GBM view of
all features, its OOF training matrix and, per fold, the bin mapper fitted
on the fold's training rows with the codes of every row, each built on
first use. Selection, the expert and tuned phases and every tuning trial
take column subsets of it, and a phase on a feature subset takes its view
as a subset of the run's (`GBMView.take`); the stack builds its own over its
own features. A fold's OOF predictions are the validation scores its
booster summed while it trained (`fit_gbm`).

`fit_gbm` trains a phase's folds on a pool of threads, one per CPU the
process may use or LAMA_THREADS (see `threads.py`), at most one per fold.
A tree grows in one call into the compiled kernel, which releases the GIL
and keeps no global state, so the folds overlap. Around it a boosting
iteration holds the GIL for the generator's draws, the numpy loss
transform and a few attribute lookups; its sample layout, gradients, score
update and ROC AUC are kernel calls of microseconds (see
`gbm.boosting.fit_booster`). Each fold has its own seed, kernel buffers and
codes, so the models are bit-identical at any worker count, which
tests/test_fold_workers.py checks. The kernel's buffers
live once per running booster, so their memory scales with the worker
count: a leaf-wise tree holds one (3, features, 256) float64 histogram
slot per leaf while it grows.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .budget import TimeBudget, unlimited
from .data import DEFAULT_K, Dataset, Task
from .encoders import (EncoderSpec, FrequencyMap, TargetMeanMap, fit_target_map,
                       freq_encode, oof_target_encode)
from .errors import BudgetError, DataError
from .gbm import BinMapper, GBMParams, fit_booster
from .linear import LinearParams, fit_lambda_path, fold_ridge_paths, solve, unpack
from .metrics import evaluate
from .stopping import PATIENCE
from .threads import worker_count
from .validation import FoldAssignment, oof_assemble, kfold_vector

__all__ = ["TrainedModel", "GBMView", "GBMFolds", "LinearView", "fit_gbm", "fit_linear",
           "LinearParams", "GBMParams"]

ONE_HOT_MAX_CARDINALITY = 100


def _encoding_fold_vector(folds: FoldAssignment) -> tuple[np.ndarray, np.ndarray]:
    """Fold vector usable for OOF target encoding, plus a mask of rows that
    must be encoded with full-train statistics instead (holdout rows).

    Holdout: internal kfold over the train part, map encoding for the rest.
    Time series: internal kfold over all rows (the scheme's expanding windows
    cannot partition rows).
    """
    fold = folds.fold_of_row
    n = fold.shape[0]
    if folds.partitions_rows() and folds.k >= 2:
        return fold.astype(np.int64), np.zeros(n, dtype=bool)
    seed = folds.scheme.seed
    if folds.scheme.kind == "holdout":
        train = fold == -1
        inner = np.full(n, -1, dtype=np.int64)
        inner[train] = kfold_vector(int(train.sum()), DEFAULT_K, seed)
        return inner, ~train
    return kfold_vector(n, DEFAULT_K, seed).astype(np.int64), np.zeros(n, dtype=bool)


def _oof_encoded(values: np.ndarray, dataset: Dataset,
                 folds: FoldAssignment) -> np.ndarray:
    """The (n, K) target encoding of the training rows."""
    y, n_classes = dataset.target, dataset.task.encoding_classes
    enc_fold, map_rows = _encoding_fold_vector(folds)
    if not map_rows.any():
        return oof_target_encode(values, y, enc_fold, n_classes=n_classes)
    tr = ~map_rows
    out = fit_target_map(values[tr], y[tr], n_classes=n_classes).apply(values)
    out[tr] = oof_target_encode(values[tr], y[tr], enc_fold[tr], n_classes=n_classes)
    return out


def _te_names(name: str, mapping: TargetMeanMap) -> list[str]:
    return [f"{name}__te{c}" for c in range(mapping.means.shape[1])]


@dataclass
class GBMView:
    feature_names: list[str] = field(default_factory=list)
    groups: dict[str, list[int]] = field(default_factory=dict)
    numeric: list[str] = field(default_factory=list)
    freq_maps: dict[str, FrequencyMap] = field(default_factory=dict)
    target_maps: dict[str, TargetMeanMap] = field(default_factory=dict)

    def fit(self, dataset: Dataset, enc_specs: dict[str, EncoderSpec] | None = None
            ) -> "GBMView":
        enc_specs = enc_specs or {}
        for name in dataset.feature_names():
            col = dataset.columns[name]
            if col.kind == "numeric":
                self.numeric.append(name)
                new_names = [name]
            elif enc_specs.get(name, EncoderSpec("oof_target")).kind == "frequency":
                self.freq_maps[name], _ = freq_encode(col.values)
                new_names = [f"{name}__freq"]
            else:
                self.target_maps[name] = fit_target_map(
                    col.values, dataset.target, n_classes=dataset.task.encoding_classes)
                new_names = _te_names(name, self.target_maps[name])
            start = len(self.feature_names)
            self.groups[name] = list(range(start, start + len(new_names)))
            self.feature_names.extend(new_names)
        return self

    def _matrix(self, dataset: Dataset, folds: FoldAssignment | None) -> np.ndarray:
        out = np.empty((dataset.n_rows, len(self.feature_names)))
        for name, idx in self.groups.items():
            values = dataset.columns[name].values
            if name in self.numeric:
                out[:, idx[0]] = values
            elif name in self.freq_maps:
                out[:, idx[0]] = self.freq_maps[name].apply(values)
            elif folds is None:
                out[:, idx] = self.target_maps[name].apply(values)
            else:
                out[:, idx] = _oof_encoded(values, dataset, folds)
        return out

    def train_matrix(self, dataset: Dataset, folds: FoldAssignment) -> np.ndarray:
        return self._matrix(dataset, folds)

    def transform(self, dataset: Dataset) -> np.ndarray:
        return self._matrix(dataset, None)

    def take(self, names: list[str]) -> "GBMView":
        """The view of features `names` alone, in that order. A feature's
        encoding depends on that feature only, so this equals fitting a view
        on `names`, and its columns are this view's columns of `names`."""
        out = GBMView()
        for name in names:
            if name in self.numeric:
                out.numeric.append(name)
            elif name in self.freq_maps:
                out.freq_maps[name] = self.freq_maps[name]
            else:
                out.target_maps[name] = self.target_maps[name]
            start = len(out.feature_names)
            out.groups[name] = list(range(start, start + len(self.groups[name])))
            out.feature_names.extend(self.feature_names[c] for c in self.groups[name])
        return out


class GBMFolds:
    """The GBM training data of one dataset and fold assignment, shared by
    every booster trained on it (see the module docstring). A booster on
    columns `cols` takes `codes[:, cols]` and `mapper.take(cols)`: a column's
    encoding and bin edges depend on that column alone, so these equal
    encoding and binning the subset from scratch.

    Its parts are built on first use and without a lock: `fit_gbm` takes
    every fold's inputs in the calling thread before its workers start."""

    def __init__(self, dataset: Dataset, folds: FoldAssignment,
                 enc_specs: dict[str, EncoderSpec] | None = None) -> None:
        self.dataset, self.folds, self.enc_specs = dataset, folds, enc_specs
        self.splits = [(tr, va) for _, tr, va in folds.iter_splits()]
        self._binned: dict[int, tuple[BinMapper, np.ndarray]] = {}  # fold -> mapper, codes

    @functools.cached_property
    def view(self) -> GBMView:
        return GBMView().fit(self.dataset, self.enc_specs)

    @functools.cached_property
    def X(self) -> np.ndarray:
        return self.view.train_matrix(self.dataset, self.folds)

    def columns(self, selected: list[str] | None = None) -> np.ndarray:
        """The columns of `X` that encode `selected` (every feature when None)."""
        names = self.view.groups if selected is None else selected
        return np.array([c for n in names for c in self.view.groups[n]], dtype=np.int64)

    def inputs(self, f: int, cols: np.ndarray | list[int], validate: bool = True) -> dict:
        """`fit_booster`'s data arguments for fold f on columns `cols`, with or
        without its validation rows; the fold is binned on first use."""
        tr, va = self.splits[f]
        if f not in self._binned:
            mapper = BinMapper().fit(self.X[tr])
            self._binned[f] = mapper, mapper.transform(self.X)
        mapper, codes = self._binned[f]
        task, y = self.dataset.task, self.dataset.target
        out = dict(X=codes[np.ix_(tr, cols)], y=y[tr], task_kind=task.kind,
                   n_classes=task.n_classes, mapper=mapper.take(cols))
        if validate:
            out.update(X_val=codes[np.ix_(va, cols)], y_val=y[va], metric=task.metric)
        return out


@dataclass
class LinearView:
    feature_names: list[str] = field(default_factory=list)
    numeric: list[str] = field(default_factory=list)
    medians: dict[str, float] = field(default_factory=dict)
    with_indicator: list[str] = field(default_factory=list)
    means: np.ndarray | None = None
    stds: np.ndarray | None = None
    onehot: dict[str, int] = field(default_factory=dict)  # name -> cardinality
    target_maps: dict[str, TargetMeanMap] = field(default_factory=dict)
    source_order: list[str] = field(default_factory=list)
    _std_cols: list[int] = field(default_factory=list)
    _fitted = None  # (dataset, its matrix) from fit, until train_matrix takes it

    def fit(self, dataset: Dataset, selected: list[str] | None = None) -> "LinearView":
        names = selected if selected is not None else dataset.feature_names()
        self.source_order = list(names)
        col_idx = 0
        for name in names:
            col = dataset.columns[name]
            if col.kind == "numeric":
                finite = col.values[~np.isnan(col.values)]
                self.medians[name] = float(np.median(finite)) if finite.size else 0.0
                self.numeric.append(name)
                self.feature_names.append(name)
                self._std_cols.append(col_idx)
                col_idx += 1
                if np.isnan(col.values).any():
                    self.with_indicator.append(name)
                    self.feature_names.append(f"{name}__isna")
                    col_idx += 1
                continue
            card = int(col.dictionary.shape[0])
            if card <= ONE_HOT_MAX_CARDINALITY:
                self.onehot[name] = card
                self.feature_names.extend(f"{name}__oh{i}" for i in range(card))
                col_idx += card
            else:
                self.target_maps[name] = fit_target_map(
                    col.values, dataset.target, n_classes=dataset.task.encoding_classes)
                te_names = _te_names(name, self.target_maps[name])
                self.feature_names.extend(te_names)
                self._std_cols.extend(range(col_idx, col_idx + len(te_names)))
                col_idx += len(te_names)
        # standardization statistics come from the inference-style encoding;
        # the next train_matrix on this dataset reuses the matrix, standardized,
        # and encodes only its target-mapped columns again, out of fold
        X = self._matrix(dataset, None)
        raw = X[:, self._std_cols]
        self.means = raw.mean(axis=0)
        stds = raw.std(axis=0)
        self.stds = np.where(stds < 1e-12, 1.0, stds)
        X[:, self._std_cols] = (raw - self.means) / self.stds
        self._fitted = (dataset, X)
        return self

    def _matrix(self, dataset: Dataset, folds: FoldAssignment | None,
                out: np.ndarray | None = None) -> np.ndarray:
        """The C-ordered model matrix, each standardized column written as
        (x - mean) / std once `fit` has set the statistics (before, as x).
        Target-mapped columns are encoded out of fold under `folds` and with
        the full maps when it is None. Given `out`, this view's matrix of the
        same dataset, only its target-mapped columns are written."""
        fill_all = out is None
        if fill_all:
            out = np.zeros((dataset.n_rows, len(self.feature_names)))
        col_idx = std = 0  # std: standardized columns written so far
        for name in self.source_order:
            values = dataset.columns[name].values
            if name in self.target_maps:
                if folds is None:
                    enc = self.target_maps[name].apply(values)
                else:
                    enc = _oof_encoded(values, dataset, folds)
                out[:, col_idx: col_idx + enc.shape[1]] = self._standardized(enc, std)
                col_idx += enc.shape[1]
                std += enc.shape[1]
            elif name in self.onehot:
                card = self.onehot[name]
                if fill_all:
                    rows = np.flatnonzero((values >= 0) & (values < card))
                    out[rows, col_idx + values[rows]] = 1.0
                col_idx += card
            else:
                if fill_all:
                    mask = np.isnan(values)
                    out[:, col_idx] = self._standardized(
                        np.where(mask, self.medians[name], values), std)
                    if name in self.with_indicator:
                        out[:, col_idx + 1] = mask.astype(np.float64)
                col_idx += 1 + (name in self.with_indicator)
                std += 1
        return out

    def _standardized(self, x: np.ndarray, first: int) -> np.ndarray:
        """x, one column or a block, as standardized columns first, first + 1,
        ...; x itself until `fit` has set the statistics."""
        if self.means is None:
            return x
        last = first + (1 if x.ndim == 1 else x.shape[1])
        return (x - self.means[first:last]) / self.stds[first:last]

    def train_matrix(self, dataset: Dataset, folds: FoldAssignment) -> np.ndarray:
        fitted, self._fitted = self._fitted, None
        if fitted is not None and fitted[0] is dataset:
            return self._matrix(dataset, folds, out=fitted[1])
        return self._matrix(dataset, folds)

    def transform(self, dataset: Dataset) -> np.ndarray:
        return self._matrix(dataset, None)


@dataclass
class TrainedModel:
    """One logical learner: per-fold estimators plus its OOF predictions."""

    learner_tag: str
    task: Task
    view: GBMView | LinearView
    estimators: list
    oof: np.ndarray
    oof_mask: np.ndarray
    metric_oof: float
    training_seconds: float
    feature_names: list[str]
    truncated: bool = False
    extra: dict = field(default_factory=dict)

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        preds = [est.predict(X) for est in self.estimators]
        return np.mean(preds, axis=0)

    def predict(self, dataset: Dataset) -> np.ndarray:
        """Fold-averaged prediction in probability space for classifiers."""
        return self.predict_matrix(self.view.transform(dataset))


def fit_gbm(data: GBMFolds, params: GBMParams, budget: TimeBudget | None = None,
            selected: list[str] | None = None, seed: int = 0,
            patience: int = PATIENCE, tag: str | None = None) -> TrainedModel:
    """Train one GBM per fold on the `selected` features of `data` with
    early stopping on the fold's validation rows.

    The folds train on `w = min(k, threads.worker_count())` threads (see
    the module docstring). A fold gets the time left divided by the waves
    of w folds left when it starts, `remaining / ceil((k - f) / w)`, which
    at w = 1 is an even split across the remaining folds. Results are
    assembled in fold order, and if folds fail, the lowest failing fold's
    error is raised; no thread outlives the call.

    A fold's OOF predictions are its booster's validation scores at the
    kept iteration (`FitResult.val_raw`), not a second pass of its rows
    through the trees: the two are equal bit for bit, since a raw value
    passes a raw threshold exactly when its bin code passes the bin
    threshold, and each row adds its leaf values in the same order."""
    budget = budget or unlimited()
    start = time.monotonic()
    folds, task, y = data.folds, data.dataset.task, data.dataset.target
    cols = data.columns(selected)
    if cols.size == 0:
        raise DataError("no usable features for the GBM")
    whole = selected is None or list(selected) == list(data.view.groups)
    view = data.view if whole else data.view.take(selected)

    # imported here: concurrent.futures loads logging, about 7 ms that
    # importing autotab to predict need not pay
    from concurrent.futures import ThreadPoolExecutor

    k = folds.k
    workers = min(k, worker_count())
    inputs = [data.inputs(f, cols) for f in range(k)]  # shared data: built here, once

    def fit_fold(f: int):
        sub = TimeBudget(budget.remaining() / math.ceil((k - f) / workers))  # waves left
        return fit_booster(params=params, budget=sub, seed=seed + f, patience=patience,
                           **inputs[f])

    with ThreadPoolExecutor(workers) as pool:
        results = list(pool.map(fit_fold, range(k)))
    estimators = [res.estimator for res in results]
    fold_preds = [res.estimator.transform(res.val_raw) for res in results]
    histories = [res.eval_history for res in results]
    truncated = any(res.truncated for res in results)

    oof = oof_assemble(fold_preds, folds)
    mask = folds.oof_mask()
    metric_oof = evaluate(task.metric, y[mask], oof[mask])
    return TrainedModel(
        tag or f"gbm_{params.flavor}", task, view, estimators, oof, mask,
        metric_oof, time.monotonic() - start, view.feature_names,
        truncated=truncated, extra={"eval_histories": histories, "params": params})


def fit_linear(dataset: Dataset, folds: FoldAssignment,
               params: LinearParams | None = None,
               budget: TimeBudget | None = None,
               selected: list[str] | None = None,
               tag: str = "linear") -> TrainedModel:
    """Train the L2 linear model per fold along the regularization path.

    Regression factors each block of rows once per run, a block being the
    rows that the same folds train on (one per fold for k-fold schemes), and
    hands each fold's path the combined factor of its blocks (see
    `linear.fold_ridge_paths`); the path scores its whole strength grid
    from one product. Binary and multiclass folds solve each strength by
    warm-started Newton steps.

    The budget must admit the first fold's path; later folds degrade to a
    single solve at the best strength found so far, which a regression fold
    takes from its own factor.
    """
    budget = budget or unlimited()
    params = params or LinearParams()
    start = time.monotonic()
    task = dataset.task
    view = LinearView().fit(dataset, selected)
    if not view.feature_names:
        raise DataError("no usable features for the linear model")
    X = view.train_matrix(dataset, folds)
    y = dataset.target
    y_fit = y.astype(np.float64) if task.kind != "multiclass" else y
    metric = task.metric
    ridges = ([None] * folds.k if task.kind != "regression" else
              fold_ridge_paths(X, y_fit, folds))

    estimators = []
    fold_preds = []
    histories = []
    best_lam = None
    truncated = False
    for f, tr, va in folds.iter_splits():
        if f == 0 and budget.expired():
            raise BudgetError("time budget exhausted before the first linear fold")
        if f > 0 and budget.expired() and best_lam is not None:
            x = (ridges[f].solve(best_lam) if ridges[f] is not None else
                 solve(X[tr], y_fit[tr], best_lam, task.kind, task.n_classes,
                       max_iterations=params.max_iterations, tolerance=params.tolerance))
            est = unpack(x, X.shape[1], task.kind, task.n_classes, best_lam)
            score = evaluate(metric, y[va], est.predict(X[va]))
            history = [score]
            truncated = True
        else:
            # a regression fold's path reads its training rows from its factor
            X_tr, y_tr = (None, None) if ridges[f] is not None else (X[tr], y_fit[tr])
            est, score, history = fit_lambda_path(
                X_tr, y_tr, X[va], y[va], task.kind, task.n_classes,
                metric, params, budget=budget, ridge=ridges[f])
        best_lam = est.lam
        estimators.append(est)
        fold_preds.append(est.predict(X[va]))
        histories.append(history)

    oof = oof_assemble(fold_preds, folds)
    mask = folds.oof_mask()
    metric_oof = evaluate(metric, y[mask], oof[mask])
    return TrainedModel(
        tag, task, view, estimators, oof, mask, metric_oof,
        time.monotonic() - start, view.feature_names, truncated=truncated,
        extra={"lambda_histories": histories, "params": params})
