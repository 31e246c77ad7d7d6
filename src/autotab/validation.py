"""Cross-validation schemes, fold materialization, and OOF assembly."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError

CV_KINDS = ("kfold", "stratified_kfold", "group_kfold", "holdout", "time_series", "custom")


@dataclass(frozen=True)
class CVScheme:
    kind: str = "kfold"
    k: int = 5
    holdout_fraction: float = 0.25
    group_column: str | None = None
    time_column: str | None = None
    seed: int = 0
    fold_of_row: tuple | None = None  # custom escape hatch

    def __post_init__(self) -> None:
        if self.kind not in CV_KINDS:
            raise DataError(f"unknown cv kind {self.kind!r}")
        if self.kind in ("kfold", "stratified_kfold", "group_kfold", "time_series") and self.k < 2:
            raise DataError("k must be at least 2 for kfold variants")
        if self.kind == "holdout" and not 0.0 < self.holdout_fraction < 1.0:
            raise DataError("holdout_fraction must lie in (0, 1)")
        if self.kind == "group_kfold" and not self.group_column:
            raise DataError("group_kfold requires group_column")
        if self.kind == "time_series" and not self.time_column:
            raise DataError("time_series requires time_column")
        if self.kind == "custom" and self.fold_of_row is None:
            raise DataError("custom scheme requires an explicit fold_of_row vector")


@dataclass
class FoldAssignment:
    """Materialized split. fold_of_row == -1 marks train-only rows.

    For partitioning schemes, fold f validates rows with fold_of_row == f and
    trains on the rest. Holdout trains on -1 rows and validates fold 0.
    Time-series trains each fold on all strictly earlier rows (by the stored
    time order) and validates its own block.
    """

    fold_of_row: np.ndarray
    k: int
    scheme: CVScheme
    warnings: list[str] = field(default_factory=list)
    order: np.ndarray | None = None  # time order, time_series only

    @property
    def n_rows(self) -> int:
        return int(self.fold_of_row.shape[0])

    def partitions_rows(self) -> bool:
        return bool(np.all(self.fold_of_row >= 0))

    def valid_mask(self, f: int) -> np.ndarray:
        return self.fold_of_row == f

    def train_mask(self, f: int) -> np.ndarray:
        if self.scheme.kind == "time_series":
            mask = np.zeros(self.n_rows, dtype=bool)
            positions = np.flatnonzero(self.fold_of_row[self.order] == f)
            mask[self.order[: positions[0]]] = True
            return mask
        if self.scheme.kind == "holdout":
            return self.fold_of_row == -1
        return self.fold_of_row != f

    def iter_splits(self):
        for f in range(self.k):
            yield f, np.flatnonzero(self.train_mask(f)), np.flatnonzero(self.valid_mask(f))

    def oof_mask(self) -> np.ndarray:
        """Rows that receive an out-of-fold prediction."""
        return self.fold_of_row >= 0


def make_folds(scheme: CVScheme, dataset: Dataset) -> FoldAssignment:
    """Materialize a fold assignment; deterministic given the scheme seed.

    For a classification task, each fold whose training rows lack a class
    that the target holds adds a warning: a model fitted on that fold cannot
    predict the class (the linear model's intercept for it has no finite
    optimum).
    """
    folds = _materialize(scheme, dataset)
    if dataset.task.kind != "regression":
        folds.warnings.extend(_missing_class_warnings(folds, dataset))
    return folds


def _missing_class_warnings(folds: FoldAssignment, dataset: Dataset) -> list[str]:
    y = dataset.target.astype(np.int64)
    present = np.bincount(y) > 0
    labels = list(dataset.task.labels) or [str(c) for c in range(present.shape[0])]
    out = []
    for f, tr, _ in folds.iter_splits():
        seen = np.bincount(y[tr], minlength=present.shape[0]) > 0
        missing = [labels[c] for c in np.flatnonzero(present & ~seen).tolist()]
        if missing:
            out.append(f"fold {f}: its training rows hold no row of class "
                       f"{', '.join(map(repr, missing))}")
    return out


def _materialize(scheme: CVScheme, dataset: Dataset) -> FoldAssignment:
    n = dataset.n_rows
    if scheme.kind == "custom":
        fold = np.asarray(scheme.fold_of_row, dtype=np.int32)
        if fold.shape[0] != n:
            raise DataError("custom fold_of_row length does not match the dataset")
        if fold.max(initial=-1) < 0:
            raise DataError("custom fold_of_row has no validation folds")
        return FoldAssignment(fold, int(fold.max()) + 1, scheme)
    if scheme.kind == "holdout":
        rng = np.random.default_rng(scheme.seed)
        n_hold = max(1, int(np.floor(scheme.holdout_fraction * n)))
        fold = np.full(n, -1, dtype=np.int32)
        fold[rng.permutation(n)[:n_hold]] = 0
        return FoldAssignment(fold, 1, scheme)

    if scheme.k > n:
        raise DataError(f"k={scheme.k} exceeds the number of rows ({n})")

    if scheme.kind == "kfold":
        return FoldAssignment(kfold_vector(n, scheme.k, scheme.seed), scheme.k, scheme)

    if scheme.kind == "stratified_kfold":
        if dataset.task.kind == "regression":
            raise DataError("stratified folds require a classification target")
        y = dataset.target
        counts = np.bincount(y.astype(np.int64))
        if counts[counts > 0].min() < scheme.k:
            warn = ("a class has fewer members than k; "
                    "falling back to plain kfold")
            return FoldAssignment(kfold_vector(n, scheme.k, scheme.seed), scheme.k,
                                  scheme, warnings=[warn])
        return FoldAssignment(_stratified(y, scheme.k, scheme.seed), scheme.k, scheme)

    if scheme.kind == "group_kfold":
        if scheme.group_column not in dataset.columns:
            raise DataError(f"group column {scheme.group_column!r} not in dataset")
        groups = dataset.columns[scheme.group_column].values
        return FoldAssignment(_group_kfold(groups, scheme.k), scheme.k, scheme)

    # time_series
    if scheme.time_column not in dataset.columns:
        raise DataError(f"time column {scheme.time_column!r} not in dataset")
    times = dataset.columns[scheme.time_column].values.astype(np.float64)
    fold, order = _time_series(times, scheme.k)
    return FoldAssignment(fold, scheme.k, scheme, order=order)


def kfold_vector(n: int, k: int, seed: int) -> np.ndarray:
    perm = np.random.default_rng(seed).permutation(n)
    fold = np.empty(n, dtype=np.int32)
    for f, chunk in enumerate(np.array_split(perm, k)):
        fold[chunk] = f
    return fold


def _stratified(y: np.ndarray, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    fold = np.empty(y.shape[0], dtype=np.int32)
    offset = 0
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        members = members[rng.permutation(members.shape[0])]
        # round-robin within the class; offset balances total fold sizes
        fold[members] = (np.arange(members.shape[0]) + offset) % k
        offset = (offset + members.shape[0]) % k
    return fold


def _group_kfold(groups: np.ndarray, k: int) -> np.ndarray:
    values, inverse, counts = np.unique(groups, return_inverse=True, return_counts=True)
    if values.shape[0] < k:
        raise DataError(f"group count {values.shape[0]} is below k={k}")
    # largest groups first into the currently smallest fold (value order
    # breaks ties, so the assignment is independent of row order)
    order = np.lexsort((np.arange(values.shape[0]), -counts))
    fold_sizes = np.zeros(k, dtype=np.int64)
    group_fold = np.empty(values.shape[0], dtype=np.int32)
    for g in order:
        f = int(np.argmin(fold_sizes))
        group_fold[g] = f
        fold_sizes[f] += counts[g]
    return group_fold[inverse]


def _time_series(times: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    n = times.shape[0]
    if np.isnan(times).any():
        raise DataError("time column has missing values")
    order = np.argsort(times, kind="stable")
    block = n // (k + 1)
    if block < 1:
        raise DataError(f"k={k} is too large for {n} rows under time_series")
    fold = np.full(n, -1, dtype=np.int32)
    for f in range(k):
        start = (f + 1) * block
        end = (f + 2) * block if f < k - 1 else n
        fold[order[start:end]] = f
    return fold, order


def oof_assemble(fold_predictions: list[np.ndarray], folds: FoldAssignment) -> np.ndarray:
    """Place per-fold validation predictions into one full-length array.

    Fold f's vector must cover fold f's rows in ascending row order. Rows that
    are never validated (holdout train part, the time-series base block) stay
    NaN; use folds.oof_mask() to address defined entries.
    """
    if len(fold_predictions) != folds.k:
        raise DataError(f"expected {folds.k} fold prediction vectors, "
                        f"got {len(fold_predictions)}")
    first = np.asarray(fold_predictions[0])
    shape = (folds.n_rows,) if first.ndim == 1 else (folds.n_rows, first.shape[1])
    out = np.full(shape, np.nan)
    for f in range(folds.k):
        rows = np.flatnonzero(folds.valid_mask(f))
        pred = np.asarray(fold_predictions[f], dtype=np.float64)
        if pred.shape[0] != rows.shape[0]:
            raise DataError(
                f"fold {f} prediction covers {pred.shape[0]} rows, expected {rows.shape[0]}")
        out[rows] = pred
    return out
