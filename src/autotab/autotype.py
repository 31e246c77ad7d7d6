"""Numeric-vs-category inference for integer/float columns.

For each candidate column we score four encodings of its non-missing slice
against the target with Normalized Gini: the raw values, OOF-target-encoded
quantile bins, frequency encoding, and OOF target encoding. An ordered rule
list then decides whether the column stays numeric; if no rule fires the
column is re-typed as a category.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset
from .encoders import (EncoderSpec, freq_encode, norm_gini, oof_target_encode,
                       quantile_discretize, target_rows)
from .validation import FoldAssignment

TYPING_Q = 10  # quantile bins of the binned encoding scored during typing


@dataclass(frozen=True)
class ColumnTyping:
    name: str
    ng_raw: float
    ng_quantile_oof: float
    ng_frequency: float
    ng_target_oof: float
    unique_count: int
    unique_ratio: float
    missing_rate: float
    is_number: bool
    fired_rule: str


@dataclass
class TypingReport:
    columns: list[ColumnTyping] = field(default_factory=list)

    def category_columns(self) -> list[str]:
        return [c.name for c in self.columns if not c.is_number]

    def to_json(self) -> dict:
        return {c.name: asdict(c) for c in self.columns}


def _apply_rules(ng_raw: float, ng_q: float, ng_fe: float, ng_oof: float,
                 unique_count: int, unique_ratio: float, missing_rate: float,
                 n_nonmissing: int, from_float_literals: bool) -> tuple[bool, str]:
    best_enc = max(ng_oof, ng_fe, ng_q)
    if unique_count <= 2:
        return True, "R1"
    if unique_ratio > 0.95:
        return True, "R2"
    if ng_raw >= best_enc - 0.01:
        return True, "R3"
    if best_enc < 0.05:
        return True, "R4"
    if ng_q >= ng_oof - 0.005 and ng_q >= ng_fe:
        return True, "R5"
    if unique_count > 0.5 * n_nonmissing and ng_fe < ng_raw:
        return True, "R6"
    if from_float_literals:
        return True, "R7"
    if ng_oof - ng_raw < 0.02 and unique_count > 100:
        return True, "R8"
    if missing_rate > 0.95:
        return True, "R9"
    return False, "R10"


def _ng_of_oof(values: np.ndarray, y: np.ndarray, fold: np.ndarray,
               n_classes: int) -> float:
    """Gini of the OOF target encoding: the maximum over its target rows of
    the row's score against its own encoded column."""
    enc = oof_target_encode(values, y, fold, n_classes=n_classes)
    return max(norm_gini(yc, enc[:, c])
               for c, yc in enumerate(target_rows(y, n_classes)))


def infer_feature_kind(dataset: Dataset, folds: FoldAssignment) -> TypingReport:
    """Score every integer/float feature and apply the typing rules.

    Columns that are more than 99% missing skip scoring entirely and stay
    numeric with all scores zero.
    """
    report = TypingReport()
    y_all = dataset.target
    n_classes = dataset.task.encoding_classes
    kind = "multiclass" if n_classes else None
    fold_all = folds.fold_of_row
    if not folds.partitions_rows():
        raise ValueError("auto-typing requires a partitioning fold assignment")

    for name in dataset.numeric_feature_names():
        col = dataset.columns[name]
        values = col.values
        ok = ~np.isnan(values)
        n_nonmissing = int(ok.sum())
        missing_rate = 1.0 - n_nonmissing / dataset.n_rows
        unique_count = int(np.unique(values[ok]).size)
        unique_ratio = unique_count / max(1, n_nonmissing)

        if missing_rate > 0.99 or n_nonmissing < 2:
            report.columns.append(ColumnTyping(
                name, 0.0, 0.0, 0.0, 0.0, unique_count, unique_ratio,
                missing_rate, True, "R9"))
            continue

        x = values[ok]
        y = y_all[ok]
        fold = fold_all[ok]

        ng_raw = norm_gini(y, x, kind)
        bins = quantile_discretize(x, TYPING_Q)
        ng_q = _ng_of_oof(bins, y, fold, n_classes)
        _, freq = freq_encode(x)
        ng_fe = norm_gini(y, freq, kind)
        ng_oof = _ng_of_oof(x, y, fold, n_classes)

        is_number, rule = _apply_rules(
            ng_raw, ng_q, ng_fe, ng_oof, unique_count, unique_ratio,
            missing_rate, n_nonmissing, col.from_float_literals)
        report.columns.append(ColumnTyping(
            name, ng_raw, ng_q, ng_fe, ng_oof, unique_count, unique_ratio,
            missing_rate, is_number, rule))
    return report


def apply_typing(dataset: Dataset, report: TypingReport) -> Dataset:
    """Re-type the columns the report judged categorical."""
    names = report.category_columns()
    if not names:
        return dataset
    return dataset.with_columns_as_category(names)


def select_category_encoding(col_values: np.ndarray, y: np.ndarray,
                             folds, n_classes: int = 0) -> EncoderSpec:
    """Choose frequency vs OOF-target encoding for one category column.

    `n_classes` is the task's `encoding_classes`. The better Normalized Gini
    wins; exact ties go to the target encoder.
    """
    col_values = np.asarray(col_values)
    ok = col_values >= 0 if col_values.dtype.kind in "iu" else ~np.isnan(col_values)
    x = col_values[ok]
    y_nn = np.asarray(y)[ok]
    fold = np.asarray(getattr(folds, "fold_of_row", folds))[ok]

    if x.size < 2 or np.unique(y_nn).size < 2:
        return EncoderSpec("oof_target")

    _, freq = freq_encode(x)
    ng_fe = norm_gini(y_nn, freq, "multiclass" if n_classes else None)
    ng_oof = _ng_of_oof(x, y_nn, fold, n_classes)
    return EncoderSpec("frequency" if ng_fe > ng_oof else "oof_target")
