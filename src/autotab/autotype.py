"""Numeric-vs-category inference for integer/float columns.

For each candidate column we score four encodings of its non-missing slice
against the target with Normalized Gini: the raw values, OOF-target-encoded
quantile bins, frequency encoding, and OOF target encoding. An ordered rule
list then decides whether the column stays numeric; if no rule fires the
column is re-typed as a category.

The target is ranked once per run (a two-valued or multiclass target by its
classes), and each column scores from the ranks of its rows, which may have
gaps. One np.unique per column gives the ranks of the raw values, the unique
count, the frequency encoding and its ranks; the quantile bins and the value
ranks serve as the OOF encoder's groups, so only the two OOF encodings are
ranked afresh. Every score is an exact integer ratio and equals `norm_gini`
on the same encoding, bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset, numeric_to_category
from .encoders import (EncoderSpec, binary_gini, class_ginis, dense_ranks,
                       oof_encode_groups, quantile_edges, rank_gini)
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


class _Target:
    """The target on the rows being scored, ranked once per run: the dense
    ranks of a many-valued target, or the class of each row of a two-valued
    one (binary, or a multiclass target's classes, one indicator each). A
    subset of rows keeps the run's ranks, gaps and all. Its scores equal
    `norm_gini` on the same encoding, bit for bit: from rank pairs
    (`rank_gini`), or from the positives' rank sums, taken from the column's
    ranks where they are known (`class_ginis`). A plain class: a dataclass
    would cost every import of autotab a millisecond."""

    def __init__(self, y: np.ndarray, n_classes: int, rank: np.ndarray, levels: int):
        self.y, self.n_classes = y, n_classes
        self.rank, self.levels = rank, levels  # ranks below levels, or class numbers
        self.by_pairs = not n_classes and levels > 2
        # (encoding column, class) of each indicator scored; a max over them
        self.scored = ([(c, c) for c in range(levels)] if n_classes
                       else [(0, 1)] if levels == 2 else [])

    @classmethod
    def of(cls, y: np.ndarray, n_classes: int) -> _Target:
        if n_classes:
            return cls(y, n_classes, y.astype(np.int64), n_classes)
        return cls(y, 0, *dense_ranks(y))

    def rows(self, ok: np.ndarray) -> _Target:
        return _Target(self.y[ok], self.n_classes, self.rank[ok], self.levels)

    def gini(self, x: np.ndarray, ranked: tuple[np.ndarray, int] | None = None) -> float:
        """`norm_gini` of column x; `ranked` is `dense_ranks(x)` if known."""
        x_rank, x_levels = ranked or dense_ranks(x)
        if self.by_pairs:
            return rank_gini(self.rank, self.levels, x_rank, x_levels)
        ginis = class_ginis(self.rank, self.levels, x_rank, x_levels)
        return max((ginis[c] for _, c in self.scored), default=0.0)

    def gini_oof(self, groups: np.ndarray, fold: np.ndarray) -> float:
        """Gini of the OOF target encoding of a column's group ids: the
        maximum over its target rows of the row's score against its own
        encoded column."""
        enc = oof_encode_groups(groups, self.y, fold, n_classes=self.n_classes)
        if self.by_pairs:
            return self.gini(enc[:, 0])
        return max((binary_gini(self.rank == c, enc[:, k]) for k, c in self.scored),
                   default=0.0)


def infer_feature_kind(dataset: Dataset, folds: FoldAssignment) -> TypingReport:
    """Score every integer/float feature and apply the typing rules.

    Columns that are more than 99% missing skip scoring entirely and stay
    numeric with all scores zero.
    """
    report = TypingReport()
    target = _Target.of(dataset.target, dataset.task.encoding_classes)
    fold_all = folds.fold_of_row
    if not folds.partitions_rows():
        raise ValueError("auto-typing requires a partitioning fold assignment")

    for name in dataset.numeric_feature_names():
        col = dataset.columns[name]
        values = col.values
        ok = ~np.isnan(values)
        x = values[ok]
        n_nonmissing = x.shape[0]
        missing_rate = 1.0 - n_nonmissing / dataset.n_rows
        distinct, x_rank, counts = np.unique(x, return_inverse=True, return_counts=True)
        unique_count = distinct.shape[0]
        unique_ratio = unique_count / max(1, n_nonmissing)

        if missing_rate > 0.99 or n_nonmissing < 2:
            report.columns.append(ColumnTyping(
                name, 0.0, 0.0, 0.0, 0.0, unique_count, unique_ratio,
                missing_rate, True, "R9"))
            continue

        on_rows = target.rows(ok)
        fold = fold_all[ok]
        ng_raw = on_rows.gini(x, (x_rank, unique_count))
        # bins at the column's quantiles k/q: edges from the sorted column, where
        # np.quantile is faster, and a search for each distinct value alone
        edges = quantile_edges(np.repeat(distinct, counts), TYPING_Q)
        ng_q = on_rows.gini_oof(np.searchsorted(edges, distinct)[x_rank], fold)
        count_values, count_rank = np.unique(counts, return_inverse=True)
        ng_fe = on_rows.gini(counts[x_rank], (count_rank[x_rank], count_values.shape[0]))
        ng_oof = on_rows.gini_oof(x_rank, fold)

        is_number, rule = _apply_rules(
            ng_raw, ng_q, ng_fe, ng_oof, unique_count, unique_ratio,
            missing_rate, n_nonmissing, col.from_float_literals)
        report.columns.append(ColumnTyping(
            name, ng_raw, ng_q, ng_fe, ng_oof, unique_count, unique_ratio,
            missing_rate, is_number, rule))
    return report


def apply_typing(dataset: Dataset, report: TypingReport) -> Dataset:
    """Re-type the columns the report judged categorical. Their recipes stay
    numeric: the dictionary of numbers decides a parsed column's codes."""
    retyped = {name: numeric_to_category(dataset.columns[name])
               for name in report.category_columns()}
    return replace(dataset, columns={**dataset.columns, **retyped})


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

    _, groups, counts = np.unique(x, return_inverse=True, return_counts=True)
    target = _Target.of(y_nn, n_classes)
    ng_fe = target.gini(counts[groups])
    ng_oof = target.gini_oof(groups, fold)
    return EncoderSpec("frequency" if ng_fe > ng_oof else "oof_target")
