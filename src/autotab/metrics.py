"""Task metrics, all reported in maximize direction (losses are negated)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

METRIC_NAMES = ("roc_auc", "neg_logloss", "neg_rmse", "r2")

_EPS = 1e-15


@dataclass(frozen=True)
class MetricSpec:
    """A named score. Direction is always maximize."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {self.name!r}; expected one of {METRIC_NAMES}")

    def valid_for(self, task_kind: str) -> bool:
        if self.name == "roc_auc":
            return task_kind == "binary"
        if self.name == "neg_logloss":
            return task_kind in ("binary", "multiclass")
        return task_kind == "regression"


def default_metric(task_kind: str) -> MetricSpec:
    if task_kind == "binary":
        return MetricSpec("roc_auc")
    if task_kind == "multiclass":
        return MetricSpec("neg_logloss")
    if task_kind == "regression":
        return MetricSpec("neg_rmse")
    raise ConfigError(f"unknown task kind {task_kind!r}")


def roc_auc(y: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based AUC with 0.5 credit for tied scores.

    Tied scores share their average rank, and the positives' rank sum is
    one pass of the compiled kernel (`positive_rank_sum`), exact in any
    order. Degenerate single-class targets score 0.5 (uninformative) instead
    of raising, so that unlucky CV folds never abort a run; any NaN score
    gives NaN. `RocAuc` scores many score vectors against one y.
    """
    y = np.asarray(y)
    scores = np.asarray(scores, dtype=np.float64)
    if y.shape != scores.shape:
        raise ValueError("y and scores must have identical shapes")
    return RocAuc(y.ravel())(scores.ravel())


class RocAuc:
    """`roc_auc` against one y, for many score vectors: the positives, their
    count and the kernel's work buffer are prepared once, so a call is one
    kernel pass. A booster scores its validation rows with one at every
    iteration."""

    def __init__(self, y: np.ndarray) -> None:
        from .gbm.native import kernel  # fitting only: prediction never scores

        self.pos = np.ascontiguousarray(np.asarray(y) == 1, dtype=bool)
        if self.pos.ndim != 1:
            raise ValueError("y must be 1-d")
        self.n = self.pos.shape[0]
        self.n1 = int(self.pos.sum())
        self.n0 = self.n - self.n1
        self.work = np.empty(3 * self.n, dtype=np.uint64)
        self.rank_sum = kernel(hold_gil=True).positive_rank_sum
        self.ptr = self.pos.ctypes.data, self.work.ctypes.data

    def __call__(self, scores: np.ndarray) -> float:
        if self.n1 == 0 or self.n0 == 0:
            return 0.5
        scores = np.ascontiguousarray(scores, dtype=np.float64)
        if scores.shape != (self.n,):
            raise ValueError("y and scores must have identical shapes")
        pos, work = self.ptr
        r1 = self.rank_sum(scores.ctypes.data, pos, self.n, work)
        return (r1 - self.n1 * (self.n1 + 1) / 2.0) / (self.n1 * self.n0)


def positive_rank_sum(pos: np.ndarray, scores: np.ndarray) -> float:
    """Sum of the 1-based average ranks of `scores` over the rows in `pos`,
    NaN if a score is NaN.

    A score tied with others at sorted positions left..right-1 has the
    average rank (left + 1 + right) / 2 (+0.0 ties -0.0). Ranks are
    half-integers, so the sum is exact in any order. One pass of the
    compiled kernel (`_kernel.c`) radix-sorts the scores with the flags of
    `pos` and sums the tie groups.
    """
    from .gbm.native import kernel  # fitting only: prediction never scores

    pos = np.ascontiguousarray(pos, dtype=bool)
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    if pos.ndim != 1 or pos.shape != scores.shape:
        raise ValueError("pos and scores must be 1-d of equal length")
    work = np.empty(3 * pos.shape[0], dtype=np.uint64)
    return kernel(hold_gil=True).positive_rank_sum(scores.ctypes.data, pos.ctypes.data,
                                                   pos.shape[0], work.ctypes.data)


def neg_logloss(y: np.ndarray, probs: np.ndarray) -> float:
    y = np.asarray(y)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim == 1:
        p = np.clip(probs, _EPS, 1.0 - _EPS)
        ll = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean()
    else:
        p = np.clip(probs, _EPS, None)
        p = p / p.sum(axis=1, keepdims=True)
        ll = -np.log(p[np.arange(len(y)), y.astype(np.int64)]).mean()
    return -float(ll)


def neg_rmse(y: np.ndarray, pred: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    return -float(np.sqrt(np.mean((y - pred) ** 2)))


def r2(y: np.ndarray, pred: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0
    return 1.0 - ss_res / ss_tot


def evaluate(spec: MetricSpec, y: np.ndarray, pred: np.ndarray) -> float:
    if spec.name == "roc_auc":
        return roc_auc(y, pred)
    if spec.name == "neg_logloss":
        return neg_logloss(y, pred)
    if spec.name == "neg_rmse":
        return neg_rmse(y, pred)
    return r2(y, pred)
