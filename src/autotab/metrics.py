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

    Tied scores share their average rank (see `positive_rank_sum`).
    Degenerate single-class targets score 0.5 (uninformative) instead of
    raising, so that unlucky CV folds never abort a run; any NaN score gives
    NaN.
    """
    y = np.asarray(y)
    scores = np.asarray(scores, dtype=np.float64)
    if y.shape != scores.shape:
        raise ValueError("y and scores must have identical shapes")
    pos = y == 1
    n1 = int(pos.sum())
    n0 = y.shape[0] - n1
    if n1 == 0 or n0 == 0:
        return 0.5
    if np.isnan(scores).any():
        return float("nan")
    r1 = positive_rank_sum(pos, scores)
    return (r1 - n1 * (n1 + 1) / 2.0) / (n1 * n0)


def positive_rank_sum(pos: np.ndarray, scores: np.ndarray) -> float:
    """Sum of the 1-based average ranks of `scores` (no NaN) over the rows in
    `pos`.

    A score tied with others at sorted positions left..right-1 has the
    average rank (left + 1 + right) / 2. Ranks are half-integers, so the sum
    is exact in any order, and the picked scores are sorted first so that
    the binary searches touch `ranked` in order (twice as fast at 10k rows).
    """
    ranked = np.sort(scores)
    picked = np.sort(scores[pos])
    left = np.searchsorted(ranked, picked, side="left")
    right = np.searchsorted(ranked, picked, side="right")
    return float(((left + right + 1) / 2.0).sum())


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
