"""Feature importance and the three selection strategies.

Importance-based forward selection ranks features by permutation importance
once, then consumes them in descending blocks, keeping a block only when it
strictly improves the validation score. The cutoff strategy simply drops
features whose permutation importance is not positive.

All operations work on plain matrices plus feature names. A "group" maps one
logical feature to the matrix columns derived from it (a multiclass target
encoding contributes several columns); singleton groups are the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .metrics import MetricSpec, evaluate

Groups = list[tuple[str, list[int]]]


@dataclass
class ImportanceVector:
    names: list[str]
    scores: np.ndarray
    metric: MetricSpec | None = None
    baseline_score: float = float("nan")

    def as_dict(self) -> dict[str, float]:
        return {n: float(s) for n, s in zip(self.names, self.scores)}


def _predict_of(model):
    if callable(model):
        return model
    if hasattr(model, "predict_matrix"):
        return model.predict_matrix
    if hasattr(model, "predict"):
        return model.predict
    raise DataError("model must be callable or expose predict()")


def _singleton_groups(names: list[str]) -> Groups:
    return [(n, [i]) for i, n in enumerate(names)]


def permutation_importance(model, X: np.ndarray, y: np.ndarray,
                           metric: MetricSpec, seed: int = 0,
                           names: list[str] | None = None,
                           groups: Groups | None = None) -> ImportanceVector:
    """Baseline score minus the score after shuffling each feature (one
    repeat, per-column generator seeded with seed XOR column index)."""
    predict = _predict_of(model)
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise DataError("empty validation set")
    names = names or [f"f{i}" for i in range(X.shape[1])]
    groups = groups or _singleton_groups(names)
    baseline = evaluate(metric, y, predict(X))
    scores = np.empty(len(groups))
    for gi, (_, cols) in enumerate(groups):
        rng = np.random.default_rng(seed ^ gi)
        perm = rng.permutation(X.shape[0])
        Xp = X.copy()
        Xp[:, cols] = X[np.ix_(perm, np.asarray(cols))]
        scores[gi] = baseline - evaluate(metric, y, predict(Xp))
    return ImportanceVector([g[0] for g in groups], scores, metric=metric,
                            baseline_score=baseline)


def cutoff_select(importances: ImportanceVector) -> list[str]:
    """Keep features with importance strictly above zero, in input order."""
    return [n for n, s in zip(importances.names, importances.scores) if s > 0]


@dataclass
class ForwardTrace:
    ranked: list[str] = field(default_factory=list)
    block_names: list[list[str]] = field(default_factory=list)
    block_scores: list[float] = field(default_factory=list)
    accepted: list[bool] = field(default_factory=list)
    baseline_trace: list[float] = field(default_factory=list)


def forward_select(X_valid: np.ndarray, y_valid: np.ndarray,
                   fit_fn, block_size: int, metric: MetricSpec,
                   names: list[str] | None = None,
                   groups: Groups | None = None,
                   seed: int = 0) -> tuple[list[str], ForwardTrace]:
    """Importance-ranked forward selection.

    `fit_fn(cols)` fits a model on the training set's columns `cols` (a list
    of column indices, the same columns as in `X_valid`). Fits once on every
    column, ranks features by permutation importance on the validation set,
    then walks descending blocks of `block_size`, refitting on the kept set
    plus each block and accepting the block only on strict validation
    improvement.
    """
    if block_size < 1:
        raise DataError("block size must be at least 1")
    X_valid = np.asarray(X_valid, dtype=np.float64)
    if X_valid.shape[1] == 0:
        raise DataError("empty feature set")
    names = names or [f"f{i}" for i in range(X_valid.shape[1])]
    groups = groups or _singleton_groups(names)
    col_of = dict(groups)

    full_model = fit_fn(list(range(X_valid.shape[1])))
    imp = permutation_importance(full_model, X_valid, y_valid, metric,
                                 seed=seed, names=names, groups=groups)
    rank = np.argsort(-imp.scores, kind="stable")
    ranked = [imp.names[i] for i in rank]

    trace = ForwardTrace(ranked=ranked)
    kept: list[str] = []
    baseline = -np.inf
    for i in range(0, len(ranked), block_size):
        block = ranked[i: i + block_size]
        cols = [c for name in kept + block for c in col_of[name]]
        model = fit_fn(cols)
        score = evaluate(metric, y_valid, _predict_of(model)(X_valid[:, cols]))
        accept = score > baseline
        trace.block_names.append(block)
        trace.block_scores.append(float(score))
        trace.accepted.append(bool(accept))
        if accept:
            kept.extend(block)
            baseline = score
        trace.baseline_trace.append(float(baseline))
    return kept, trace
