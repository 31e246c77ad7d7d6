"""Model combination: ensemble-selection blending and stack features.

Blending is the ensemble selection of Caruana et al. ("Ensemble selection
from libraries of models", ICML 2004): greedy forward selection with
replacement. It starts from the best single model (count 1, lowest index on
ties). Each step adds one copy of the model whose candidate blend scores
best, each candidate scored at its count weights through the arithmetic of
`apply_blend`. After ENSEMBLE_STEPS steps the best-scoring prefix is kept,
and only a strictly better prefix replaces it, so the blend never scores
below the best single model. A search of m models costs at most
m * (ENSEMBLE_STEPS + 1) metric evaluations, and a budget that expires stops
it between steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .budget import TimeBudget
from .errors import DataError
from .learners import TrainedModel
from .metrics import MetricSpec, evaluate

ENSEMBLE_STEPS = 50


@dataclass
class BlendWeights:
    weights: np.ndarray
    dropped: list[int] = field(default_factory=list)
    metric_value: float = float("nan")
    sweep_trace: list[float] = field(default_factory=list)  # each improving prefix's score
    evals: int = 0  # metric evaluations the search made
    steps: int = 0  # ensemble-selection steps taken
    stop: str = ""  # "steps", "budget" or "one model"

    def to_json(self) -> dict:
        return {"weights": [float(w) for w in self.weights],
                "dropped": list(self.dropped),
                "metric": float(self.metric_value),
                "evals": self.evals, "steps": self.steps, "stop": self.stop}


def _blended(preds: list[np.ndarray], w: np.ndarray, multiclass: bool) -> np.ndarray:
    out = sum(wi * p for wi, p in zip(w, preds))
    if multiclass:
        total = out.sum(axis=1, keepdims=True)
        out = np.divide(out, total, out=np.full_like(out, 1.0 / out.shape[1]),
                        where=total > 0)
    return out


def blend_weights(oofs: list[np.ndarray], y: np.ndarray, metric: MetricSpec,
                  mask: np.ndarray | None = None,
                  budget: TimeBudget | None = None) -> BlendWeights:
    """Ensemble-selection weights on out-of-fold predictions.

    The m single models are always scored; the ENSEMBLE_STEPS steps stop
    early once `budget` expires. The weights are the counts of the best
    prefix over their total, and `metric_value` equals `evaluate` of
    `apply_blend` at them, bit for bit.
    """
    if not oofs:
        raise DataError("blend needs at least one model")
    multiclass = oofs[0].ndim == 2
    if mask is not None:
        preds = [np.asarray(p)[mask] for p in oofs]
        y = np.asarray(y)[mask]
    else:
        preds = [np.asarray(p) for p in oofs]
    m = len(preds)
    if m == 1:
        score = evaluate(metric, y, preds[0])
        return BlendWeights(np.array([1.0]), metric_value=score, evals=1, stop="one model")

    def score(counts: np.ndarray) -> float:
        return evaluate(metric, y, _blended(preds, counts / counts.sum(), multiclass))

    one_more = np.eye(m, dtype=np.int64)  # row i adds one copy of model i
    singles = [score(row) for row in one_more]
    first = int(np.argmax(singles))
    counts, best_counts, best_score = one_more[first], one_more[first], singles[first]
    trace = [best_score]
    steps, stop = 0, "steps"
    while steps < ENSEMBLE_STEPS:
        if budget is not None and budget.expired():
            stop = "budget"
            break
        candidates = counts + one_more
        scores = [score(c) for c in candidates]
        pick = int(np.argmax(scores))
        counts = candidates[pick]
        steps += 1
        if scores[pick] > best_score:
            best_counts, best_score = counts, scores[pick]
            trace.append(best_score)
    return BlendWeights(best_counts / best_counts.sum(),
                        [int(i) for i in np.flatnonzero(best_counts == 0)],
                        best_score, trace, evals=m * (steps + 1), steps=steps, stop=stop)


def apply_blend(predictions: list[np.ndarray], blend: BlendWeights) -> np.ndarray:
    """Weighted average in probability space; multiclass rows renormalize."""
    preds = [np.asarray(p, dtype=np.float64) for p in predictions]
    shapes = {p.shape for p in preds}
    if len(shapes) != 1:
        raise DataError(f"prediction shapes disagree: {shapes}")
    if len(preds) != len(blend.weights):
        raise DataError("weight count does not match prediction count")
    return _blended(preds, blend.weights, preds[0].ndim == 2)


def build_stack_features(models: list[TrainedModel],
                         preds: list[np.ndarray]) -> tuple[np.ndarray, list[str]]:
    """Column-concatenated level-1 predictions as the level-2 feature table.

    `preds[i]` is model i's prediction (its OOF at fit time). Binary and
    regression models contribute one column each, multiclass models one
    column per class. Returns (features, names).
    """
    if not models:
        raise DataError("stacking needs at least one level-1 model")
    cols = []
    names = []
    for model, p in zip(models, preds, strict=True):
        if p.ndim == 2:
            for c in range(p.shape[1]):
                cols.append(p[:, c])
                names.append(f"{model.learner_tag}__c{c}")
        else:
            cols.append(p)
            names.append(f"{model.learner_tag}__c0")
    return np.column_stack(cols), names
