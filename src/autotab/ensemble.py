"""Model combination: coordinate-descent weighted blending and stack features.

Blending starts at the vertex of the best single model and sweeps the
coordinates in fixed order, line-searching each weight on a 33-point grid
while the other weights rescale proportionally. Only strict metric
improvements are accepted, which makes "blend never loses to the best single
model" a hard guarantee. Near-zero weights are pruned afterwards unless
pruning would cost metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .learners import TrainedModel
from .metrics import MetricSpec, evaluate

GRID_POINTS = 33
ZOOM_LEVELS = 3  # shrinking refinement windows after each coarse line scan
MAX_SWEEPS = 10
SWEEP_TOLERANCE = 1e-7
PRUNE_THRESHOLD = 0.01


@dataclass
class BlendWeights:
    weights: np.ndarray
    dropped: list[int] = field(default_factory=list)
    metric_value: float = float("nan")
    sweep_trace: list[float] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"weights": [float(w) for w in self.weights],
                "dropped": list(self.dropped),
                "metric": float(self.metric_value)}


def _blended(preds: list[np.ndarray], w: np.ndarray, multiclass: bool) -> np.ndarray:
    out = sum(wi * p for wi, p in zip(w, preds))
    if multiclass:
        total = out.sum(axis=1, keepdims=True)
        out = np.divide(out, total, out=np.full_like(out, 1.0 / out.shape[1]),
                        where=total > 0)
    return out


def _candidate(w: np.ndarray, i: int, t: float) -> np.ndarray:
    """Set w[i] = t; the other weights share 1 - t proportionally."""
    out = np.empty_like(w)
    rest = 1.0 - w[i]
    if rest <= 0:
        out[:] = (1.0 - t) / max(1, len(w) - 1)
    else:
        out[:] = w * ((1.0 - t) / rest)
    out[i] = t
    return out


def blend_weights(oofs: list[np.ndarray], y: np.ndarray, metric: MetricSpec,
                  mask: np.ndarray | None = None) -> BlendWeights:
    """Fit convex combination weights on out-of-fold predictions."""
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
        return BlendWeights(np.array([1.0]), metric_value=score)

    singles = np.array([evaluate(metric, y, p) for p in preds])
    best_single = int(np.argmax(singles))
    w = np.zeros(m)
    w[best_single] = 1.0
    current = float(singles[best_single])
    trace = [current]

    def line_search(w_now: np.ndarray, i: int, floor: float):
        """Best weight for coordinate i: coarse grid, then shrinking windows.

        The zoom recenters on the incumbent weight when no coarse point wins,
        so an off-grid incumbent still gets refined toward its 1-D optimum.
        """
        best_t = None
        best_score = floor
        anchor = float(w_now[i])
        lo, hi = 0.0, 1.0
        for _level in range(ZOOM_LEVELS + 1):
            for t in np.linspace(lo, hi, GRID_POINTS):
                cand = _candidate(w_now, i, float(t))
                score = evaluate(metric, y, _blended(preds, cand, multiclass))
                if score > best_score:
                    best_score = score
                    best_t = float(t)
            if best_t is not None:
                anchor = best_t
            step = (hi - lo) / (GRID_POINTS - 1)
            lo = max(0.0, anchor - step)
            hi = min(1.0, anchor + step)
        return best_t, best_score

    for _ in range(MAX_SWEEPS):
        sweep_start = current
        for i in range(m):
            best_t, best_score = line_search(w, i, current)
            if best_t is not None:
                w = _candidate(w, i, best_t)
                current = best_score
                trace.append(current)
        if current - sweep_start < SWEEP_TOLERANCE:
            break

    dropped: list[int] = []
    for i in np.argsort(w):
        i = int(i)
        if w[i] <= 0 or w[i] >= PRUNE_THRESHOLD:
            continue
        cand = w.copy()
        cand[i] = 0.0
        s = cand.sum()
        if s <= 0:
            continue
        cand /= s
        score = evaluate(metric, y, _blended(preds, cand, multiclass))
        if score >= current:
            w = cand
            current = score
            dropped.append(i)
    dropped.extend(int(i) for i in np.flatnonzero(w == 0.0) if i not in dropped)

    w = w / w.sum()
    return BlendWeights(w, sorted(set(dropped)), current, trace)


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
