"""Category/value encoders and the Normalized Gini concordance score.

Every target encoding is built from K target rows (`target_rows`): K = 1 for
binary and regression, where the row is y itself, and one class-indicator
row per class for multiclass. Each row is encoded on its own, so an encoding
is always (n, K) and its map's means (groups, K).

Normalized Gini is |C - D| / P over row pairs, where C and D count strictly
concordant and discordant pairs of (feature, target) and P counts pairs whose
targets differ. It is the sorting-quality proxy behind auto-typing and
encoder selection. Both counts are exact integers in O(n log n): a rank
identity for two-valued targets, and otherwise a sort by (x, y) followed by
a merge-sort count of discordant pairs in the compiled kernel
(`gbm/native.py`, so scoring a many-valued target needs the C compiler `cc`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .metrics import positive_rank_sum

ENCODER_KINDS = ("frequency", "oof_target")
SMOOTHING_ALPHA = 2.0  # prior weight of every smoothed target mean


@dataclass(frozen=True)
class EncoderSpec:
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ENCODER_KINDS:
            raise DataError(f"unknown encoder kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Normalized Gini


def _pair_ties(values: np.ndarray) -> int:
    _, counts = np.unique(values, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def _binary_concordance(y01: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Exact (C - D, P) via average ranks for a 0/1 target."""
    n1 = int(y01.sum())
    n0 = y01.shape[0] - n1
    p = float(n1) * float(n0)
    if p == 0:
        return 0.0, 0.0
    r1 = positive_rank_sum(y01 == 1, x)
    c_minus_d = 2.0 * (r1 - n1 * (n1 + 1) / 2.0) - p
    return c_minus_d, p


def _run_ties(new_run: np.ndarray) -> int:
    """Tied pairs within the runs of a sorted sequence; `new_run` marks each
    run's first element."""
    counts = np.diff(np.append(np.flatnonzero(new_run), new_run.shape[0]))
    return int((counts * (counts - 1) // 2).sum())


def _general_concordance(y: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Exact (C - D, P) for arbitrary targets.

    With the rows sorted by (x, y), a pair i < j tied in neither x nor y is
    discordant exactly when y_i > y_j, and pairs tied in x are never out of
    order in y. So C - D = n0 - nx - ny + nxy - 2 * dis, where n0 counts all
    pairs, nx, ny and nxy the pairs tied in x, in y and in both, and dis the
    pairs out of order in y.
    """
    from .gbm.native import kernel  # fitting only: prediction never scores

    n = y.shape[0]
    n0 = n * (n - 1) // 2
    ny = _pair_ties(y)
    p = float(n0 - ny)
    if p == 0:
        return 0.0, p
    order = np.lexsort((y, x))
    xs = x[order]
    ys = np.ascontiguousarray(y[order], dtype=np.float64)
    new_x = np.empty(n, dtype=bool)
    new_x[0] = True
    np.not_equal(xs[1:], xs[:-1], out=new_x[1:])
    nx = _run_ties(new_x)
    if nx == n0:
        return 0.0, p
    new_xy = new_x.copy()
    new_xy[1:] |= ys[1:] != ys[:-1]
    nxy = _run_ties(new_xy)
    tmp = np.empty(n)
    dis = kernel().discordant_pairs(ys.ctypes.data, n, tmp.ctypes.data)
    return float(n0 - nx - ny + nxy - 2 * dis), p


def norm_gini(y: np.ndarray, x: np.ndarray, task_kind: str | None = None) -> float:
    """Normalized Gini of feature `x` against target `y`, in [0, 1].

    Multiclass targets score each one-vs-rest indicator and take the maximum.
    Constant targets score 0. Missing entries must be excluded by the caller.
    """
    y = np.asarray(y)
    x = np.asarray(x, dtype=np.float64)
    if y.shape[0] != x.shape[0]:
        raise DataError("y and x must have equal lengths")
    if y.shape[0] < 2:
        raise DataError("norm_gini needs at least 2 rows")
    if np.isnan(x).any() or (y.dtype.kind == "f" and np.isnan(y).any()):
        raise DataError("norm_gini inputs must not contain NaN")

    if task_kind == "multiclass":
        classes = np.unique(y)
        if classes.shape[0] < 2:
            return 0.0
        return max(norm_gini((y == c).astype(np.float64), x) for c in classes)

    distinct = np.unique(y)
    if distinct.shape[0] < 2:
        return 0.0
    if distinct.shape[0] == 2:
        c_minus_d, p = _binary_concordance((y == distinct[1]).astype(np.int8), x)
    else:
        c_minus_d, p = _general_concordance(y, x)
    if p == 0:
        return 0.0
    return min(1.0, abs(c_minus_d) / p)


# ---------------------------------------------------------------------------
# Frequency encoding


@dataclass(frozen=True)
class FrequencyMap:
    """Value -> raw occurrence count in the training column; unseen -> 0."""

    values: np.ndarray
    counts: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        idx = np.searchsorted(self.values, x)
        idx = np.clip(idx, 0, len(self.values) - 1)
        out = self.counts[idx].astype(np.float64)
        if len(self.values):
            hit = self.values[idx] == x
            out[~hit] = 0.0
        else:
            out[:] = 0.0
        return out


def freq_encode(train_col: np.ndarray) -> tuple[FrequencyMap, np.ndarray]:
    """Encode each value by its occurrence count in the training column."""
    train_col = np.asarray(train_col)
    values, inverse, counts = np.unique(train_col, return_inverse=True, return_counts=True)
    mapping = FrequencyMap(values, counts.astype(np.float64))
    return mapping, counts[inverse].astype(np.float64)


# ---------------------------------------------------------------------------
# Out-of-fold target encoding


def _fold_vector(folds) -> np.ndarray:
    fold = np.asarray(getattr(folds, "fold_of_row", folds), dtype=np.int64)
    if fold.min(initial=0) < 0:
        raise DataError("oof_target_encode requires folds that partition the rows")
    return fold


def _exclude_column_sum(per_fold: np.ndarray) -> np.ndarray:
    """Sum over fold columns excluding each column in turn.

    Built from prefix sums rather than total-minus-column so the result for
    fold f never touches fold f's accumulator: perturbing one row's target
    then leaves every same-fold row's encoding bit-identical.
    """
    left = np.zeros_like(per_fold)
    right = np.zeros_like(per_fold)
    left[..., 1:] = np.cumsum(per_fold[..., :-1], axis=-1)
    right[..., :-1] = np.cumsum(per_fold[..., :0:-1], axis=-1)[..., ::-1]
    return left + right


def target_rows(y: np.ndarray, n_classes: int = 0) -> np.ndarray:
    """The (K, n) target rows of a target encoding, each C-contiguous: y
    itself when n_classes is 0, else one indicator row per class."""
    y = np.asarray(y, dtype=np.float64)
    if n_classes:
        return (y == np.arange(n_classes)[:, None]).astype(np.float64)
    return np.ascontiguousarray(y)[None, :]


def _oof_encode_row(inverse: np.ndarray, n_groups: int, y: np.ndarray,
                    fold: np.ndarray, k: int, alpha: float) -> np.ndarray:
    # the smoothing mean is fold-local (mean of y outside the row's fold) so
    # that no component of row i's own target reaches its encoding
    n = y.shape[0]
    fold_y = np.bincount(fold, weights=y, minlength=k)
    fold_n = np.bincount(fold, minlength=k).astype(np.float64)
    out_y = _exclude_column_sum(fold_y)
    out_n = n - fold_n
    gm_full = float(y.mean())
    gm_fold = np.where(out_n > 0, out_y / np.maximum(out_n, 1.0), gm_full)
    gm_row = gm_fold[fold]

    pair = inverse * k + fold
    fold_sum = np.bincount(pair, weights=y, minlength=n_groups * k).reshape(n_groups, k)
    fold_cnt = np.bincount(pair, minlength=n_groups * k).reshape(n_groups, k).astype(np.float64)
    out_sum = _exclude_column_sum(fold_sum)[inverse, fold] + alpha * gm_row
    out_cnt = _exclude_column_sum(fold_cnt)[inverse, fold] + alpha
    enc = gm_row.copy()
    ok = out_cnt > 0
    enc[ok] = out_sum[ok] / out_cnt[ok]
    return enc


def oof_target_encode(col: np.ndarray, y: np.ndarray, folds, alpha: float = SMOOTHING_ALPHA,
                      n_classes: int = 0) -> np.ndarray:
    """Smoothed out-of-fold target mean per value and target row, (n, K).

    Row i in fold f is encoded from rows of the same value outside f:
    (sum_y_outside + alpha * mean_y_outside_f) / (count_outside + alpha).
    Values never seen outside the fold encode to that out-of-fold mean, so no
    component of row i's own target ever reaches its encoding.
    """
    col = np.asarray(col)
    rows = target_rows(y, n_classes)
    fold = _fold_vector(folds)
    if not (col.shape[0] == rows.shape[1] == fold.shape[0]):
        raise DataError("column, target, and folds must have equal lengths")
    if col.dtype.kind == "f" and np.isnan(col).any():
        raise DataError("encode missing values upstream; NaN groups are ambiguous")
    k = int(fold.max()) + 1
    _, inverse = np.unique(col, return_inverse=True)
    n_groups = int(inverse.max()) + 1
    out = np.empty((col.shape[0], rows.shape[0]))
    for c, yc in enumerate(rows):
        out[:, c] = _oof_encode_row(inverse, n_groups, yc, fold, k, alpha)
    return out


@dataclass(frozen=True)
class TargetMeanMap:
    """Full-train smoothed target means for inference, (groups, K); an
    unseen value gets `default`, the mean of each target row."""

    values: np.ndarray
    means: np.ndarray
    default: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        idx = np.searchsorted(self.values, x)
        idx = np.clip(idx, 0, max(len(self.values) - 1, 0))
        out = np.tile(self.default, (x.shape[0], 1))
        if len(self.values):
            hit = self.values[idx] == x
            out[hit] = self.means[idx[hit]]
        return out


def fit_target_map(col: np.ndarray, y: np.ndarray, alpha: float = SMOOTHING_ALPHA,
                   n_classes: int = 0) -> TargetMeanMap:
    """Fit full-train statistics with the same smoothing as the OOF encoder."""
    col = np.asarray(col)
    rows = target_rows(y, n_classes)
    values, inverse = np.unique(col, return_inverse=True)
    n_groups = len(values)
    cnt = np.bincount(inverse, minlength=n_groups).astype(np.float64)
    means = np.empty((n_groups, rows.shape[0]))
    default = np.empty(rows.shape[0])
    for c, yc in enumerate(rows):
        default[c] = yc.mean()
        s = np.bincount(inverse, weights=yc, minlength=n_groups)
        means[:, c] = (s + alpha * default[c]) / (cnt + alpha)
    return TargetMeanMap(values, means, default)


# ---------------------------------------------------------------------------
# Quantile discretization


def quantile_discretize(col: np.ndarray, q: int) -> np.ndarray:
    """Bin a numeric vector at empirical quantile edges k/q.

    Duplicate edges are merged, so the effective bin count can be below q.
    Missing values land in the reserved bin -1.
    """
    if q < 2:
        raise DataError("q must be at least 2")
    col = np.asarray(col, dtype=np.float64)
    out = np.full(col.shape[0], -1, dtype=np.int32)
    ok = ~np.isnan(col)
    finite = col[ok]
    if finite.size == 0:
        return out
    edges = np.unique(np.quantile(finite, np.arange(1, q) / q))
    out[ok] = np.searchsorted(edges, finite, side="left").astype(np.int32)
    return out
