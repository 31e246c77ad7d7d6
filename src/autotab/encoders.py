"""Category/value encoders and the Normalized Gini concordance score.

Every target encoding is built from K target rows (`target_rows`): K = 1 for
binary and regression, where the row is y itself, and one class-indicator
row per class for multiclass. Each row is encoded on its own, so an encoding
is always (n, K) and its map's means (groups, K).

Normalized Gini is |C - D| / P over row pairs, where C and D count strictly
concordant and discordant pairs of (feature, target) and P counts pairs whose
targets differ. It is the sorting-quality proxy behind auto-typing and
encoder selection. Both counts are exact integers, so every score is the
same float however it is counted: a rank-sum identity for two-valued
targets, and otherwise one pass of the compiled kernel over dense int64
ranks of x and y, a counting sort by target rank and a Fenwick tree over the
x ranks, in O(n log n) with no comparison sort (`gbm/native.py`, so scoring
needs the C compiler `cc`). The rank sum of a two-valued target is one
kernel pass over x (`metrics.positive_rank_sum`), or, where the dense ranks
of x are known, one np.bincount of the classes by x rank (`class_ginis`).
Auto-typing ranks the target once per run and scores each column from its
ranks (`rank_gini`, `class_ginis`).
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


def _binary_concordance(r1: float, n1: int, n0: int) -> tuple[float, float]:
    """Exact (C - D, P) of a 0/1 target with n1 ones and n0 zeros, from r1,
    the sum of the average ranks of x over the ones."""
    p = float(n1) * float(n0)
    if p == 0:
        return 0.0, 0.0
    return 2.0 * (r1 - n1 * (n1 + 1) / 2.0) - p, p


def binary_gini(pos: np.ndarray, x: np.ndarray) -> float:
    """Normalized Gini of x against the 0/1 target that the boolean `pos`
    marks: 0 if it holds one value."""
    n1 = int(pos.sum())
    n0 = pos.shape[0] - n1
    if n1 == 0 or n0 == 0:
        return 0.0
    return _ratio(*_binary_concordance(positive_rank_sum(pos, x), n1, n0))


def dense_ranks(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Ranks 0..levels-1 of `values` (no NaN; -0.0 ties 0.0), and levels."""
    distinct, ranks = np.unique(values, return_inverse=True)
    return ranks, distinct.shape[0]


def _rank_concordance(y_rank: np.ndarray, y_levels: int, x_rank: np.ndarray,
                      x_levels: int) -> tuple[float, float]:
    """Exact (C - D, P) from int64 ranks, y's below y_levels and x's below
    x_levels; either may have gaps. One call of the compiled kernel counts
    both with a counting sort and a Fenwick tree."""
    from .gbm.native import kernel  # fitting only: prediction never scores

    y_rank = np.ascontiguousarray(y_rank, dtype=np.int64)
    x_rank = np.ascontiguousarray(x_rank, dtype=np.int64)
    n = y_rank.shape[0]
    if x_rank.shape != (n,):
        raise DataError("ranks of y and x must have equal lengths")
    for rank, levels in ((y_rank, y_levels), (x_rank, x_levels)):
        if n and (rank.min() < 0 or rank.max() >= levels):
            raise DataError("a rank lies outside 0..levels-1")  # the kernel indexes by it
    work = np.empty(n + y_levels + 2 * x_levels + 2, dtype=np.int64)
    pairs = np.empty(1, dtype=np.int64)
    c_minus_d = kernel().rank_concordance(x_rank.ctypes.data, y_rank.ctypes.data, n,
                                          x_levels, y_levels, work.ctypes.data,
                                          pairs.ctypes.data)
    return float(c_minus_d), float(pairs[0])


def _general_concordance(y: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Exact (C - D, P) for arbitrary targets."""
    return _rank_concordance(*dense_ranks(y), *dense_ranks(x))


def _ratio(c_minus_d: float, p: float) -> float:
    return 0.0 if p == 0 else min(1.0, abs(c_minus_d) / p)


def rank_gini(y_rank: np.ndarray, y_levels: int, x_rank: np.ndarray,
              x_levels: int) -> float:
    """Normalized Gini from ranks (`_rank_concordance`): `norm_gini` of the
    values they rank, bit for bit, the ratio being of exact integers."""
    return _ratio(*_rank_concordance(y_rank, y_levels, x_rank, x_levels))


def class_ginis(y_class: np.ndarray, classes: int, x_rank: np.ndarray,
                x_levels: int) -> list[float]:
    """Normalized Gini of x against each class indicator, from the rows'
    class numbers y_class (below `classes`) and the ranks of x (below
    x_levels, gaps allowed): `binary_gini(y_class == c, x)` for each class
    c, bit for bit. Rank r's rows take sorted positions ends[r] - counts[r]
    .. ends[r] - 1, so their average rank is (2 * ends[r] - counts[r] + 1) /
    2, and one np.bincount of (x rank, class) cells gives each class's rank
    sum. The sums are of half-integers, exact in any order."""
    counts = np.bincount(x_rank, minlength=x_levels)
    ends = np.cumsum(counts)
    mean_rank = (2 * ends - counts + 1) / 2.0
    cells = np.bincount(x_rank * classes + y_class, minlength=x_levels * classes)
    cells = cells.reshape(x_levels, classes)
    rank_sums = (mean_rank @ cells).tolist()
    n = x_rank.shape[0]
    return [_ratio(*_binary_concordance(r1, n1, n - n1))
            for r1, n1 in zip(rank_sums, cells.sum(axis=0).tolist())]


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
        return binary_gini(y == distinct[1], x)
    return _ratio(*_general_concordance(y, x))


def lookup_sorted(dictionary: np.ndarray, keys) -> np.ndarray:
    """The position of each key in the sorted `dictionary`, -1 where it is
    absent (NaN always is); an empty dictionary holds no key."""
    keys = np.asarray(keys)
    if len(dictionary) == 0:
        return np.full(keys.shape, -1, dtype=np.intp)
    idx = np.minimum(np.searchsorted(dictionary, keys), len(dictionary) - 1)
    return np.where(dictionary[idx] == keys, idx, -1)


# ---------------------------------------------------------------------------
# Frequency encoding


@dataclass(frozen=True)
class FrequencyMap:
    """Value -> raw occurrence count in the training column; unseen -> 0."""

    values: np.ndarray
    counts: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        pos = lookup_sorted(self.values, x)
        out = np.zeros(pos.shape)
        hit = pos >= 0
        out[hit] = self.counts[pos[hit]]
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


def _exclude_fold_sum(per_fold: np.ndarray) -> np.ndarray:
    """Sum over the fold rows (axis 0) excluding each row in turn.

    Built from prefix sums rather than total-minus-row so the result for
    fold f never touches fold f's accumulator: perturbing one row's target
    then leaves every same-fold row's encoding bit-identical. The sums run
    one fold at a time over whole rows, in np.cumsum's order (which along
    axis 0 is ten times slower).
    """
    k = per_fold.shape[0]
    rows = per_fold.reshape(k, -1)
    left = np.zeros_like(rows)
    right = np.zeros_like(rows)
    if k > 1:
        left[1] = rows[0]
        right[k - 2] = rows[k - 1]
    for f in range(2, k):
        np.add(left[f - 1], rows[f - 1], out=left[f])
        np.add(right[k - f], rows[k - f], out=right[k - f - 1])
    left += right
    return left.reshape(per_fold.shape)


def target_rows(y: np.ndarray, n_classes: int = 0) -> np.ndarray:
    """The (K, n) target rows of a target encoding, each C-contiguous: y
    itself when n_classes is 0, else one indicator row per class."""
    y = np.asarray(y, dtype=np.float64)
    if n_classes:
        return (y == np.arange(n_classes)[:, None]).astype(np.float64)
    return np.ascontiguousarray(y)[None, :]


def _oof_encode_row(y: np.ndarray, fold: np.ndarray, cell: np.ndarray, n_cells: int,
                    out_n: np.ndarray, out_cnt: np.ndarray, alpha: float) -> np.ndarray:
    # the smoothing mean is fold-local (mean of y outside the row's fold) so
    # that no component of row i's own target reaches its encoding
    k = out_n.shape[0]
    out_y = _exclude_fold_sum(np.bincount(fold, weights=y, minlength=k))
    gm_full = float(y.mean())
    gm_fold = np.where(out_n > 0, out_y / np.maximum(out_n, 1.0), gm_full)
    gm_row = gm_fold[fold]

    cell_sum = np.bincount(cell, weights=y, minlength=n_cells).reshape(k, -1)
    out_sum = _exclude_fold_sum(cell_sum).ravel()[cell] + alpha * gm_row
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
    if col.dtype.kind == "f" and np.isnan(col).any():
        raise DataError("encode missing values upstream; NaN groups are ambiguous")
    _, inverse = np.unique(col, return_inverse=True)
    return oof_encode_groups(inverse, y, folds, alpha, n_classes)


def oof_encode_groups(groups: np.ndarray, y: np.ndarray, folds,
                      alpha: float = SMOOTHING_ALPHA, n_classes: int = 0) -> np.ndarray:
    """`oof_target_encode` of a column given as group ids >= 0, its values'
    ranks for instance: each row's encoding depends only on which rows share
    its group, so ids with gaps encode as the dense ones do, bit for bit."""
    rows = target_rows(y, n_classes)
    fold = _fold_vector(folds)
    if not (groups.shape[0] == rows.shape[1] == fold.shape[0]):
        raise DataError("column, target, and folds must have equal lengths")
    n = fold.shape[0]
    k = int(fold.max()) + 1
    n_cells = k * (int(groups.max()) + 1)
    cell = fold * (n_cells // k) + groups  # the row's (fold, group) cell
    out_n = n - np.bincount(fold, minlength=k).astype(np.float64)
    cell_cnt = np.bincount(cell, minlength=n_cells).reshape(k, -1).astype(np.float64)
    out_cnt = _exclude_fold_sum(cell_cnt).ravel()[cell] + alpha
    out = np.empty((n, rows.shape[0]))
    for c, yc in enumerate(rows):
        out[:, c] = _oof_encode_row(yc, fold, cell, n_cells, out_n, out_cnt, alpha)
    return out


@dataclass(frozen=True)
class TargetMeanMap:
    """Full-train smoothed target means for inference, (groups, K); an
    unseen value gets `default`, the mean of each target row."""

    values: np.ndarray
    means: np.ndarray
    default: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        pos = lookup_sorted(self.values, x)
        out = np.tile(self.default, (pos.shape[0], 1))
        hit = pos >= 0
        out[hit] = self.means[pos[hit]]
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


def quantile_edges(finite: np.ndarray, q: int) -> np.ndarray:
    """The distinct empirical quantiles k/q of a non-empty vector, the same
    in any row order; a value's bin is its left searchsorted position."""
    return np.unique(np.quantile(finite, np.arange(1, q) / q))
