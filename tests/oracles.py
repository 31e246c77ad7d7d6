"""Independent brute-force oracles used to pin expected values."""

from __future__ import annotations

import itertools
import math
from datetime import datetime, timezone

import numpy as np

from autotab.data import (DATETIME_FORMATS, DATETIME_PARSE_THRESHOLD, EPOCH_FORMAT,
                          EPOCH_RANGE, Column, _epoch_int_to_datetime)


def gini_pairwise(y, x, task_kind=None) -> float:
    """O(n^2) pair count: |C - D| / P with ties contributing nothing."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if task_kind == "multiclass":
        classes = np.unique(y)
        return max(gini_pairwise((y == c).astype(float), x) for c in classes)
    n = len(y)
    c = d = p = 0
    for i in range(n):
        for j in range(i + 1, n):
            dy = y[i] - y[j]
            if dy != 0:
                p += 1
            prod = (x[i] - x[j]) * dy
            if prod > 0:
                c += 1
            elif prod < 0:
                d += 1
    if p == 0:
        return 0.0
    return abs(c - d) / p


def gini_pairwise_np(y, x, task_kind=None) -> float:
    """The same O(n^2) pair count, materialized as sign matrices."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if task_kind == "multiclass":
        classes = np.unique(y)
        return max(gini_pairwise_np((y == c).astype(float), x) for c in classes)
    upper = np.triu_indices(len(y), k=1)
    dy = (y[:, None] - y[None, :])[upper]
    dx = (x[:, None] - x[None, :])[upper]
    prod = dx * dy
    p = int((dy != 0).sum())
    if p == 0:
        return 0.0
    c = int((prod > 0).sum())
    d = int((prod < 0).sum())
    return abs(c - d) / p


def oof_mean_by_hand(col, y, fold, alpha) -> np.ndarray:
    """Literal per-row formula for the OOF target encoding.

    The smoothing mean is the mean of y outside the row's fold, so row i's
    own target never contributes to its encoding.
    """
    col = list(col)
    y = np.asarray(y, dtype=np.float64)
    fold = list(fold)
    out = np.empty(len(col))
    for i in range(len(col)):
        outside = [y[j] for j in range(len(col)) if fold[j] != fold[i]]
        gm = float(np.mean(outside)) if outside else float(y.mean())
        num = alpha * gm
        den = alpha
        seen = False
        for j in range(len(col)):
            if col[j] == col[i] and fold[j] != fold[i]:
                num += y[j]
                den += 1
                seen = True
        out[i] = num / den if den > 0 else gm
        if not seen and alpha == 0:
            out[i] = gm
    return out


def simplex_grid_best(preds, y, metric_fn, step=0.01):
    """Exhaustive weight search on the simplex at the given resolution."""
    m = len(preds)
    ticks = int(round(1.0 / step))
    best_score = -np.inf
    best_w = None
    for combo in itertools.product(range(ticks + 1), repeat=m - 1):
        if sum(combo) > ticks:
            continue
        w = np.array(list(combo) + [ticks - sum(combo)], dtype=np.float64) / ticks
        blended = sum(wi * p for wi, p in zip(w, preds))
        score = metric_fn(y, blended)
        if score > best_score:
            best_score = score
            best_w = w
    return best_w, best_score


# ---------------------------------------------------------------------------
# Per-cell parse cascade: the reference for the column-wise parse in data.py.


def cascade_try_int(cells):
    out = np.full(len(cells), np.nan)
    for i, c in enumerate(cells):
        if c is None:
            continue
        s = c.strip()
        try:
            out[i] = int(s)
        except ValueError:
            return None
    return out, False


def cascade_try_float(cells):
    out = np.full(len(cells), np.nan)
    has_fraction = False
    for i, c in enumerate(cells):
        if c is None:
            continue
        try:
            v = float(c.strip())
        except ValueError:
            return None
        if not math.isfinite(v):
            return None
        out[i] = v
        if v != math.floor(v):
            has_fraction = True
    return out, has_fraction


def cascade_parse_datetime_format(cells, fmt):
    out = np.full(len(cells), np.nan)
    n_parsed = 0
    for i, c in enumerate(cells):
        if c is None:
            continue
        try:
            dt = datetime.strptime(c.strip(), fmt).replace(tzinfo=timezone.utc)
        except ValueError:
            continue
        out[i] = dt.timestamp()
        n_parsed += 1
    return out, n_parsed


def cascade_try_datetime(cells):
    """Every format on every cell; the first format reaching the threshold wins."""
    n_nonmissing = sum(1 for c in cells if c is not None)
    if n_nonmissing == 0:
        return None
    for fmt in DATETIME_FORMATS:
        epochs, n_parsed = cascade_parse_datetime_format(cells, fmt)
        if n_parsed / n_nonmissing >= DATETIME_PARSE_THRESHOLD:
            return epochs, fmt
    return None


def cascade_category_column(name, cells):
    seen = sorted({c for c in cells if c is not None})
    dictionary = np.array(seen, dtype=str)
    lookup = {v: i for i, v in enumerate(seen)}
    codes = np.array([lookup.get(c, -1) if c is not None else -1 for c in cells],
                     dtype=np.int32)
    return Column(name, "category", codes, dictionary=dictionary)


def cascade_parse_column(name, cells):
    parsed_int = cascade_try_int(cells)
    if parsed_int is not None:
        values, _ = parsed_int
        as_epoch = _epoch_int_to_datetime(values)
        if as_epoch is not None:
            col = Column(name, "datetime", as_epoch, datetime_format=EPOCH_FORMAT)
            return col, {"kind": "datetime", "format": EPOCH_FORMAT}
        return Column(name, "numeric", values), {"kind": "numeric"}
    parsed_float = cascade_try_float(cells)
    if parsed_float is not None:
        values, has_fraction = parsed_float
        col = Column(name, "numeric", values, from_float_literals=has_fraction)
        return col, {"kind": "numeric", "float_literals": has_fraction}
    parsed_dt = cascade_try_datetime(cells)
    if parsed_dt is not None:
        epochs, fmt = parsed_dt
        col = Column(name, "datetime", epochs, datetime_format=fmt)
        return col, {"kind": "datetime", "format": fmt}
    return cascade_category_column(name, cells), {"kind": "category"}


def _cascade_floats_or_nan(cells):
    out = np.full(len(cells), np.nan)
    for i, c in enumerate(cells):
        if c is None:
            continue
        try:
            out[i] = float(c.strip())
        except ValueError:
            pass
    return out


def cascade_parse_with_schema(name, cells, entry):
    kind = entry["kind"]
    if kind in ("numeric", "category_numeric"):
        return Column(name, "numeric", _cascade_floats_or_nan(cells))
    if kind == "datetime":
        fmt = entry["format"]
        if fmt == EPOCH_FORMAT:
            parsed = cascade_try_int(cells) or cascade_try_float(cells)
            values = parsed[0] if parsed is not None else np.full(len(cells), np.nan)
            lo, hi = EPOCH_RANGE
            values = values.copy()
            values[(values < lo) | (values > hi)] = np.nan
            return Column(name, "datetime", values, datetime_format=fmt)
        epochs, _ = cascade_parse_datetime_format(cells, fmt)
        return Column(name, "datetime", epochs, datetime_format=fmt)
    return cascade_category_column(name, cells)


def level_walk(feature, threshold, left, right, value, X) -> np.ndarray:
    """Leaf value of every row of X, walking all rows one depth level at a
    time (the tree evaluation the node-by-node router replaced)."""
    idx = np.zeros(X.shape[0], dtype=np.int32)
    while True:
        feat = feature[idx]
        internal = feat >= 0
        if not internal.any():
            break
        sub = np.flatnonzero(internal)
        x = X[sub, feat[sub]]
        go_left = x <= threshold[idx[sub]]  # NaN -> right
        idx[sub] = np.where(go_left, left[idx[sub]], right[idx[sub]])
    return value[idx]
