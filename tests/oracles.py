"""Independent brute-force oracles used to pin expected values."""

from __future__ import annotations

import csv
import heapq
import itertools
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from autotab.data import (DATETIME_FORMATS, DATETIME_PARSE_THRESHOLD, EPOCH_FORMAT,
                          EPOCH_RANGE, MISSING_TOKENS, Column, RawTable,
                          _epoch_int_to_datetime)
from autotab.encoders import quantile_edges
from autotab.errors import DataError
from autotab.gbm.binning import BinMapper
from autotab.gbm.losses import make_loss
from autotab.gbm.trees import Tree, route
from autotab.metrics import evaluate
from autotab.stopping import PATIENCE, improves


def quantile_discretize(col: np.ndarray, q: int) -> np.ndarray:
    """Bin a numeric vector at empirical quantile edges k/q, as auto-typing
    bins a column for its quantile Gini (autotype.py computes the same bins
    inline from `quantile_edges`).

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
    out[ok] = np.searchsorted(quantile_edges(finite, q), finite, side="left").astype(np.int32)
    return out


def concordance_pairwise(y, x) -> int:
    """C - D by visiting every pair: ties in x or y count for neither."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return int(sum(np.sign(x[i] - x[i + 1:]) @ np.sign(y[i] - y[i + 1:])
                   for i in range(len(y))))


def _tied_pairs(values) -> int:
    """Pairs of equal values, from the counts of np.unique."""
    _, counts = np.unique(values, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def concordance_kendalltau(y, x) -> tuple[float, float]:
    """(C - D, P) reconstructed from scipy's Kendall tau-b, as encoders did
    before it counted the pairs itself."""
    from scipy.stats import kendalltau

    n = y.shape[0]
    n0 = n * (n - 1) // 2
    ny = _tied_pairs(y)
    nx = _tied_pairs(x)
    p = float(n0 - ny)
    if p == 0 or n0 == nx:
        return 0.0, p
    tau = kendalltau(x, y).statistic
    if not np.isfinite(tau):
        return 0.0, p
    # tau-b = (C - D) / sqrt((n0 - nx)(n0 - ny)); C - D is an integer
    return float(np.rint(tau * np.sqrt(float(n0 - nx) * float(n0 - ny)))), p


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


def positive_rank_sum_argsort(pos: np.ndarray, scores: np.ndarray) -> float:
    """Sum of the average ranks of `scores` over `pos`, from one stable
    argsort and its runs of equal scores (the earlier `metrics` formula)."""
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    counts = np.diff(np.append(starts, ranked.shape[0]))
    mean_rank = starts + (counts + 1) / 2.0  # 1-based ranks start+1 .. start+count
    return float(np.repeat(mean_rank, counts)[pos[order]].sum())


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
# Row-by-row CSV reader: the reference for data.read_csv.


def reference_read_csv(path: str, target_name: str | None = None,
                       hints: dict[str, str] | None = None) -> RawTable:
    """Read an RFC 4180 CSV with a header row into text columns.

    Empty cells and the tokens NA/NaN/null/None (case-insensitive) become
    missing (None). Ragged rows are a hard error reporting the 1-based data
    row index. `target_name` and hint keys are validated against the header.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        n_cols = len(header)
        cols: list[list] = [[] for _ in range(n_cols)]
        n_rows = 0
        for i, row in enumerate(reader, start=1):
            if len(row) != n_cols:
                raise DataError(
                    f"{path}: ragged row {i}: expected {n_cols} cells, got {len(row)}")
            for j, cell in enumerate(row):
                cols[j].append(None if cell.strip().lower() in MISSING_TOKENS else cell)
            n_rows += 1
    if target_name is not None and target_name not in header:
        raise DataError(f"target column {target_name!r} not found in header")
    for key in (hints or {}):
        if key not in header:
            raise DataError(f"role hint names unknown column {key!r}")
    return RawTable(tuple(header), tuple(tuple(c) for c in cols), n_rows)


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
        except (ValueError, OverflowError):  # OverflowError: an integer beyond float64
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
            col = Column(name, "datetime", as_epoch)
            return col, {"kind": "datetime", "format": EPOCH_FORMAT}
        return Column(name, "numeric", values), {"kind": "numeric"}
    parsed_float = cascade_try_float(cells)
    if parsed_float is not None:
        values, has_fraction = parsed_float
        col = Column(name, "numeric", values, from_float_literals=has_fraction)
        return col, {"kind": "numeric"}
    parsed_dt = cascade_try_datetime(cells)
    if parsed_dt is not None:
        epochs, fmt = parsed_dt
        col = Column(name, "datetime", epochs)
        return col, {"kind": "datetime", "format": fmt}
    return cascade_category_column(name, cells), {"kind": "category"}


def _cascade_finite_floats(name, cells):
    """Each cell's float, NaN where missing; DataError at the first cell that
    is not a finite number."""
    out = np.full(len(cells), np.nan)
    for i, c in enumerate(cells):
        if c is None:
            continue
        try:
            out[i] = float(c.strip())
        except ValueError:
            out[i] = np.nan
        if not math.isfinite(out[i]):
            raise DataError(f"column {name!r} holds {c!r} at row {i + 1}, "
                            "which is not a finite number")
    return out


def cascade_parse_with_schema(name, cells, entry):
    kind = entry["kind"]
    if kind == "numeric":
        return Column(name, "numeric", _cascade_finite_floats(name, cells))
    if kind == "datetime":
        fmt = entry["format"]
        if fmt == EPOCH_FORMAT:
            values = _cascade_finite_floats(name, cells)
            lo, hi = EPOCH_RANGE
            values[(values < lo) | (values > hi)] = np.nan
            return Column(name, "datetime", values)
        epochs, _ = cascade_parse_datetime_format(cells, fmt)
        return Column(name, "datetime", epochs)
    return cascade_category_column(name, cells)


def sigmoid_masked(z: np.ndarray) -> np.ndarray:
    """The logistic function as losses.sigmoid computed it before, through
    boolean masks."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def linear_objective(x, X, y, lam, task_kind, n_classes=0) -> tuple[float, np.ndarray]:
    """Objective and gradient of linear.solve's binary and multiclass losses,
    written out on their own."""
    n, d = X.shape
    if task_kind == "binary":
        w, b = x[:-1], x[-1]
        z = X @ w + b
        p = np.exp(-np.logaddexp(0.0, -z))
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * lam * float(w @ w)
        return loss, np.append(X.T @ (p - y) / n + lam * w, np.mean(p - y))
    W = x[: d * n_classes].reshape(d, n_classes)
    z = X @ W + x[d * n_classes:]
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    logsum = zmax[:, 0] + np.log(ez.sum(axis=1))
    loss = float(np.mean(logsum - z[np.arange(n), y])) + 0.5 * lam * float((W * W).sum())
    G = ez / ez.sum(axis=1, keepdims=True)
    G[np.arange(n), y] -= 1.0
    return loss, np.concatenate([(X.T @ G / n + lam * W).ravel(), G.mean(axis=0)])


def lbfgs_solve(X, y, lam, task_kind, n_classes=0, x0=None) -> np.ndarray:
    """linear.solve's binary and multiclass solve as scipy's L-BFGS-B ran it
    before the Newton solver replaced it."""
    from scipy.optimize import minimize

    size = (X.shape[1] + 1) * (n_classes if task_kind == "multiclass" else 1)
    res = minimize(linear_objective, np.zeros(size) if x0 is None else x0,
                   args=(X, y, lam, task_kind, n_classes), jac=True, method="L-BFGS-B",
                   options={"maxiter": 500, "gtol": 1e-8, "ftol": 1e-15})
    return res.x


def ridge_svd_solve(X, y, lam) -> np.ndarray:
    """The packed ridge solution (w, b) from one thin SVD of the centered
    training rows, as linear.RidgePath computed it before it was built from
    QR factors of row blocks."""
    n, d = X.shape
    x_mean, y_mean = X.mean(axis=0), float(y.mean())
    U, s, Vt = np.linalg.svd(X - x_mean, full_matrices=False)
    keep = s > max(n, d) * np.finfo(np.float64).eps * np.linalg.norm(X)
    s, Vt = s[keep], Vt[keep]
    w = Vt.T @ (s / (s ** 2 + n * lam) * (U[:, keep].T @ (y - y_mean)))
    return np.append(w, y_mean - float(x_mean @ w))


def ridge_lambda_path(X, y, X_val, y_val, metric, grid, patience=2):
    """linear.fit_lambda_path's regression walk over per-fold SVD solutions,
    one grid point at a time: (best strength, score history, validation
    predictions at the best strength)."""
    history, predictions, worse = [], [], 0
    for lam in grid:
        x = ridge_svd_solve(X, y, float(lam))
        predictions.append(X_val @ x[:-1] + x[-1])
        history.append(evaluate(metric, y_val, predictions[-1]))
        worse = 0 if history[-1] >= max(history) else worse + 1  # ties are no worse
        if worse >= patience:
            break
    best = int(np.argmax(history))
    return float(grid[best]), history, predictions[best]


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


def predict_codes(tree, codes: np.ndarray) -> np.ndarray:
    """Leaf value of every row of bin codes, the way boosting walked each new
    tree for its left-out and validation rows before the growers carried them
    as passengers: `route` over the tree's bin thresholds."""
    return route(tree.feature, tree.bin_threshold, tree.left, tree.right, tree.value, codes)


def unpack(forest) -> list[tuple[Tree, np.ndarray]]:
    """Each tree of a `PackedTrees` as a `Tree` and its raw thresholds, all
    views of the forest's node table, in boosting order."""
    bounds = forest.starts.tolist()
    return [(Tree(forest.feature[lo:hi], forest.bin_threshold[lo:hi], forest.left[lo:hi],
                  forest.right[lo:hi], forest.value[lo:hi]), forest.threshold[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def predict_raw(tree, threshold: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Leaf value of every row of raw values X: `route` over `threshold`."""
    return route(tree.feature, threshold, tree.left, tree.right, tree.value, X)


def raw_threshold(mapper: BinMapper, j: int, bin_t: int) -> float:
    """The raw value whose `x <= value` test sends the same rows left as
    `code <= bin_t` on feature j, one split at a time: the feature's edge at
    bin_t, or +inf at or past its last edge."""
    edges = mapper.edges[j]
    return float(edges[bin_t]) if bin_t < len(edges) else math.inf


def raw_thresholds(tree, mapper: BinMapper) -> np.ndarray:
    """The raw threshold of each node of `tree` (0 at a leaf), node by node."""
    out = np.zeros(tree.feature.shape[0])
    for node, (f, t) in enumerate(zip(tree.feature.tolist(), tree.bin_threshold.tolist())):
        if f >= 0:
            out[node] = raw_threshold(mapper, f, t)
    return out


# The numpy tree kernel, as the growers in autotab.gbm.trees ran before the
# compiled kernel replaced it: the reference that kernel must equal bit for bit.

N_HIST = 256
_VALUE_BINS = 255  # bins 0..254 hold values, 255 is the missing bin


def _histograms(codes: np.ndarray, rows: np.ndarray, g: np.ndarray, h: np.ndarray,
                feats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum g/h/count per (feature, bin) over the given rows."""
    nf = len(feats)
    G = np.empty((nf, N_HIST))
    H = np.empty((nf, N_HIST))
    C = np.empty((nf, N_HIST))
    gr = g[rows]
    hr = h[rows]
    for i, f in enumerate(feats):
        c = codes[rows, f]
        G[i] = np.bincount(c, weights=gr, minlength=N_HIST)
        H[i] = np.bincount(c, weights=hr, minlength=N_HIST)
        C[i] = np.bincount(c, minlength=N_HIST)
    return G, H, C


def _leaf_value(g_sum: float, h_sum: float, reg: float, lr: float) -> float:
    return -lr * g_sum / (h_sum + reg)


def _gain_matrix(G: np.ndarray, H: np.ndarray, C: np.ndarray, reg: float,
                 min_data: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton gains for every (feature, bin threshold); invalid cells -inf."""
    gt = G.sum(axis=1, keepdims=True)
    ht = H.sum(axis=1, keepdims=True)
    ct = C.sum(axis=1, keepdims=True)
    gl = np.cumsum(G[:, :_VALUE_BINS], axis=1)
    hl = np.cumsum(H[:, :_VALUE_BINS], axis=1)
    cl = np.cumsum(C[:, :_VALUE_BINS], axis=1)
    gr = gt - gl
    hr = ht - hl
    cr = ct - cl
    # the kernel tests draw zero hessian sums at reg = 0 and NaN gradients:
    # their cells divide by zero on purpose, as the kernel's do
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = gt ** 2 / (ht + reg)
        gains = 0.5 * (gl ** 2 / (hl + reg) + gr ** 2 / (hr + reg) - parent)
    invalid = (cl < min_data) | (cr < min_data)
    gains[invalid] = -np.inf
    return gains, cl


def _best_split(gains: np.ndarray) -> tuple[float, int, int]:
    """(gain, feature position, bin threshold); ties resolve to the first."""
    flat = int(np.argmax(gains))
    fpos, t = divmod(flat, gains.shape[1])
    return float(gains[fpos, t]), fpos, t


@dataclass
class _Node:
    rows: np.ndarray
    hists: tuple[np.ndarray, np.ndarray, np.ndarray]
    g_sum: float
    h_sum: float
    best: tuple[float, int, int] | None = None


def grow_leafwise(codes: np.ndarray, g: np.ndarray, h: np.ndarray,
                  rows: np.ndarray, feats: np.ndarray, max_leaves: int, min_data: int, reg: float,
                  lr: float) -> tuple[Tree, np.ndarray, np.ndarray]:
    """Grow by repeatedly splitting the leaf with the largest gain.

    Returns the tree plus (row_leaf_values, rows) so callers can update train
    scores without re-walking the tree. Sibling histograms are derived by
    subtraction from the parent.
    """
    nodes: dict[int, _Node] = {}
    children: dict[int, tuple[int, int, int, int]] = {}  # id -> (feat, t, left, right)
    next_id = 0

    def make_node(node_rows: np.ndarray, hists=None) -> int:
        nonlocal next_id
        nid = next_id
        next_id += 1
        if hists is None:
            hists = _histograms(codes, node_rows, g, h, feats)
        G, H, _ = hists
        nodes[nid] = _Node(node_rows, hists, float(G.sum()), float(H.sum()))
        return nid

    root_rows = rows
    root = make_node(root_rows)
    heap: list[tuple[float, int]] = []

    def push(nid: int) -> None:
        node = nodes[nid]
        if node.rows.shape[0] < 2 * min_data:
            return
        gains, _ = _gain_matrix(*node.hists, reg, min_data)
        gain, fpos, t = _best_split(gains)
        if gain <= 0 or not np.isfinite(gain):
            return
        node.best = (gain, fpos, t)
        heapq.heappush(heap, (-gain, nid))

    push(root)
    n_leaves = 1

    while heap and n_leaves < max_leaves:
        neg_gain, nid = heapq.heappop(heap)
        node = nodes[nid]
        if node.best is None:
            continue
        gain, fpos, t = node.best
        f = int(feats[fpos])
        go_left = codes[node.rows, f] <= t
        left_rows = node.rows[go_left]
        right_rows = node.rows[~go_left]
        # build the smaller child's histograms, subtract for the larger
        G, H, C = node.hists
        if left_rows.shape[0] <= right_rows.shape[0]:
            small_hists = _histograms(codes, left_rows, g, h, feats)
            big_hists = (G - small_hists[0], H - small_hists[1], C - small_hists[2])
            left_id = make_node(left_rows, small_hists)
            right_id = make_node(right_rows, big_hists)
        else:
            small_hists = _histograms(codes, right_rows, g, h, feats)
            big_hists = (G - small_hists[0], H - small_hists[1], C - small_hists[2])
            left_id = make_node(left_rows, big_hists)
            right_id = make_node(right_rows, small_hists)
        children[nid] = (f, t, left_id, right_id)
        node.hists = None  # free
        node.rows = np.empty(0, dtype=node.rows.dtype)
        n_leaves += 1
        push(left_id)
        push(right_id)

    # flatten into arrays
    n_nodes = next_id
    feature = np.full(n_nodes, -1, dtype=np.int32)
    bin_thr = np.zeros(n_nodes, dtype=np.int32)
    left = np.full(n_nodes, -1, dtype=np.int32)
    right = np.full(n_nodes, -1, dtype=np.int32)
    value = np.zeros(n_nodes)
    row_values = np.zeros(rows.shape[0])
    pos_of_row = np.empty(codes.shape[0], dtype=np.int64)
    pos_of_row[rows] = np.arange(rows.shape[0])
    for nid in range(n_nodes):
        if nid in children:
            f, t, lid, rid = children[nid]
            feature[nid] = f
            bin_thr[nid] = t
            left[nid] = lid
            right[nid] = rid
        else:
            node = nodes[nid]
            value[nid] = _leaf_value(node.g_sum, node.h_sum, reg, lr)
            if node.rows.shape[0]:
                row_values[pos_of_row[node.rows]] = value[nid]
    tree = Tree(feature, bin_thr, left, right, value)
    return tree, row_values, rows


def grow_oblivious(codes: np.ndarray, g: np.ndarray, h: np.ndarray,
                   rows: np.ndarray, feats: np.ndarray, max_depth: int, min_data: int, reg: float,
                   lr: float) -> tuple[Tree, np.ndarray, np.ndarray]:
    """Grow an oblivious tree: each level picks the single (feature, bin)
    whose gain summed over the level's nodes is largest.

    Nodes where a candidate split would violate min_data contribute zero to
    its total. Growth stops when no candidate has positive total gain. The
    tree is the complete binary tree of the levels, built node by node:
    node i splits into 2i+1 (code <= bin) and 2i+2 on its level's split,
    and leaf k of the level bits is node 2^depth - 1 + k.
    """
    node_of_row = np.zeros(rows.shape[0], dtype=np.int64)
    gr = g[rows]
    hr = h[rows]
    level_feats: list[int] = []
    level_bins: list[int] = []

    for depth in range(max_depth):
        n_nodes = 1 << depth
        best_total = 0.0
        best_fpos = -1
        best_t = -1
        for i, f in enumerate(feats):
            c = codes[rows, f].astype(np.int64)
            pair = node_of_row * N_HIST + c
            G = np.bincount(pair, weights=gr, minlength=n_nodes * N_HIST).reshape(n_nodes, N_HIST)
            H = np.bincount(pair, weights=hr, minlength=n_nodes * N_HIST).reshape(n_nodes, N_HIST)
            C = np.bincount(pair, minlength=n_nodes * N_HIST).reshape(n_nodes, N_HIST)
            gains, _ = _gain_matrix(G, H, C, reg, min_data)
            gains = np.where(np.isfinite(gains), np.maximum(gains, 0.0), 0.0)
            totals = gains.sum(axis=0)  # per candidate bin for this feature
            t = int(np.argmax(totals))
            if totals[t] > best_total:
                best_total = float(totals[t])
                best_fpos = i
                best_t = t
        if best_fpos < 0 or best_total <= 0:
            break
        f = int(feats[best_fpos])
        level_feats.append(f)
        level_bins.append(best_t)
        bit = codes[rows, f] > best_t
        node_of_row = node_of_row * 2 + bit

    depth = len(level_feats)
    n_leaves = 1 << depth
    g_leaf = np.bincount(node_of_row, weights=gr, minlength=n_leaves)
    h_leaf = np.bincount(node_of_row, weights=hr, minlength=n_leaves)
    with np.errstate(divide="ignore", invalid="ignore"):  # empty leaves, set to 0 below
        values = -lr * g_leaf / (h_leaf + reg)
    values[np.bincount(node_of_row, minlength=n_leaves) == 0] = 0.0
    n_nodes = 2 * n_leaves - 1
    feature = np.full(n_nodes, -1, dtype=np.int32)
    bin_thr = np.zeros(n_nodes, dtype=np.int32)
    left = np.full(n_nodes, -1, dtype=np.int32)
    right = np.full(n_nodes, -1, dtype=np.int32)
    value = np.zeros(n_nodes)
    for node in range(n_nodes):
        level = (node + 1).bit_length() - 1
        if level < depth:
            f, t = level_feats[level], level_bins[level]
            feature[node], bin_thr[node] = f, t
            left[node], right[node] = 2 * node + 1, 2 * node + 2
        else:
            value[node] = values[node - (n_leaves - 1)]
    tree = Tree(feature, bin_thr, left, right, value)
    return tree, values[node_of_row], rows


# The boosting iteration in numpy, as fit_booster ran it before the kernel took
# over its sample layout, gradients and score updates: the reference that
# fit_booster must equal bit for bit.


def gradients(task_kind: str, y: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients and hessians of the training rows from p = transform(raw)."""
    if task_kind == "binary":
        return p - y, p * (1.0 - p)
    if task_kind == "multiclass":
        g = p.copy()
        g[np.arange(y.shape[0]), y.astype(np.int64)] -= 1.0
        return g, p * (1.0 - p)
    return p - y, np.ones_like(p)


def _roc_auc(y: np.ndarray, scores: np.ndarray) -> float:
    pos = y == 1
    n1 = int(pos.sum())
    n0 = y.shape[0] - n1
    if n1 == 0 or n0 == 0:
        return 0.5
    if np.isnan(scores).any():
        return float("nan")
    r1 = positive_rank_sum_argsort(pos, scores)
    return (r1 - n1 * (n1 + 1) / 2.0) / (n1 * n0)


def fit_booster(X, y, params, task_kind, n_classes=0, X_val=None, y_val=None, metric=None,
                seed=0, patience=PATIENCE):
    """Boost with the numpy growers above: each iteration draws a boolean
    mask of rows from rng.permutation and of features from rng.choice,
    takes the numpy gradients, grows a tree on the masked rows, routes every
    other row through it (`predict_codes`) and adds `raw[order] += values`,
    then early-stops on the validation score (ROC AUC from
    `positive_rank_sum_argsort`). Returns the kept trees, their raw
    thresholds (`raw_thresholds`, node by node), the eval history, the best
    iteration and the validation raw scores at it."""
    loss = make_loss(task_kind, n_classes)
    n, f = X.shape
    mapper = BinMapper().fit(X)
    codes = mapper.transform(X if X_val is None else np.concatenate([X, X_val]))
    n_all = codes.shape[0]
    y_fit = y.astype(np.float64) if task_kind != "multiclass" else y
    base = loss.init_score(y_fit)
    raw = np.tile(base, (n_all, 1)) if task_kind == "multiclass" else np.full(n_all, base)
    rng = np.random.default_rng(seed)
    n_sub = max(1, int(round(params.subsample * n)))
    n_feats = max(1, int(np.ceil(params.colsample * f)))
    outputs = n_classes if task_kind == "multiclass" else 1
    leaf_wise = params.flavor == "leaf_wise"
    grow = grow_leafwise if leaf_wise else grow_oblivious
    size = params.max_leaves if leaf_wise else params.max_depth
    validating = X_val is not None and metric is not None
    trees, history = [], []
    best, best_score, best_raw = -1, -np.inf, None
    p = loss.transform(raw)
    for it in range(params.n_estimators_cap):
        g, h = gradients(task_kind, y_fit, p[:n])
        in_bag, used = np.ones(n, dtype=bool), np.ones(f, dtype=bool)
        if params.subsample < 1.0:
            in_bag = np.zeros(n, dtype=bool)
            in_bag[rng.permutation(n)[:n_sub]] = True
        if params.colsample < 1.0:
            used = np.zeros(f, dtype=bool)
            used[rng.choice(f, size=n_feats, replace=False)] = True
        rows, feats = in_bag.nonzero()[0], used.nonzero()[0]
        riders = np.setdiff1d(np.arange(n_all), rows)
        for c in range(outputs):
            gc, hc = (g[:, c], h[:, c]) if task_kind == "multiclass" else (g, h)
            tree, values, order = grow(codes, np.ascontiguousarray(gc), np.ascontiguousarray(hc),
                                       rows, feats, size, params.min_data_in_leaf,
                                       params.l2_leaf_reg, params.learning_rate)
            values = np.concatenate([values, predict_codes(tree, codes[riders])])
            order = np.concatenate([order, riders])
            if task_kind == "multiclass":
                raw[order, c] += values
            else:
                raw[order] += values
            trees.append(tree)
        p = loss.transform(raw)
        if validating:
            score = (_roc_auc(y_val, p[n:]) if metric.name == "roc_auc"
                     else evaluate(metric, y_val, p[n:]))
            history.append(score)
            if it == 0 or improves(score, best_score):
                best, best_score, best_raw = it, score, raw[n:].copy()
            if it - best >= patience:
                break
    if history:
        trees, history, val_raw = trees[:(best + 1) * outputs], history[:best + 1], best_raw
    else:
        best, val_raw = len(trees) // outputs - 1, None if X_val is None else raw[n:]
    return trees, [raw_thresholds(t, mapper) for t in trees], history, best, val_raw
