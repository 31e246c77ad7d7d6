"""Histogram tree growers: best-first leaf expansion and oblivious levels.

Split gain is the Newton gain with an L2 leaf regularizer:
    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - (GL+GR)^2/(HL+HR+reg))
min_data_in_leaf is enforced on both children (on the rows the tree actually
sees, i.e. after subsampling). Missing values occupy the last histogram bin
and always route right; a split at the top non-missing bin can isolate them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .binning import BinMapper

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
class Tree:
    """Flat-array binary tree. feature == -1 marks a leaf."""

    feature: np.ndarray
    bin_threshold: np.ndarray
    raw_threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    feature_gain: np.ndarray  # total split gain per (full) feature index

    def predict_codes(self, codes: np.ndarray) -> np.ndarray:
        return route(self.feature, self.bin_threshold, self.left, self.right, self.value, codes)

    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        return route(self.feature, self.raw_threshold, self.left, self.right, self.value, X)


def route(feature: np.ndarray, threshold: np.ndarray, left: np.ndarray, right: np.ndarray,
          value: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Leaf value of every row of X, found by sending row subsets node by node.

    An internal node gathers its feature for the rows that reached it and
    sends those with x <= threshold left, the rest right (NaN compares false,
    so it goes right); a leaf writes its value to its rows. X holds bin codes
    or raw values, whichever `threshold` is in; the gathers read one column
    at a time, so a Fortran-ordered X is fastest.
    """
    feature, threshold, left, right = (a.tolist() for a in (feature, threshold, left, right))
    columns = X.T
    out = np.empty(X.shape[0])
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        f = feature[node]
        if f < 0:
            out[rows] = value[node]
        elif rows.size:
            go_left = columns[f].take(rows) <= threshold[node]
            stack.append((right[node], rows.compress(~go_left)))
            stack.append((left[node], rows.compress(go_left)))
    return out


@dataclass
class _Node:
    rows: np.ndarray
    hists: tuple[np.ndarray, np.ndarray, np.ndarray]
    g_sum: float
    h_sum: float
    best: tuple[float, int, int] | None = None


def grow_leafwise(codes: np.ndarray, g: np.ndarray, h: np.ndarray,
                  rows: np.ndarray, feats: np.ndarray, mapper: BinMapper,
                  max_leaves: int, min_data: int, reg: float,
                  lr: float) -> tuple[Tree, np.ndarray, np.ndarray]:
    """Grow by repeatedly splitting the leaf with the largest gain.

    Returns the tree plus (row_leaf_values, rows) so callers can update train
    scores without re-walking the tree. Sibling histograms are derived by
    subtraction from the parent.
    """
    n_features_total = codes.shape[1]
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
    feature_gain = np.zeros(n_features_total)

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
        feature_gain[f] += gain
        node.hists = None  # free
        node.rows = np.empty(0, dtype=node.rows.dtype)
        n_leaves += 1
        push(left_id)
        push(right_id)

    # flatten into arrays
    n_nodes = next_id
    feature = np.full(n_nodes, -1, dtype=np.int32)
    bin_thr = np.zeros(n_nodes, dtype=np.int32)
    raw_thr = np.zeros(n_nodes)
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
            raw_thr[nid] = mapper.raw_threshold(f, t)
            left[nid] = lid
            right[nid] = rid
        else:
            node = nodes[nid]
            value[nid] = _leaf_value(node.g_sum, node.h_sum, reg, lr)
            if node.rows.shape[0]:
                row_values[pos_of_row[node.rows]] = value[nid]
    tree = Tree(feature, bin_thr, raw_thr, left, right, value, feature_gain)
    return tree, row_values, rows


@dataclass
class ObliviousTree:
    """One shared split per level; leaves are indexed by the level bits."""

    features: np.ndarray
    bin_thresholds: np.ndarray
    raw_thresholds: np.ndarray
    leaf_values: np.ndarray
    feature_gain: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.features)

    def _leaf_index_codes(self, codes: np.ndarray) -> np.ndarray:
        idx = np.zeros(codes.shape[0], dtype=np.int64)
        for lvl in range(self.depth):
            bit = codes[:, self.features[lvl]] > self.bin_thresholds[lvl]
            idx = idx * 2 + bit
        return idx

    def predict_codes(self, codes: np.ndarray) -> np.ndarray:
        return self.leaf_values[self._leaf_index_codes(codes)]

    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(X.shape[0], dtype=np.int64)
        for lvl in range(self.depth):
            x = X[:, self.features[lvl]]
            bit = ~(x <= self.raw_thresholds[lvl])  # NaN -> right
            idx = idx * 2 + bit
        return self.leaf_values[idx]


def grow_oblivious(codes: np.ndarray, g: np.ndarray, h: np.ndarray,
                   rows: np.ndarray, feats: np.ndarray, mapper: BinMapper,
                   max_depth: int, min_data: int, reg: float,
                   lr: float) -> tuple[ObliviousTree, np.ndarray, np.ndarray]:
    """Grow an oblivious tree: each level picks the single (feature, bin)
    whose gain summed over the level's nodes is largest.

    Nodes where a candidate split would violate min_data contribute zero to
    its total. Growth stops when no candidate has positive total gain.
    """
    n_features_total = codes.shape[1]
    node_of_row = np.zeros(rows.shape[0], dtype=np.int64)
    gr = g[rows]
    hr = h[rows]
    level_feats: list[int] = []
    level_bins: list[int] = []
    feature_gain = np.zeros(n_features_total)

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
        feature_gain[f] += best_total
        bit = codes[rows, f] > best_t
        node_of_row = node_of_row * 2 + bit

    depth = len(level_feats)
    n_leaves = 1 << depth
    g_leaf = np.bincount(node_of_row, weights=gr, minlength=n_leaves)
    h_leaf = np.bincount(node_of_row, weights=hr, minlength=n_leaves)
    values = -lr * g_leaf / (h_leaf + reg)
    values[np.bincount(node_of_row, minlength=n_leaves) == 0] = 0.0
    tree = ObliviousTree(
        np.array(level_feats, dtype=np.int32),
        np.array(level_bins, dtype=np.int32),
        np.array([mapper.raw_threshold(f, t) for f, t in zip(level_feats, level_bins)]),
        values,
        feature_gain,
    )
    return tree, values[node_of_row], rows
