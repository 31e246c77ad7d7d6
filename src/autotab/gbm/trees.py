"""Histogram tree growers: best-first leaf expansion and oblivious levels.

Split gain is the Newton gain with an L2 leaf regularizer:
    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - (GL+GR)^2/(HL+HR+reg))
min_data_in_leaf is enforced on both children (on the rows the tree actually
sees, i.e. after subsampling). Missing values occupy the last histogram bin
and always route right; a split at the top non-missing bin can isolate them.

The growers run their inner loops in a compiled kernel, `_kernel.c`, which
native.py builds with the system C compiler `cc` on first use; routing and
prediction are numpy and need no compiler. The kernel adds in the order of
the numpy kernel it replaced (kept in tests/oracles.py as its reference), so
trees are bit-identical to that kernel's:
  - bin sums are added in row order, as np.bincount does;
  - prefix sums run one bin after another over bins 0..254, as np.cumsum;
  - gain = 0.5 * ((GL^2/(HL+reg) + GR^2/(HR+reg)) - GT^2/(HT+reg)); a cell
    with fewer than min_data rows on a side is -inf, and the best split is
    the first maximum, a NaN counting as the maximum, as np.argmax;
  - oblivious totals add where(isfinite(gain), max(gain, 0), 0) over the
    level's nodes in node order.
The bin totals GT/HT/count of each histogram row and a leaf's gradient and
hessian sums are numpy pairwise sums, taken between kernel calls.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .binning import BinMapper

N_HIST = 256  # bins 0..254 hold values, 255 is the missing bin


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


def _kernel_inputs(codes: np.ndarray, g: np.ndarray, h: np.ndarray, rows: np.ndarray,
                   feats: np.ndarray):
    """The compiled kernel and the arrays it reads, in the layouts it expects:
    Fortran-ordered uint8 codes, contiguous float64 g/h (one per row of
    codes), int64 row and feature indices. Arrays already in those layouts
    are not copied. The kernel reads through the indices unchecked, so they
    are bounds-checked here."""
    from .native import kernel

    codes = np.asfortranarray(codes, dtype=np.uint8)
    g, h = (np.ascontiguousarray(a, dtype=np.float64) for a in (g, h))
    rows, feats = (np.ascontiguousarray(a, dtype=np.int64) for a in (rows, feats))
    n, n_features = codes.shape
    if g.shape != (n,) or h.shape != (n,):
        raise ValueError(f"g and h must have shape ({n},), got {g.shape} and {h.shape}")
    for name, index, size in (("rows", rows, n), ("feats", feats, n_features)):
        if index.ndim != 1 or (index.size and (index.min() < 0 or index.max() >= size)):
            raise ValueError(f"{name} must be a 1-d index into {size} entries")
    return kernel(), codes, g, h, rows, feats


def grow_leafwise(codes: np.ndarray, g: np.ndarray, h: np.ndarray,
                  rows: np.ndarray, feats: np.ndarray, mapper: BinMapper,
                  max_leaves: int, min_data: int, reg: float,
                  lr: float) -> tuple[Tree, np.ndarray, np.ndarray]:
    """Grow by repeatedly splitting the leaf with the largest gain.

    Returns the tree plus (row_leaf_values, rows) so callers can update train
    scores without re-walking the tree: the rows are the given ones regrouped
    leaf by leaf. Each node's rows are one slice of that order. A split builds
    the smaller child's histograms and derives the larger one's by
    subtraction in the parent's slot, so there is one slot per leaf.
    """
    kern, codes, g, h, rows, feats = _kernel_inputs(codes, g, h, rows, feats)
    n, nf = codes.shape[0], feats.shape[0]
    order = rows.copy()
    m = order.shape[0]
    hists = np.empty((max(max_leaves, 1), 3, nf, N_HIST))  # (G, H, count) per leaf slot
    totals = np.empty((3, nf))  # bin totals of the slot being scanned
    gbuf, hbuf, best = np.empty(m), np.empty(m), np.empty(3)
    tmp = np.empty(m, dtype=np.int64)
    c, gp, hp, op, fp, gb, hb, tp, bp, hist0, tot0 = (a.ctypes.data for a in (
        codes, g, h, order, feats, gbuf, hbuf, tmp, best, hists, totals))
    slot_bytes = hists[0].nbytes
    feat_ids = feats.tolist()

    span = [(0, m)]  # node id -> its slice of order
    slot = [0]  # node id -> histogram slot, while the node is a leaf
    children: dict[int, tuple[int, int, int, int]] = {}  # id -> (feat, t, left, right)
    heap: list[tuple[float, int, int, int]] = []  # (-gain, id, feature position, bin)
    kern.leaf_hist(c, n, gp, hp, op, 0, m, fp, nf, gb, hb, hist0)

    def push(nid: int) -> None:
        begin, end = span[nid]
        if end - begin < 2 * min_data:
            return
        s = slot[nid]
        hists[s].sum(axis=2, out=totals)
        kern.leaf_scan(hist0 + s * slot_bytes, tot0, nf, reg, min_data, bp)
        gain, fpos, t = best.tolist()
        if gain <= 0 or not math.isfinite(gain):
            return
        heapq.heappush(heap, (-gain, nid, int(fpos), int(t)))

    push(0)
    n_leaves = 1
    feature_gain = np.zeros(codes.shape[1])

    while heap and n_leaves < max_leaves:
        neg_gain, nid, fpos, t = heapq.heappop(heap)
        f = feat_ids[fpos]
        begin, end = span[nid]
        parent = slot[nid]
        n_left = kern.leaf_split(c, n, gp, hp, op, begin, end, f, t, fp, nf, gb, hb, tp,
                                 hist0 + parent * slot_bytes, hist0 + n_leaves * slot_bytes)
        left_id, right_id = len(span), len(span) + 1
        span += [(begin, begin + n_left), (begin + n_left, end)]
        # the smaller child (left on a tie) got the new slot
        slot += [n_leaves, parent] if n_left <= end - begin - n_left else [parent, n_leaves]
        children[nid] = (f, t, left_id, right_id)
        feature_gain[f] += -neg_gain
        n_leaves += 1
        if n_leaves < max_leaves:  # else growth ends: no split is taken from them
            push(left_id)
            push(right_id)

    # flatten into arrays
    n_nodes = len(span)
    feature = np.full(n_nodes, -1, dtype=np.int32)
    bin_thr = np.zeros(n_nodes, dtype=np.int32)
    raw_thr = np.zeros(n_nodes)
    left = np.full(n_nodes, -1, dtype=np.int32)
    right = np.full(n_nodes, -1, dtype=np.int32)
    value = np.zeros(n_nodes)
    leaf_sums = hists[:n_leaves, :2].sum(axis=(2, 3)).tolist()  # (G.sum(), H.sum()) per slot
    row_values = np.empty(m)
    for nid in range(n_nodes):
        if nid in children:
            f, t, lid, rid = children[nid]
            feature[nid] = f
            bin_thr[nid] = t
            raw_thr[nid] = mapper.raw_threshold(f, t)
            left[nid] = lid
            right[nid] = rid
        else:
            g_sum, h_sum = leaf_sums[slot[nid]]
            value[nid] = -lr * g_sum / (h_sum + reg)
            begin, end = span[nid]
            row_values[begin:end] = value[nid]
    tree = Tree(feature, bin_thr, raw_thr, left, right, value, feature_gain)
    return tree, row_values, order


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
    kern, codes, g, h, rows, feats = _kernel_inputs(codes, g, h, rows, feats)
    n, nf, m = codes.shape[0], feats.shape[0], rows.shape[0]
    node_of_row = np.zeros(m, dtype=np.int64)
    gr = g[rows]
    hr = h[rows]
    # (feature, G/H/count, node, bin) histograms of the deepest level
    hists = np.empty(nf * 3 * (1 << max(max_depth - 1, 0)) * N_HIST)
    best = np.empty(3)
    c, rp, grp, hrp, nodep, fp, hist0, bp = (a.ctypes.data for a in (
        codes, rows, gr, hr, node_of_row, feats, hists, best))
    feat_ids = feats.tolist()
    level_feats: list[int] = []
    level_bins: list[int] = []
    feature_gain = np.zeros(codes.shape[1])

    for depth in range(max_depth):
        n_nodes = 1 << depth
        kern.obl_hist(c, n, rp, m, grp, hrp, nodep, fp, nf, n_nodes, hist0)
        level = hists[:nf * 3 * n_nodes * N_HIST].reshape(nf, 3, n_nodes, N_HIST)
        totals = level.sum(axis=3)
        kern.obl_scan(hist0, totals.ctypes.data, nf, n_nodes, reg, min_data, bp)
        best_total, fpos, t = best.tolist()
        if fpos < 0 or best_total <= 0:
            break
        f, t = feat_ids[int(fpos)], int(t)
        level_feats.append(f)
        level_bins.append(t)
        feature_gain[f] += best_total
        kern.obl_route(c, n, rp, m, f, t, nodep)

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
