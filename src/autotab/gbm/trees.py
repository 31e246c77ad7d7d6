"""Histogram tree growers: best-first leaf expansion and oblivious levels.

Split gain is the Newton gain with an L2 leaf regularizer:
    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - (GL+GR)^2/(HL+HR+reg))
min_data_in_leaf is enforced on both children (on the rows the tree actually
sees, i.e. after subsampling). Missing values occupy the last histogram bin
and always route right; a split at the top non-missing bin can isolate them.

Each tree grows in one call into a compiled kernel, `_kernel.c`, which
native.py builds with the system C compiler `cc` on first use; routing and
prediction are numpy and need no compiler. The kernel's header states the
float order that keeps its trees bit-identical to the numpy kernel in
tests/oracles.py, and how it routes passenger rows (left-out and validation
rows that reach a leaf without adding to any histogram).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binning import BinMapper


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
                   feats: np.ndarray, passengers: np.ndarray | None):
    """The compiled kernel and the arrays it reads, in the layouts it expects:
    a Fortran-ordered uint8 code matrix, contiguous float64 g/h (one per
    training row, which come first in codes), and int64 indices: `idx` holds
    the rows, then the passengers. The kernel reads through the indices
    unchecked, so they and the code matrix are checked here."""
    from .native import kernel

    if not (isinstance(codes, np.ndarray) and codes.dtype == np.uint8 and codes.ndim == 2
            and codes.flags.f_contiguous):
        raise ValueError("codes must be a Fortran-ordered 2-d uint8 array")
    g, h = (np.ascontiguousarray(a, dtype=np.float64) for a in (g, h))
    feats = np.ascontiguousarray(feats, dtype=np.int64)
    rows = np.asarray(rows)
    passengers = np.empty(0, dtype=np.int64) if passengers is None else np.asarray(passengers)
    n_codes, n_features = codes.shape
    n = g.shape[0]
    if g.shape != (n,) or h.shape != (n,) or n > n_codes:
        raise ValueError(f"g and h must have one shape (n,) with n <= {n_codes}, "
                         f"got {g.shape} and {h.shape}")
    for name, index, size in (("rows", rows, n), ("passengers", passengers, n_codes),
                              ("feats", feats, n_features)):
        if index.ndim != 1 or (index.size and (index.min() < 0 or index.max() >= size)):
            raise ValueError(f"{name} must be a 1-d index into {size} entries")
    idx = np.concatenate([rows, passengers], dtype=np.int64)
    return kernel(), codes, g, h, idx, len(rows), feats


def grow_leafwise(codes: np.ndarray, g: np.ndarray, h: np.ndarray,
                  rows: np.ndarray, feats: np.ndarray, mapper: BinMapper,
                  max_leaves: int, min_data: int, reg: float, lr: float,
                  passengers: np.ndarray | None = None) -> tuple[Tree, np.ndarray, np.ndarray]:
    """Grow by repeatedly splitting the leaf with the largest gain.

    Returns the tree plus (values, order) so callers can update scores
    without re-walking the tree: `order` holds the given rows, then the
    passengers, each regrouped leaf by leaf, and values[i] is the leaf value
    of order[i]. Raises ZeroDivisionError if a leaf's hessian sum plus reg
    is 0.
    """
    kern, codes, g, h, order, m, feats = _kernel_inputs(codes, g, h, rows, feats, passengers)
    max_leaves = max(max_leaves, 1)
    max_nodes = 2 * max_leaves - 1
    feature, bin_thr, left, right = (np.empty(max_nodes, dtype=np.int32) for _ in range(4))
    value = np.empty(max_nodes)
    feature_gain = np.zeros(codes.shape[1])
    values = np.empty(order.shape[0])
    n_nodes = kern.leaf_grow(
        codes.ctypes.data, codes.shape[0], g.ctypes.data, h.ctypes.data, order.ctypes.data,
        m, order.shape[0] - m, feats.ctypes.data, feats.shape[0], max_leaves, min_data,
        reg, lr, feature.ctypes.data, bin_thr.ctypes.data, left.ctypes.data,
        right.ctypes.data, value.ctypes.data, feature_gain.ctypes.data, values.ctypes.data)
    _check_status(n_nodes)
    feature, bin_thr, left, right, value = (
        a[:n_nodes] for a in (feature, bin_thr, left, right, value))
    internal = np.flatnonzero(feature >= 0)
    raw_thr = np.zeros(n_nodes)
    raw_thr[internal] = [mapper.raw_threshold(f, t) for f, t in
                         zip(feature[internal].tolist(), bin_thr[internal].tolist())]
    return Tree(feature, bin_thr, raw_thr, left, right, value, feature_gain), values, order


def _check_status(status: int) -> None:
    """Raise for the negative statuses of _kernel.c's growers."""
    if status == -1:  # ZERO_DENOMINATOR
        raise ZeroDivisionError("a leaf's hessian sum plus l2_leaf_reg is 0")
    if status == -2:  # NO_MEMORY
        raise MemoryError("the tree kernel could not allocate its buffers")


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

    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(X.shape[0], dtype=np.int64)
        for lvl in range(self.depth):
            x = X[:, self.features[lvl]]
            bit = ~(x <= self.raw_thresholds[lvl])  # NaN -> right
            idx = idx * 2 + bit
        return self.leaf_values[idx]


def grow_oblivious(codes: np.ndarray, g: np.ndarray, h: np.ndarray,
                   rows: np.ndarray, feats: np.ndarray, mapper: BinMapper,
                   max_depth: int, min_data: int, reg: float, lr: float,
                   passengers: np.ndarray | None = None
                   ) -> tuple[ObliviousTree, np.ndarray, np.ndarray]:
    """Grow an oblivious tree: each level picks the single (feature, bin)
    whose gain summed over the level's nodes is largest.

    Nodes where a candidate split would violate min_data contribute zero to
    its total. Growth stops when no candidate has positive total gain.
    Returns the tree plus (values, order) as grow_leafwise does; here
    `order` is the rows, then the passengers, as given.
    """
    kern, codes, g, h, idx, m, feats = _kernel_inputs(codes, g, h, rows, feats, passengers)
    max_depth = max(max_depth, 0)
    level_feats, level_bins = (np.empty(max_depth, dtype=np.int32) for _ in range(2))
    leaf_values = np.empty(1 << max_depth)
    feature_gain = np.zeros(codes.shape[1])
    values = np.empty(idx.shape[0])
    depth = kern.obl_grow(
        codes.ctypes.data, codes.shape[0], g.ctypes.data, h.ctypes.data, idx.ctypes.data,
        m, idx.shape[0] - m, feats.ctypes.data, feats.shape[0], max_depth, min_data, reg, lr,
        level_feats.ctypes.data, level_bins.ctypes.data, leaf_values.ctypes.data,
        feature_gain.ctypes.data, values.ctypes.data)
    _check_status(depth)
    level_feats, level_bins = level_feats[:depth], level_bins[:depth]
    tree = ObliviousTree(
        level_feats,
        level_bins,
        np.array([mapper.raw_threshold(f, t)
                  for f, t in zip(level_feats.tolist(), level_bins.tolist())]),
        leaf_values[:1 << depth],
        feature_gain,
    )
    return tree, values, idx
