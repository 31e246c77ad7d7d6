"""Histogram tree growers: best-first leaf expansion and oblivious levels.

Split gain is the Newton gain with an L2 leaf regularizer:
    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - (GL+GR)^2/(HL+HR+reg))
min_data_in_leaf is enforced on both children (on the rows the tree actually
sees, i.e. after subsampling). Missing values occupy the last histogram bin
and always route right; a split at the top non-missing bin can isolate them.

Each tree grows in one call into a compiled kernel, `_kernel.c`, which
native.py builds with the system C compiler `cc` on first use. The kernel's
header states the float order that keeps its trees bit-identical to the
numpy kernel in tests/oracles.py, and how it routes passenger rows (left-out
and validation rows that reach a leaf without adding to any histogram).

Both growers return a `Tree`. An oblivious tree of depth d is the complete
binary tree whose nodes share their level's split: node i splits into 2i+1
(`code <= bin`) and 2i+2, and leaf k of the level bits is node 2^d - 1 + k.
A booster packs the trees it keeps into one node table, `PackedTrees`,
which looks up every raw threshold at once. One router serves both flavours
on every host: `route_forest` checks the table, then routes the whole
forest in one kernel call, or without a compiler tree by tree with `route`,
the same algorithm in numpy and the tests' reference. Both give the same
bits, and a damaged forest raises DataError on either.

The growers run through a `TreeKernel`, which a booster prepares once: it
checks the code matrix, binds the kernel and holds the buffers that
outlive a tree, so growing a tree repeats none of that; it also draws and
lays out each sample, computes the gradients the growers read and
updates the scores in the kernel. The code rows below the training rows
are the passengers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .binning import BinMapper


@dataclass
class Tree:
    """A grown tree, one entry per node (feature == -1 marks a leaf), with
    bin thresholds only: `PackedTrees.pack` looks up the raw ones."""

    feature: np.ndarray
    bin_threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass
class PackedTrees:
    """A booster's trees, of either flavour, as one node table: tree t is
    entries starts[t]:starts[t + 1] of every node field, its child ids count
    from its own first node, and `threshold` holds its raw thresholds (0 at
    a leaf). A booster so stores seven arrays however many trees it has."""

    feature: np.ndarray  # int32, -1 at a leaf
    bin_threshold: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    value: np.ndarray  # float64
    starts: np.ndarray  # int64, (trees + 1,): each tree's first node, then the node count

    @classmethod
    def pack(cls, trees: list, mapper: BinMapper) -> "PackedTrees":
        """The node table of `trees`, grown on `mapper`'s codes; every raw
        threshold is looked up in one pass (`BinMapper.raw_thresholds`)."""
        def nodes(name: str, dtype=np.int32) -> np.ndarray:
            return np.concatenate([np.empty(0, dtype)] + [getattr(t, name) for t in trees])

        feature, bins = nodes("feature"), nodes("bin_threshold")
        starts = np.cumsum([0] + [t.feature.shape[0] for t in trees], dtype=np.int64)
        return cls(feature, bins, mapper.raw_thresholds(feature, bins), nodes("left"),
                   nodes("right"), nodes("value", np.float64), starts)

    def __len__(self) -> int:
        return self.starts.shape[0] - 1


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


# the PackedTrees fields the routers read, with leaf_route's dtypes
_ROUTED = {"feature": np.int32, "threshold": np.float64, "left": np.int32, "right": np.int32,
           "value": np.float64}


def route_forest(lib, forest: PackedTrees, X: np.ndarray, raw: np.ndarray) -> None:
    """Add each tree's leaf values to the raw scores of the rows of X, tree t
    into output t % outputs: the one router of a forest, on every host.

    X is Fortran-ordered float64 and raw C-ordered float64, (rows,) or
    (rows, outputs). A forest may come from an artifact on disk, so
    `_node_starts` checks it first. Then the kernel `lib` routes it in one
    call that releases the GIL (`leaf_route`, `route`'s algorithm), or,
    with `lib` None, `route` walks it tree by tree in numpy: the same
    values added in the same order, so the same bits.
    """
    if not (X.dtype == np.float64 and X.ndim == 2 and X.flags.f_contiguous
            and raw.dtype == np.float64 and raw.flags.c_contiguous
            and raw.ndim in (1, 2) and raw.shape[0] == X.shape[0]):
        raise ValueError("X must be Fortran-ordered float64 and raw C-ordered float64 scores "
                         "of its rows")
    starts = _node_starts(forest, X.shape[1])
    if starts.shape[0] == 1:  # no trees
        return
    feature, threshold, left, right, value = (getattr(forest, name) for name in _ROUTED)
    outputs = 1 if raw.ndim == 1 else raw.shape[1]
    if lib is None:
        by_output = raw.reshape(-1, outputs)  # a view of raw
        for t, (lo, hi) in enumerate(zip(starts[:-1].tolist(), starts[1:].tolist())):
            by_output[:, t % outputs] += route(feature[lo:hi], threshold[lo:hi], left[lo:hi],
                                               right[lo:hi], value[lo:hi], X)
        return
    n = X.shape[0]
    work = np.empty(2 * n + 3 * int(np.diff(starts).max()), dtype=np.int64)
    lib.leaf_route(X.ctypes.data, n, feature.ctypes.data, threshold.ctypes.data,
                   left.ctypes.data, right.ctypes.data, value.ctypes.data, starts.ctypes.data,
                   starts.shape[0] - 1, outputs, raw.ctypes.data, work.ctypes.data)


def _node_starts(forest: PackedTrees, n_features: int) -> np.ndarray:
    """The forest's `starts`, once its node table is checked: the kernel
    reads through the node ids unchecked, and `route` would loop on a cycle.

    Raises DataError unless `starts` is an int64 vector rising from 0 by at
    least one node a tree to the length of every routed node field, those
    fields are contiguous vectors of leaf_route's dtypes, and every internal
    node (feature >= 0) splits a feature below n_features into two children
    above its own id and below its tree's node count, which ends every walk
    within the tree."""
    starts = getattr(forest, "starts", None)
    nodes = [getattr(forest, name, None) for name in _ROUTED]
    if not (isinstance(starts, np.ndarray) and starts.dtype == np.int64 and starts.ndim == 1
            and starts.shape[0] >= 1 and starts.flags.c_contiguous
            and all(isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == 1
                    and a.flags.c_contiguous for a, dtype in zip(nodes, _ROUTED.values()))):
        raise DataError("a packed forest has int64 tree starts and contiguous int32 features "
                        "and children and float64 thresholds and values")
    sizes = np.diff(starts)
    if starts[0] != 0 or (sizes < 1).any() or any(a.shape[0] != starts[-1] for a in nodes):
        raise DataError("the tree starts of a packed forest must rise from 0, by at least one "
                        "node a tree, to the length of every node field")
    feature, _, left, right, _ = nodes
    tree_of = np.repeat(np.arange(sizes.shape[0]), sizes)
    own = np.arange(starts[-1]) - starts[tree_of]
    size = sizes[tree_of]
    bad = (feature >= 0) & ((feature >= n_features) | (left <= own) | (right <= own)
                            | (left >= size) | (right >= size))
    if bad.any():
        node = int(np.argmax(bad))
        raise DataError(f"node {own[node]} of tree {tree_of[node]} of a packed forest splits "
                        f"feature {feature[node]} of {n_features} into children "
                        f"{left[node]} and {right[node]} of {size[node]} nodes")
    return starts


class TreeKernel:
    """The compiled grower bound to one code matrix, for growing many trees.

    A booster makes one and grows every tree through it. Construction does
    what would otherwise repeat for each tree: it checks the code matrix
    and the training row count (the kernel reads through indices
    unchecked), loads the kernel, and allocates the buffers that outlive a
    tree (the row and feature layouts, the gradients, each row's leaf value
    and the node outputs), taking their data pointers once
    (`ndarray.ctypes.data` costs microseconds a lookup). The growers still
    allocate their histogram blocks, gradient and row copies and nodes in
    the kernel on every call.

    Rows 0..n_train-1 of `codes` are the training rows, one per entry of
    the gradients. The rows below them are the passengers: the grower
    routes them to a leaf without adding them to any histogram, after the
    training rows left out of the tree's sample.

    Everything of a boosting iteration that is exact arithmetic or index
    bookkeeping runs in the kernel: `draw` lays out the sample from the
    generator's draws, `gradients` computes one output's gradients and
    hessians from the transformed scores, and `add_tree` adds the last
    tree's leaf values into the raw scores that `bind_scores` allocated.
    These calls take microseconds and keep the GIL
    (`kernel(hold_gil=True)`): releasing it would hand it to another
    booster's thread and then wait for it. The growers release it. A tree
    so costs one grower call, the copy of its nodes out and a few attribute
    lookups, and the generator's draws and the loss transform are all a
    booster runs in numpy.
    """

    def __init__(self, codes: np.ndarray, n_train: int) -> None:
        from .native import kernel

        if not (isinstance(codes, np.ndarray) and codes.dtype == np.uint8 and codes.ndim == 2
                and codes.flags.f_contiguous):
            raise ValueError("codes must be a Fortran-ordered 2-d uint8 array")
        n_codes, n_features = codes.shape
        if not 0 <= n_train <= n_codes:
            raise ValueError(f"the {n_train} training rows must be rows of the {n_codes} codes")
        self.kernel = kernel()
        self.short = kernel(hold_gil=True)  # for the calls of microseconds
        self.codes, self.n_train = codes, n_train
        # the index list each tree starts from: sampled rows, the rest, passengers
        self.layout = np.arange(n_codes, dtype=np.int64)
        self.m = n_train  # sampled rows, at the head of layout
        self.idx = np.empty_like(self.layout)  # leaf_grow regroups a copy of layout here
        self.values = np.zeros(n_codes)  # leaf value of each row of the order
        self.feats = np.arange(n_features, dtype=np.int64)
        self.nf = n_features  # sampled features, at the head of feats
        # the drawn rows and features; both hold np.arange between draws
        self.perm = np.arange(n_train, dtype=np.int64)
        self.chosen = np.arange(n_features, dtype=np.int64)
        self.mark = np.empty(max(n_train, n_features), dtype=np.uint8)
        self.g, self.h = np.empty(n_train), np.empty(n_train)
        self.ints, self.floats = np.empty(0, dtype=np.int32), np.empty(0)
        self._grow_outputs(1, 1)
        self.ptr = {name: getattr(self, name).ctypes.data for name in
                    ("codes", "layout", "idx", "values", "feats", "perm", "chosen", "mark",
                     "g", "h")}
        self.order = self.ptr["layout"]  # where the last tree's row order is

    def bind_scores(self, base, y: np.ndarray, loss: int) -> None:
        """Allocate `raw`, the raw scores of every code row at the base score
        `base` (a float, or one per output), which `add_tree` updates:
        (rows,) for one output, (rows, outputs) C-ordered for more. Bind the
        training rows' targets y as float64 (class numbers for multiclass)
        and the kernel code of the loss (losses.py)."""
        if not (isinstance(y, np.ndarray) and y.dtype == np.float64
                and y.shape == (self.n_train,) and y.flags.c_contiguous):
            raise ValueError(f"y must be {self.n_train} contiguous float64 targets")
        n_codes = self.codes.shape[0]
        self.raw = np.tile(base, (n_codes, 1)) if np.ndim(base) else np.full(n_codes, base)
        self.y, self.loss = y, loss
        self.outputs = 1 if self.raw.ndim == 1 else self.raw.shape[1]
        self.ptr["raw"], self.ptr["y"] = self.raw.ctypes.data, y.ctypes.data

    def draw(self, rng: np.random.Generator, n_rows: int | None,
             n_feats: int | None) -> None:
        """Sample the next trees as a booster draws them: the rows
        `rng.permutation(n_train)[:n_rows]` and the features
        `rng.choice(features, n_feats, replace=False)`, each in ascending
        order; None keeps every row or feature and draws nothing. The
        permutation comes from shuffling `perm`, as permutation() shuffles a
        fresh np.arange. The kernel's lay_out puts the first k drawn indices
        at the head of `layout` or `feats`, ascending, then the others, and
        resets `perm` or `chosen` to np.arange. The rows left out ride as
        passengers."""
        lay_out, ptr = self.short.lay_out, self.ptr
        if n_rows is not None:
            if not 0 <= n_rows <= self.n_train:
                raise ValueError(f"cannot draw {n_rows} of {self.n_train} rows")
            rng.shuffle(self.perm)
            self.m = lay_out(ptr["perm"], n_rows, self.n_train, ptr["mark"], ptr["layout"])
        if n_feats is not None:
            n_features = self.chosen.shape[0]
            self.chosen[:n_feats] = rng.choice(n_features, size=n_feats, replace=False)
            self.nf = lay_out(ptr["chosen"], n_feats, n_features, ptr["mark"], ptr["feats"])

    def gradients(self, p: np.ndarray, c: int = 0) -> None:
        """Write the gradients and hessians of output c of the training rows
        into g and h, from p = loss.transform(raw): the bound loss's
        formulas (losses.py), row by row in the kernel. The next tree grows
        on them."""
        if not (p.shape == self.raw.shape and p.dtype == np.float64 and p.flags.c_contiguous
                and 0 <= c < self.outputs):
            raise ValueError("p must be C-ordered float64 shaped as the raw scores")
        self.short.gradients(self.loss, p.ctypes.data, self.outputs, c, self.ptr["y"],
                              self.n_train, self.ptr["g"], self.ptr["h"])

    def add_tree(self, c: int = 0) -> None:
        """Add the last tree's leaf values into output c of every row's raw
        score (`raw[order, c] += values`)."""
        if not 0 <= c < self.outputs:
            raise ValueError(f"no output {c} in {self.outputs}")
        self.short.add_scores(self.ptr["raw"], self.outputs, c, self.order, self.ptr["values"],
                               self.layout.shape[0])

    def _grow_outputs(self, n_ints: int, n_floats: int) -> None:
        """Make the node output buffers hold at least n_ints int32 and n_floats
        float64 entries; they are reallocated only for a larger tree."""
        if self.ints.shape[0] < n_ints:
            self.ints = np.empty(n_ints, dtype=np.int32)
            self.ints_ptr = self.ints.ctypes.data
        if self.floats.shape[0] < n_floats:
            self.floats = np.empty(n_floats)
            self.floats_ptr = self.floats.ctypes.data


def grow_leafwise(kern: TreeKernel, max_leaves: int, min_data: int, reg: float,
                  lr: float) -> tuple[Tree, np.ndarray, np.ndarray]:
    """Grow by repeatedly splitting the leaf with the largest gain, on the
    rows and features of `kern`'s sample with the gradients and hessians in
    `kern.g` and `kern.h` (one per training row).

    Returns the tree plus (values, order) so callers can update scores
    without re-walking the tree: `order` holds the sampled rows, then the
    passengers, each regrouped leaf by leaf, and values[i] is the leaf value
    of order[i]; both are `kern`'s buffers, valid until its next tree. The
    tree has bin thresholds only (`Tree`).
    Raises ZeroDivisionError if a leaf's hessian sum plus reg is 0.
    """
    max_leaves = max(max_leaves, 1)
    max_nodes = 2 * max_leaves - 1
    kern._grow_outputs(4 * max_nodes, max_nodes)
    ptr, ints = kern.ptr, kern.ints_ptr
    n_nodes = kern.kernel.leaf_grow(
        ptr["codes"], kern.codes.shape[0], ptr["g"], ptr["h"], ptr["layout"], ptr["idx"],
        kern.m, kern.idx.shape[0] - kern.m, ptr["feats"], kern.nf, max_leaves, min_data, reg,
        lr, ints, ints + 4 * max_nodes, ints + 8 * max_nodes, ints + 12 * max_nodes,
        kern.floats_ptr, ptr["values"])
    tree = _copy_tree(kern, max_nodes, n_nodes)
    kern.order = ptr["idx"]
    return tree, kern.values, kern.idx


def _copy_tree(kern: TreeKernel, max_nodes: int, status: int) -> Tree:
    """The tree a grower wrote to `kern`'s node buffers, which hold 4 int32
    arrays of `max_nodes` entries (feature, bin threshold, left, right) and
    the float64 values. `status` is the grower's return value: its node
    count, or a negative status of _kernel.c, which raises."""
    if status == -1:  # ZERO_DENOMINATOR
        raise ZeroDivisionError("a leaf's hessian sum plus l2_leaf_reg is 0")
    if status == -2:  # NO_MEMORY
        raise MemoryError("the tree kernel could not allocate its buffers")
    nodes = kern.ints[:4 * max_nodes].reshape(4, max_nodes)[:, :status].copy()
    feature, bin_thr, left, right = nodes  # views of one copy
    return Tree(feature, bin_thr, left, right, kern.floats[:status].copy())


def grow_oblivious(kern: TreeKernel, max_depth: int, min_data: int, reg: float,
                   lr: float) -> tuple[Tree, np.ndarray, np.ndarray]:
    """Grow an oblivious tree: each level picks the single (feature, bin)
    whose gain summed over the level's nodes is largest.

    Nodes where a candidate split would violate min_data contribute zero to
    its total. Growth stops when no candidate has positive total gain.
    Takes and returns what grow_leafwise does; the tree is the complete
    binary tree of its levels (the module docstring gives its layout), and
    `order` is the sampled rows, then the passengers, as `kern.draw` laid
    them out.
    """
    max_depth = max(max_depth, 0)
    max_nodes = (2 << max_depth) - 1
    kern._grow_outputs(4 * max_nodes, max_nodes)
    ptr, ints = kern.ptr, kern.ints_ptr
    n_nodes = kern.kernel.obl_grow(
        ptr["codes"], kern.codes.shape[0], ptr["g"], ptr["h"], ptr["layout"], kern.m,
        kern.layout.shape[0] - kern.m, ptr["feats"], kern.nf, max_depth, min_data, reg, lr,
        ints, ints + 4 * max_nodes, ints + 8 * max_nodes, ints + 12 * max_nodes,
        kern.floats_ptr, ptr["values"])
    tree = _copy_tree(kern, max_nodes, n_nodes)
    kern.order = ptr["layout"]
    return tree, kern.values, kern.layout
