"""The node-by-node router equals the level walk it replaced, bit for bit.

The reference walk lives in oracles.py. Trees are drawn by splitting random
leaves of a one-leaf tree, so single-leaf trees occur; thresholds include the
+inf "all finite values left" edge, and rows include NaN, infinities and
values equal to a threshold. Zero-row inputs are drawn too.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from autotab.gbm.trees import Tree, route

from oracles import level_walk, predict_codes

RAW_VALUES = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, -1.0, 2.0]),
                       st.floats(-3.0, 3.0))
LEAF_VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))


@st.composite
def trees(draw, n_features: int, codes: bool) -> Tree:
    n_splits = draw(st.integers(0, 12))
    threshold_of = (st.integers(0, 255) if codes
                    else st.one_of(st.just(np.inf), RAW_VALUES.filter(lambda v: v == v)))
    feature, thr, left, right = [-1], [0], [-1], [-1]
    leaves = [0]
    for _ in range(n_splits):
        node = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        feature[node] = draw(st.integers(0, n_features - 1))
        thr[node] = draw(threshold_of)
        left[node], right[node] = len(feature), len(feature) + 1
        for _ in range(2):
            leaves.append(len(feature))
            feature.append(-1)
            thr.append(0)
            left.append(-1)
            right.append(-1)
    n_nodes = len(feature)
    value = np.array(draw(st.lists(LEAF_VALUES, min_size=n_nodes, max_size=n_nodes)))
    bin_threshold = np.array(thr, np.int32) if codes else np.zeros(n_nodes, np.int32)
    raw_threshold = np.zeros(n_nodes) if codes else np.array(thr, np.float64)
    return Tree(np.array(feature, np.int32), bin_threshold, raw_threshold,
                np.array(left, np.int32), np.array(right, np.int32), value, np.zeros(n_features))


@st.composite
def matrices(draw, n_features: int, codes: bool) -> np.ndarray:
    n_rows = draw(st.integers(0, 40))
    cells = st.integers(0, 255) if codes else RAW_VALUES
    flat = draw(st.lists(cells, min_size=n_rows * n_features, max_size=n_rows * n_features))
    X = np.array(flat, dtype=np.uint8 if codes else np.float64).reshape(n_rows, n_features)
    return np.asfortranarray(X) if draw(st.booleans()) else X


@st.composite
def cases(draw, codes: bool) -> tuple[Tree, np.ndarray]:
    n_features = draw(st.integers(1, 4))
    return draw(trees(n_features, codes)), draw(matrices(n_features, codes))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(cases(codes=True))
def test_router_equals_level_walk_on_codes(case):
    tree, codes = case
    expected = level_walk(tree.feature, tree.bin_threshold, tree.left, tree.right,
                          tree.value, codes)
    assert _same_bits(predict_codes(tree, codes), expected)


@given(cases(codes=False))
def test_router_equals_level_walk_on_raw_values(case):
    tree, X = case
    expected = level_walk(tree.feature, tree.raw_threshold, tree.left, tree.right,
                          tree.value, X)
    assert _same_bits(tree.predict_raw(X), expected)


def test_nan_goes_right_and_inf_threshold_keeps_finite_left():
    tree = Tree(np.array([0, -1, -1], np.int32), np.zeros(3, np.int32),
                np.array([np.inf, 0.0, 0.0]), np.array([1, -1, -1], np.int32),
                np.array([2, -1, -1], np.int32), np.array([0.0, -1.0, 1.0]), np.zeros(1))
    X = np.array([[np.nan], [1e300], [-np.inf], [np.inf]])
    assert tree.predict_raw(X).tolist() == [1.0, -1.0, -1.0, -1.0]


def test_single_leaf_and_zero_rows():
    value = np.array([-0.0])
    args = (np.array([-1], np.int32), np.zeros(1), np.array([-1], np.int32),
            np.array([-1], np.int32), value)
    out = route(*args, np.ones((3, 2)))
    assert _same_bits(out, np.full(3, -0.0))
    assert route(*args, np.empty((0, 2))).shape == (0,)
