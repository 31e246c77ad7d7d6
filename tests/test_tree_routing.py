"""The node-by-node router equals the level walk it replaced, bit for bit,
and the kernel's forest router equals it, tree by tree.

The reference walk lives in oracles.py. Trees are drawn by splitting random
leaves of a one-leaf tree, so single-leaf trees occur; thresholds include the
+inf "all finite values left" edge, and rows include NaN, infinities and
values equal to a threshold. Zero-row inputs are drawn too. The forest
router also meets NaN thresholds, empty forests and the class interleaving
of multiclass boosters, and refuses a damaged forest before either router,
the kernel's or numpy's, runs.
"""

import signal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from autotab.errors import DataError
from autotab.gbm import BinMapper, GBMEstimator, GBMParams, PackedTrees, native
from autotab.gbm.native import kernel
from autotab.gbm.trees import Tree, route, route_forest

from oracles import level_walk, predict_codes

RAW_VALUES = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, -1.0, 2.0]),
                       st.floats(-3.0, 3.0))
LEAF_VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))


@st.composite
def trees(draw, n_features: int, codes: bool, nan: bool = False) -> tuple[Tree, np.ndarray]:
    """A tree and its raw thresholds: the drawn thresholds are its bin
    thresholds with `codes`, else its raw ones."""
    n_splits = draw(st.integers(0, 12))
    threshold_of = (st.integers(0, 255) if codes
                    else st.one_of(st.just(np.inf),
                                   RAW_VALUES if nan else RAW_VALUES.filter(lambda v: v == v)))
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
    return Tree(np.array(feature, np.int32), bin_threshold, np.array(left, np.int32),
                np.array(right, np.int32), value), raw_threshold


@st.composite
def matrices(draw, n_features: int, codes: bool) -> np.ndarray:
    n_rows = draw(st.integers(0, 40))
    cells = st.integers(0, 255) if codes else RAW_VALUES
    flat = draw(st.lists(cells, min_size=n_rows * n_features, max_size=n_rows * n_features))
    X = np.array(flat, dtype=np.uint8 if codes else np.float64).reshape(n_rows, n_features)
    return np.asfortranarray(X) if draw(st.booleans()) else X


@st.composite
def cases(draw, codes: bool) -> tuple[tuple[Tree, np.ndarray], np.ndarray]:
    n_features = draw(st.integers(1, 4))
    return draw(trees(n_features, codes)), draw(matrices(n_features, codes))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(cases(codes=True))
def test_router_equals_level_walk_on_codes(case):
    (tree, _), codes = case
    expected = level_walk(tree.feature, tree.bin_threshold, tree.left, tree.right,
                          tree.value, codes)
    assert _same_bits(predict_codes(tree, codes), expected)


@given(cases(codes=False))
def test_router_equals_level_walk_on_raw_values(case):
    (tree, threshold), X = case
    args = (tree.feature, threshold, tree.left, tree.right, tree.value, X)
    assert _same_bits(route(*args), level_walk(*args))


def test_nan_goes_right_and_inf_threshold_keeps_finite_left():
    X = np.array([[np.nan], [1e300], [-np.inf], [np.inf]])
    leaf = route(np.array([0, -1, -1], np.int32), np.array([np.inf, 0.0, 0.0]),
                 np.array([1, -1, -1], np.int32), np.array([2, -1, -1], np.int32),
                 np.array([0.0, -1.0, 1.0]), X)
    assert leaf.tolist() == [1.0, -1.0, -1.0, -1.0]


def test_single_leaf_and_zero_rows():
    value = np.array([-0.0])
    args = (np.array([-1], np.int32), np.zeros(1), np.array([-1], np.int32),
            np.array([-1], np.int32), value)
    out = route(*args, np.ones((3, 2)))
    assert _same_bits(out, np.full(3, -0.0))
    assert route(*args, np.empty((0, 2))).shape == (0,)


@st.composite
def forests(draw) -> tuple[list, np.ndarray, np.ndarray]:
    """0 to 6 leaf-wise trees with their raw thresholds, the matrix they
    predict and the base scores: one output, or three, which tree t adds to
    output t % 3 as a multiclass booster interleaves its classes."""
    n_features = draw(st.integers(1, 4))
    outputs = draw(st.sampled_from([1, 3]))
    forest = draw(st.lists(trees(n_features, codes=False, nan=True), max_size=6))
    base = np.array(draw(st.lists(LEAF_VALUES, min_size=outputs, max_size=outputs)))
    return forest, draw(matrices(n_features, codes=False)), base


def _base_scores(base: np.ndarray, n_rows: int) -> np.ndarray:
    return np.tile(base, (n_rows, 1)) if base.shape[0] > 1 else np.full(n_rows, base[0])


def _pack(forest: list, n_features: int) -> PackedTrees:
    """The node table of (tree, raw thresholds) pairs: `PackedTrees.pack`'s
    over a mapper without edges, with the drawn raw thresholds."""
    mapper = BinMapper()
    mapper.edges = [np.empty(0)] * n_features
    packed = PackedTrees.pack([tree for tree, _ in forest], mapper)
    packed.threshold = np.concatenate([np.empty(0)] + [thr for _, thr in forest])
    return packed


@given(forests())
def test_kernel_routes_a_forest_as_route_does_tree_by_tree(case):
    forest, X, base = case
    expected = _base_scores(base, X.shape[0])
    for t, (tree, threshold) in enumerate(forest):
        leaf = route(tree.feature, threshold, tree.left, tree.right, tree.value, X)
        if expected.ndim == 2:
            expected[:, t % base.shape[0]] += leaf
        else:
            expected += leaf
    packed = _pack(forest, X.shape[1])
    for lib in (kernel(), None):  # the kernel, and numpy on a host without one
        raw = _base_scores(base, X.shape[0])
        route_forest(lib, packed, np.asfortranarray(X), raw)
        assert _same_bits(raw, expected)


class _NoKernel:
    """Stands in for the kernel: a damaged forest must not reach it."""

    def __getattr__(self, name):
        raise AssertionError(f"the kernel's {name} ran on a damaged forest")


def _stump_then_leaf() -> PackedTrees:
    """A stump on feature 1 at 0.5 (bin 0 of its one edge), then a leaf."""
    stump = Tree(np.array([1, -1, -1], np.int32), np.zeros(3, np.int32),
                 np.array([1, -1, -1], np.int32), np.array([2, -1, -1], np.int32),
                 np.array([0.0, -1.0, 1.0]))
    leaf = Tree(np.array([-1], np.int32), np.zeros(1, np.int32), np.array([-1], np.int32),
                np.array([-1], np.int32), np.array([0.25]))
    mapper = BinMapper()
    mapper.edges = [np.empty(0), np.array([0.5])]
    return PackedTrees.pack([stump, leaf], mapper)


def _set(field: str, index: int, value):
    def damage(packed: PackedTrees) -> None:
        getattr(packed, field)[index] = value
    return damage


def _empty_first_tree(packed: PackedTrees) -> None:
    packed.starts[1] = 0


def _int64_features(packed: PackedTrees) -> None:
    packed.feature = packed.feature.astype(np.int64)


def _short_values(packed: PackedTrees) -> None:
    packed.value = packed.value[:-1]


@pytest.fixture
def alarm():
    """Fail, rather than hang, a test whose router loops for 5 s."""
    def expire(signum, frame):
        raise TimeoutError("a router ran for 5 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("damage", [
    _set("feature", 0, 2),  # feature 2 of 2 columns
    _set("left", 0, 0),  # left child is the node itself
    _set("right", 0, -1),  # right child below its parent
    _set("right", 0, 3),  # right child past its tree: the next tree's first node
    _empty_first_tree, _int64_features, _short_values,
], ids=["feature", "left-self", "right-below", "right-past-tree", "empty-tree", "dtype",
        "short-field"])
def test_a_damaged_forest_raises_before_the_kernel_runs(damage, monkeypatch, alarm):
    """On every host: through the kernel, through numpy's `route` (lib
    None), and through predicting with and without a loadable kernel."""
    X = np.asfortranarray([[0.0, 0.0], [0.0, 1.0], [0.0, np.nan]])
    packed = _stump_then_leaf()
    est = GBMEstimator("regression", 0, np.asarray(0.0), packed, GBMParams())
    for lib in (kernel(), None):
        raw = np.zeros(3)
        route_forest(lib, packed, X, raw)
        assert raw.tolist() == [-0.75, 1.25, 1.25]  # the undamaged forest routes
    damage(packed)
    for lib in (_NoKernel(), None):
        with pytest.raises(DataError):
            route_forest(lib, packed, X, np.zeros(3))
    for host in (native.optional_kernel, lambda: None):
        monkeypatch.setattr(native, "optional_kernel", host)
        with pytest.raises(DataError):
            est.predict_raw_scores(X)
