"""The compiled tree kernel equals the numpy kernel it replaced, bit for bit.

The numpy kernel lives in oracles.py. Cases are drawn with the missing bin,
codes piled on the edges of the kernel's 64-bin bitmap words, a feature
whose rows are all missing, NaN gradients, zero hessians with reg=0 (0/0
gains), node sizes of 1-800 rows and 1-50 features, histograms derived by
subtraction (so empty bins carry float residuals), and min_data from 0 to
above the node size. Each property compares histograms, best splits,
oblivious level totals or whole trees. The kernel reads a histogram bin only
where its bitmap is set, so its histograms are compared with the oracle's on
the set bins, and the oracle must hold +0.0 on every other bin. Each case's
rows and features are the ones `TreeKernel.draw` takes from a seeded
generator, replayed here from that generator's shuffle and choice, so the
trees grown through a `TreeKernel` grow on the sample the production sampler
lays out. Passenger rows (the rows left out of the sample, then the code rows
below the training rows), which a grower routes without adding them to
histograms, must land on the leaf that routing the finished tree gives them.
A whole booster, whose per-iteration bookkeeping also runs in the kernel,
must equal the numpy boosting loop of oracles.py.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotab.gbm import GBMParams, fit_booster
from autotab.gbm.boosting import PackedTrees
from autotab.gbm import trees as kernel_trees
from autotab.gbm.binning import BinMapper
from autotab.gbm.native import kernel
from autotab.metrics import default_metric

import oracles

WORD_EDGES = (0, 63, 64, 127, 128, 191, 192, 254)  # first and last bins of bitmap words
N_WORDS = oracles.N_HIST // 64


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _set_bins(bits: np.ndarray) -> np.ndarray:
    """The bins marked in (..., N_WORDS) bitmap words, as (..., 256) booleans."""
    unpacked = np.unpackbits(np.ascontiguousarray(bits).view(np.uint8), bitorder="little")
    return unpacked.reshape(*bits.shape[:-1], oracles.N_HIST).astype(bool)


def _equal_on_set_bins(got, want, bits) -> bool:
    """got equals want bit for bit on the bins set in bits, and want is +0.0
    on every other bin (where got's memory may hold anything)."""
    want = np.asarray(want, dtype=np.float64)
    mask = np.broadcast_to(_set_bins(bits), want.shape)
    zero = np.zeros_like(want)
    return (_same_bits(np.where(mask, got, zero), np.where(mask, want, zero))
            and _same_bits(np.where(mask, zero, want), zero))


def _drawn(seed: int, n: int, k: int | None, f: int, kf: int | None
           ) -> tuple[np.ndarray, np.ndarray]:
    """The rows of n and the features of f, each ascending, that
    `TreeKernel.draw(np.random.default_rng(seed), k, kf)` takes: the first k
    of a shuffled np.arange(n), then kf features chosen without replacement
    from the same generator; None draws nothing and takes them all."""
    rng = np.random.default_rng(seed)
    rows, feats = np.arange(n, dtype=np.int64), np.arange(f, dtype=np.int64)
    if k is not None:
        perm = np.arange(n, dtype=np.int64)
        rng.shuffle(perm)
        rows = np.sort(perm[:k])
    if kf is not None:
        feats = np.sort(rng.choice(f, size=kf, replace=False))
    return rows, feats


@dataclasses.dataclass
class Case:
    codes: np.ndarray  # Fortran-ordered uint8, as BinMapper.transform makes them
    mapper: BinMapper
    g: np.ndarray
    h: np.ndarray
    seed: int  # of the generator `draw` takes the sample from
    k: int | None  # rows drawn, None for every row
    kf: int | None  # features drawn, None for every feature
    reg: float
    min_data: int
    rows: np.ndarray = dataclasses.field(init=False)  # sorted, the drawn rows
    feats: np.ndarray = dataclasses.field(init=False)  # sorted, the drawn features

    def __post_init__(self) -> None:
        self.rows, self.feats = _drawn(self.seed, self.g.shape[0], self.k, self.codes.shape[1],
                                       self.kf)


@st.composite
def cases(draw) -> Case:
    # Hypothesis picks the kind of case; a seeded generator fills in sizes and
    # values, so large nodes are drawn as often as small ones.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = int(rng.integers(*draw(st.sampled_from([(100, 801), (10, 100), (1, 10)]))))
    n_features = int(rng.integers(1, 51))
    levels = draw(st.sampled_from([300, 40, 3, 1, "word_edges"]))  # 300 > 255 bins: quantiles
    if levels == "word_edges":  # most values on the first or last bin of a bitmap word
        X = np.where(rng.random((n_rows, n_features)) < 0.8,
                     rng.choice(WORD_EDGES, size=(n_rows, n_features)),
                     rng.integers(0, 255, size=(n_rows, n_features))).astype(np.float64)
    else:
        X = rng.integers(0, levels, size=(n_rows, n_features)).astype(np.float64)
    X[rng.random(X.shape) < draw(st.sampled_from([0.0, 0.1, 0.6]))] = np.nan
    if draw(st.booleans()):
        X[:, rng.integers(n_features)] = np.nan  # a feature whose rows are all missing
    mapper = BinMapper()
    if levels == "word_edges":
        mapper.edges = [np.arange(254) + 0.5] * n_features  # value v gets code v
    else:
        mapper.fit(X)
    target = draw(st.sampled_from(["binary", "regression", "zero_hessian", "nan_gradient"]))
    if target == "regression":
        g, h = rng.normal(size=n_rows), np.ones(n_rows)
    else:
        p = rng.random(n_rows)
        g, h = p - (rng.random(n_rows) < 0.5), p * (1.0 - p)
        if target == "zero_hessian":
            h[rng.random(n_rows) < 0.7] = 0.0
        elif target == "nan_gradient":
            g[rng.random(n_rows) < 0.05] = np.nan
    k = None if draw(st.integers(0, 3)) == 0 else int(rng.integers(1, n_rows + 1))
    kf = None if draw(st.integers(0, 3)) == 0 else int(rng.integers(1, n_features + 1))
    reg = draw(st.sampled_from([1.0, 0.1, 0.0]))
    node = n_rows if k is None else k
    min_data = (node + int(rng.integers(1, 6)) if draw(st.integers(0, 3)) == 3
                else int(rng.integers(0, 11)))  # one case in four above the node size
    return Case(mapper.transform(X), mapper, g, h, int(rng.integers(2**32)), k, kf, reg,
                min_data)


def _kernel_hist(case: Case, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """leaf_hist's histograms, NaN where the kernel wrote nothing, and bitmaps."""
    kern = kernel()
    order = np.array(rows, dtype=np.int64)
    gbuf, hbuf = np.empty(len(order)), np.empty(len(order))
    out = np.full((3, len(case.feats), oracles.N_HIST), np.nan)
    bits = np.empty((len(case.feats), N_WORDS), dtype=np.uint64)
    kern.leaf_hist(case.codes.ctypes.data, case.codes.shape[0], case.g.ctypes.data,
                   case.h.ctypes.data, order.ctypes.data, 0, len(order),
                   case.feats.ctypes.data, len(case.feats), gbuf.ctypes.data, hbuf.ctypes.data,
                   out.ctypes.data, bits.ctypes.data)
    return out, bits


def _kernel_best(case: Case, hist: np.ndarray, bits: np.ndarray,
                 count: int) -> tuple[float, int, int]:
    best = np.empty(3)
    kernel().leaf_scan(hist.ctypes.data, bits.ctypes.data, hist.shape[1], count, case.reg,
                       case.min_data, best.ctypes.data)
    return best[0], int(best[1]), int(best[2])


def _oracle_best(case: Case, hist) -> tuple[float, int, int]:
    gains, _ = oracles._gain_matrix(*hist, case.reg, case.min_data)
    return oracles._best_split(gains)


@given(cases())
def test_histograms_equal_oracle(case):
    """Directly built histograms mark exactly the bins their rows reach."""
    expected = np.stack(oracles._histograms(case.codes, case.rows, case.g, case.h, case.feats))
    got, bits = _kernel_hist(case, case.rows)
    assert _equal_on_set_bins(got, expected, bits)
    assert _same_bits(_set_bins(bits), expected[2] > 0)


@given(cases(), st.data())
def test_split_and_best_split_equal_oracle(case, data):
    """One split: stable partition, the smaller child's histograms, the larger
    one's by subtraction over the parent's bitmap, then the best split of
    each child."""
    kern = kernel()
    f = int(data.draw(st.sampled_from(case.feats.tolist())))
    t = data.draw(st.integers(0, 255))
    parent, parent_bits = _kernel_hist(case, case.rows)
    order = np.array(case.rows, dtype=np.int64)
    m = len(order)
    gbuf, hbuf, tmp = np.empty(m), np.empty(m), np.empty(m, dtype=np.int64)
    small, small_bits = np.full_like(parent, np.nan), np.empty_like(parent_bits)
    n_left = kern.leaf_split(case.codes.ctypes.data, case.codes.shape[0], case.g.ctypes.data,
                             case.h.ctypes.data, order.ctypes.data, 0, m, f, t,
                             case.feats.ctypes.data, len(case.feats), gbuf.ctypes.data,
                             hbuf.ctypes.data, tmp.ctypes.data, parent.ctypes.data,
                             small.ctypes.data, small_bits.ctypes.data)

    go_left = case.codes[case.rows, f] <= t
    left_rows, right_rows = case.rows[go_left], case.rows[~go_left]
    assert n_left == len(left_rows)
    assert _same_bits(order, np.concatenate([left_rows, right_rows]))
    small_rows = left_rows if len(left_rows) <= len(right_rows) else right_rows
    G, H, C = oracles._histograms(case.codes, case.rows, case.g, case.h, case.feats)
    small_hists = oracles._histograms(case.codes, small_rows, case.g, case.h, case.feats)
    big_hists = (G - small_hists[0], H - small_hists[1], C - small_hists[2])
    assert _equal_on_set_bins(small, np.stack(small_hists), small_bits)
    # the parent's block and bitmap became the big child's
    assert _equal_on_set_bins(parent, np.stack(big_hists), parent_bits)

    whole, whole_bits = _kernel_hist(case, case.rows)
    for got, bits, count, hists in ((small, small_bits, len(small_rows), small_hists),
                                    (parent, parent_bits, m - len(small_rows), big_hists),
                                    (whole, whole_bits, m, (G, H, C))):
        gain, fpos, t_best = _kernel_best(case, got, bits, count)
        want_gain, want_fpos, want_t = _oracle_best(case, hists)
        assert _same_bits(gain, want_gain) and (fpos, t_best) == (want_fpos, want_t)


@given(cases(), st.integers(0, 4))
def test_oblivious_level_equals_oracle(case, depth):
    """One level: (feature, node, bin) histograms and the best total, as the
    numpy grower's per-feature loop computes them. Below the root a level
    with a row per bin takes its nodes' bitmaps from the level above."""
    kern = kernel()
    n_nodes = 1 << depth
    rng = np.random.default_rng(len(case.rows) * 7 + depth)
    node = rng.integers(0, n_nodes, size=len(case.rows))
    gr, hr = case.g[case.rows], case.h[case.rows]
    nf = len(case.feats)

    def level(node, n_nodes, parent_bits):
        hists = np.full((nf, 3, n_nodes, oracles.N_HIST), np.nan)
        bits = np.empty((nf, n_nodes, N_WORDS), dtype=np.uint64)
        kern.obl_hist(case.codes.ctypes.data, case.codes.shape[0], case.rows.ctypes.data,
                      len(case.rows), gr.ctypes.data, hr.ctypes.data, node.ctypes.data,
                      case.feats.ctypes.data, nf, n_nodes, hists.ctypes.data, bits.ctypes.data,
                      None if parent_bits is None else parent_bits.ctypes.data)
        return hists, bits

    parent_bits = level(node // 2, n_nodes // 2, None)[1] if depth else None
    hists, bits = level(node, n_nodes, parent_bits)
    counts = np.bincount(node, minlength=n_nodes)
    best = np.empty(3)
    kern.obl_scan(hists.ctypes.data, bits.ctypes.data, counts.ctypes.data, nf, n_nodes,
                  case.reg, case.min_data, best.ctypes.data)

    best_total, best_fpos, best_t = 0.0, -1, -1
    for i, f in enumerate(case.feats):
        pair = node * oracles.N_HIST + case.codes[case.rows, f].astype(np.int64)
        size = n_nodes * oracles.N_HIST
        G = np.bincount(pair, weights=gr, minlength=size).reshape(n_nodes, oracles.N_HIST)
        H = np.bincount(pair, weights=hr, minlength=size).reshape(n_nodes, oracles.N_HIST)
        C = np.bincount(pair, minlength=size).reshape(n_nodes, oracles.N_HIST)
        assert _equal_on_set_bins(hists[i], np.stack([G, H, C.astype(np.float64)]), bits[i])
        gains, _ = oracles._gain_matrix(G, H, C, case.reg, case.min_data)
        gains = np.where(np.isfinite(gains), np.maximum(gains, 0.0), 0.0)
        level_totals = gains.sum(axis=0)
        t = int(np.argmax(level_totals))
        if level_totals[t] > best_total:
            best_total, best_fpos, best_t = float(level_totals[t]), i, t
    assert _same_bits(best[0], best_total)
    assert (int(best[1]), int(best[2])) == (best_fpos, best_t)


def _grow_or_none(grow, *args, **kwargs):
    try:
        return grow(*args, **kwargs)
    except ZeroDivisionError:  # a leaf with zero hessian sum and reg=0
        return None


def _same_tree(a, b) -> bool:
    return all(_same_bits(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


def _kernel_grow(grow, codes, case, size, lr=0.1):
    """One tree through a fresh TreeKernel over `codes`, whose first rows are
    the case's training rows: on the sample `draw` takes from the case's
    seed, which must be the case's rows and features, with the case's
    gradients, and with raw thresholds. The rest of the training rows, then
    the code rows below them, ride as passengers."""
    kern = kernel_trees.TreeKernel(codes, case.g.shape[0])
    kern.draw(np.random.default_rng(case.seed), case.k, case.kf)
    assert _same_bits(kern.layout[:kern.m], case.rows)
    assert _same_bits(kern.feats[:kern.nf], case.feats)
    kern.g[:], kern.h[:] = case.g, case.h
    tree, values, order = grow(kern, size, case.min_data, case.reg, lr)
    tree.set_raw_thresholds(case.mapper)
    return tree, values.copy(), order.copy()


def _oracle_grow(grow, case, size, lr=0.1):
    return grow(case.codes, case.g, case.h, case.rows, case.feats, case.mapper, size,
                case.min_data, case.reg, lr)


@settings(max_examples=60)
@given(cases(), st.integers(1, 40), st.integers(1, 6))
def test_grown_trees_equal_oracle(case, max_leaves, max_depth):
    m = len(case.rows)
    for grow, size in (("grow_leafwise", max_leaves), ("grow_oblivious", max_depth)):
        got = _grow_or_none(_kernel_grow, getattr(kernel_trees, grow), case.codes, case, size)
        want = _grow_or_none(_oracle_grow, getattr(oracles, grow), case, size)
        assert (got is None) == (want is None)
        if got is None:
            continue
        assert _same_tree(got[0], want[0])
        # the training rows come first, in the grower's own row order
        values, order = got[1][:m], got[2][:m]
        assert _same_bits(np.sort(order), want[2])
        by_row = np.empty(case.codes.shape[0])
        by_row[order] = values
        assert _same_bits(by_row[want[2]], want[1])


@settings(max_examples=60)
@given(cases(), st.integers(1, 40), st.integers(1, 6), st.booleans(), st.booleans(),
       st.integers(0, 2**16))
def test_passengers_land_where_routing_sends_them(case, max_leaves, max_depth, validation,
                                                  subsample, seed):
    """Passengers (the rows left out of the sample, then the code rows below
    the training rows) leave the tree and the training rows' values as the
    oracle, which carries none, gives them, and get the leaf value that
    routing their codes through the tree gives."""
    rng = np.random.default_rng(seed)
    n = case.codes.shape[0]
    case = case if subsample else dataclasses.replace(case, k=None)
    out_of_bag = np.setdiff1d(np.arange(n), case.rows)
    codes = case.codes
    if validation:  # validation rows stacked below the training rows
        extra = case.codes[rng.integers(0, n, size=int(rng.integers(1, 60)))]
        codes = np.asfortranarray(np.concatenate([case.codes, extra]))
    riding = np.concatenate([out_of_bag, np.arange(n, codes.shape[0])])
    m = len(case.rows)
    for grow, size in (("grow_leafwise", max_leaves), ("grow_oblivious", max_depth)):
        want = _grow_or_none(_oracle_grow, getattr(oracles, grow), case, size)
        got = _grow_or_none(_kernel_grow, getattr(kernel_trees, grow), codes, case, size)
        assert (got is None) == (want is None)
        if got is None:
            continue
        tree, values, order = got
        assert _same_tree(tree, want[0])
        by_row = np.empty(codes.shape[0])
        by_row[order[:m]] = values[:m]
        assert _same_bits(np.sort(order[:m]), want[2])
        assert _same_bits(by_row[want[2]], want[1])
        riders = order[m:]
        assert _same_bits(np.sort(riders), riding.astype(np.int64))
        assert _same_bits(values[m:], oracles.predict_codes(tree, codes[riders]))


def test_out_of_range_indices_raise_before_the_kernel_runs():
    """The kernel reads through indices unchecked: a TreeKernel rejects bad
    codes and training row counts when it is made, and draws and scores
    that do not fit its rows before the kernel reads them."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 3))
    codes = BinMapper().fit(X).transform(X)
    TreeKernel = kernel_trees.TreeKernel
    for n_train in (51, -1):
        with pytest.raises(ValueError, match="training rows"):
            TreeKernel(codes, n_train)
    for bad in (np.ascontiguousarray(codes[:, :2]), codes.astype(np.int64)):
        with pytest.raises(ValueError, match="codes"):
            TreeKernel(bad, 50)
    kern = TreeKernel(codes, 40)  # rows 40..49 ride as passengers
    for k in (41, -1):
        with pytest.raises(ValueError, match="draw"):
            kern.draw(np.random.default_rng(0), k, None)
    with pytest.raises(ValueError, match="y must be"):
        kern.bind_scores(0.0, np.zeros(50), 0)
    kern.bind_scores(0.0, np.zeros(40), 0)
    with pytest.raises(ValueError, match="p must be"):
        kern.gradients(np.zeros(40))
    with pytest.raises(ValueError, match="no output"):
        kern.add_tree(1)


@pytest.mark.parametrize("base", [0.25, np.array([0.5, -1.0, 2.0])])
def test_bind_scores_gives_every_code_row_its_base_score(base):
    """`raw` has one row per code row, training and passenger rows alike:
    (rows,) for one output, (rows, K) C-ordered for K, each row at `base`."""
    codes = np.asfortranarray(np.zeros((7, 2), dtype=np.uint8))
    kern = kernel_trees.TreeKernel(codes, 5)
    kern.bind_scores(base, np.zeros(5), 0)
    want = np.full(7, base) if np.ndim(base) == 0 else np.tile(base, (7, 1))
    assert _same_bits(kern.raw, want) and kern.raw.flags.c_contiguous
    assert kern.outputs == (1 if np.ndim(base) == 0 else 3)


def test_pairwise_sum_equals_numpy():
    """The kernel's bin totals and leaf sums are np.add.reduce bit for bit:
    0.0 plus numpy's pairwise sum, on every length up to 13,000, over the
    entries a bitmap marks, all of them or a random half or twentieth (the
    others hold other values, which the sum must not read; numpy sums +0.0
    there).

    NaNs and infinities go into separate arrays. When both operands of an add
    are NaN the CPU returns the first one, and which operand comes first in a
    commutative add is the compiler's choice; so an array holding NaNs of
    both signs (inf - inf makes a negative one) would test two compilers'
    register allocation, not the order of the sums."""
    rng = np.random.default_rng(3)
    size = 13_000 + 8
    finite = rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size=size)
    finite[rng.random(size) < 0.05] = -0.0
    with_nan, with_inf = finite.copy(), finite.copy()
    with_nan[rng.integers(0, size, size=6)] = np.nan
    with_inf[rng.integers(0, size, size=6)] = np.inf
    with_inf[rng.integers(0, size, size=6)] = -np.inf
    arrays = [finite, with_nan, with_inf, np.full(size, -0.0), np.full(size, 1e308)]
    masks = [np.ones(size, dtype=bool), rng.random(size) < 0.5, rng.random(size) < 0.05]
    kern = kernel()
    sums = np.empty(2)
    with np.errstate(all="ignore"):
        for n in range(1, 13_001):
            start = n % 8  # unaligned starts too
            mask = masks[n % 3][start:start + n]
            bits = np.packbits(np.append(mask, np.zeros(-n % 64, dtype=bool)),
                               bitorder="little").view(np.uint64)
            for a, b in zip(arrays, arrays[1:] + arrays[:1]):
                kern.pairwise_sums(a[start:].ctypes.data, b[start:].ctypes.data,
                                   bits.ctypes.data, n, sums.ctypes.data)
                for got, x in zip(sums, (a, b)):
                    want = np.add.reduce(np.where(mask, x[start:start + n], 0.0))
                    assert _same_bits(got, want), (n, start)


def test_a_subtraction_residual_decides_a_split():
    """A bin that a split empties keeps the float residual of the subtraction
    (count 0, gradient sum not 0), and here one of them is the threshold of
    node 49: a kernel that skipped count-0 bins would grow another tree."""
    rng = np.random.default_rng(23)
    X = rng.normal(size=(600, 3))
    p = rng.random(600)
    g, h = p - (rng.random(600) < 0.5), p * (1.0 - p)
    mapper = BinMapper().fit(X)
    case = Case(mapper.transform(X), mapper, g, h, 0, None, None, 1.0, 2)
    args = (case.codes, g, h, case.rows, case.feats, mapper, 32, 2, 1.0, 0.1)
    got = _kernel_grow(kernel_trees.grow_leafwise, case.codes, case, 32)[0]
    want = oracles.grow_leafwise(*args)[0]
    assert _same_tree(got, want)

    def gains_of_populated_bins(G, H, C, reg, min_data):
        return gain_matrix(np.where(C == 0, 0.0, G), np.where(C == 0, 0.0, H), C, reg, min_data)

    gain_matrix = oracles._gain_matrix
    with mock.patch.object(oracles, "_gain_matrix", gains_of_populated_bins):
        populated = oracles.grow_leafwise(*args)[0]
    differ = np.flatnonzero(populated.bin_threshold != want.bin_threshold)
    assert differ.tolist() == [49] and populated.feature[49] == want.feature[49]


def test_the_missing_bin_is_no_threshold():
    """With reg=0 and min_data=0 a threshold at the missing bin would leave no
    rows, no gradient and no hessian on the right: a 0/0 gain, which wins an
    argmax. Thresholds stop at bin 254."""
    codes = np.asfortranarray(np.array([[0], [0], [255], [255]], dtype=np.uint8))
    g, h = np.array([-1.0, 0.5, 0.25, 1.0]), np.full(4, 0.25)
    case = Case(codes, BinMapper().fit(np.array([[0.0], [0.0], [np.nan], [np.nan]])), g, h,
                0, None, None, 0.0, 0)
    rows, feats = case.rows, case.feats
    hist, bits = _kernel_hist(case, rows)
    want = _oracle_best(case, oracles._histograms(codes, rows, g, h, feats))
    got = _kernel_best(case, hist, bits, 4)
    assert want[2] < 255 and _same_bits(got[0], want[0]) and got[1:] == want[1:]
    assert _same_tree(_kernel_grow(kernel_trees.grow_leafwise, codes, case, 4)[0],
                      _oracle_grow(oracles.grow_leafwise, case, 4)[0])


@settings(max_examples=30)
@given(st.sampled_from(["binary", "regression", "multiclass"]),
       st.sampled_from(["leaf_wise", "symmetric_depth_wise"]),
       st.floats(0.3, 1.0), st.floats(0.3, 1.0), st.booleans(), st.integers(0, 2**16))
def test_fit_booster_equals_oracle_growers(task_kind, flavor, subsample, colsample, validate,
                                           seed):
    """fit_booster, whose sample layout, gradients, score updates and ROC
    AUC run in the kernel, equals the numpy boosting loop with the numpy
    growers (oracles.fit_booster): trees, eval history, best
    iteration and validation raw scores, bit for bit."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 300))
    n_val = int(rng.integers(5, 100)) if validate else 0
    X = rng.normal(size=(n + n_val, int(rng.integers(1, 8))))
    X[rng.random(X.shape) < 0.1] = np.nan
    signal = np.nan_to_num(X[:, 0]) + rng.normal(size=n + n_val)
    n_classes = 3 if task_kind == "multiclass" else 0
    y = {"binary": (signal > 0).astype(np.int64),
         "regression": signal,
         "multiclass": np.digitize(signal, [-0.5, 0.5])}[task_kind]
    if task_kind == "multiclass":
        y[:3] = [0, 1, 2]
        y[n:n + 3] = [0, 1, 2][:n_val]
    elif task_kind == "binary":
        y[:2] = [0, 1]
        y[n:n + 2] = [0, 1][:n_val]
    params = GBMParams(n_estimators_cap=int(rng.integers(4, 12)),
                       max_leaves=int(rng.integers(2, 12)),
                       max_depth=int(rng.integers(1, 5)), subsample=subsample,
                       colsample=colsample, min_data_in_leaf=int(rng.integers(1, 6)),
                       flavor=flavor)
    val = (dict(X_val=X[n:], y_val=y[n:], metric=default_metric(task_kind), patience=2)
           if validate else {})

    got = fit_booster(X[:n], y[:n], params, task_kind, n_classes, seed=seed, **val)
    trees, history, best, val_raw = oracles.fit_booster(X[:n], y[:n], params, task_kind,
                                                        n_classes, seed=seed, **val)
    want = PackedTrees.pack(trees)
    assert all(_same_bits(a, b) for a, b in zip(got.estimator.forest.fields, want.fields))
    assert _same_bits(got.estimator.forest.offsets, want.offsets)
    assert _same_bits(got.eval_history, history)
    assert got.best_iteration == best
    assert len(got.eval_history) == (got.best_iteration + 1 if validate else 0)
    assert _same_bits(got.val_raw, val_raw) if validate else got.val_raw is None
