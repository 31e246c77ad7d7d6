"""The compiled tree kernel equals the numpy kernel it replaced, bit for bit.

The numpy kernel lives in oracles.py. Cases are drawn with the missing bin,
NaN gradients, zero hessians with reg=0 (0/0 gains), node sizes of 1-800
rows and 1-50 features, histograms derived by subtraction (so empty bins
carry float residuals), and min_data above the node size. Each property
compares histograms, best splits, oblivious level totals or whole trees.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from autotab.gbm import GBMParams, boosting, fit_booster
from autotab.gbm import trees as kernel_trees
from autotab.gbm.binning import BinMapper
from autotab.gbm.native import kernel

import oracles


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclasses.dataclass
class Case:
    codes: np.ndarray  # Fortran-ordered uint8, as BinMapper.transform makes them
    mapper: BinMapper
    g: np.ndarray
    h: np.ndarray
    rows: np.ndarray  # sorted, a subsample of all rows
    feats: np.ndarray  # sorted, a subsample of all features
    reg: float
    min_data: int


@st.composite
def cases(draw) -> Case:
    # Hypothesis picks the kind of case; a seeded generator fills in sizes and
    # values, so large nodes are drawn as often as small ones.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = int(rng.integers(*draw(st.sampled_from([(100, 801), (10, 100), (1, 10)]))))
    n_features = int(rng.integers(1, 51))
    levels = draw(st.sampled_from([300, 40, 3, 1]))  # 300 > 255 bins: quantile edges
    X = rng.integers(0, levels, size=(n_rows, n_features)).astype(np.float64)
    X[rng.random(X.shape) < draw(st.sampled_from([0.0, 0.1, 0.6]))] = np.nan
    mapper = BinMapper().fit(X)
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
    rows = np.sort(rng.choice(n_rows, size=int(rng.integers(1, n_rows + 1)), replace=False))
    feats = np.sort(rng.choice(n_features, size=int(rng.integers(1, n_features + 1)),
                               replace=False))
    reg = draw(st.sampled_from([1.0, 0.1, 0.0]))
    min_data = (len(rows) + int(rng.integers(1, 6)) if draw(st.integers(0, 3)) == 3
                else int(rng.integers(1, 11)))  # one case in four above the node size
    return Case(mapper.transform(X), mapper, g, h, rows, feats, reg, min_data)


def _kernel_hist(case: Case, rows: np.ndarray) -> np.ndarray:
    kern = kernel()
    order = np.array(rows, dtype=np.int64)
    gbuf, hbuf = np.empty(len(order)), np.empty(len(order))
    out = np.empty((3, len(case.feats), oracles.N_HIST))
    kern.leaf_hist(case.codes.ctypes.data, case.codes.shape[0], case.g.ctypes.data,
                   case.h.ctypes.data, order.ctypes.data, 0, len(order),
                   case.feats.ctypes.data, len(case.feats), gbuf.ctypes.data, hbuf.ctypes.data,
                   out.ctypes.data)
    return out


def _kernel_best(case: Case, hist: np.ndarray) -> tuple[float, int, int]:
    hist = np.ascontiguousarray(hist)
    totals = hist.sum(axis=2)
    best = np.empty(3)
    kernel().leaf_scan(hist.ctypes.data, totals.ctypes.data, hist.shape[1], case.reg,
                       case.min_data, best.ctypes.data)
    return best[0], int(best[1]), int(best[2])


def _oracle_best(case: Case, hist) -> tuple[float, int, int]:
    gains, _ = oracles._gain_matrix(*hist, case.reg, case.min_data)
    return oracles._best_split(gains)


@given(cases())
def test_histograms_equal_oracle(case):
    expected = oracles._histograms(case.codes, case.rows, case.g, case.h, case.feats)
    assert _same_bits(_kernel_hist(case, case.rows), np.stack(expected))


@given(cases(), st.data())
def test_split_and_best_split_equal_oracle(case, data):
    """One split: stable partition, the smaller child's histograms, the larger
    one's by subtraction, then the best split of each child."""
    kern = kernel()
    f = int(data.draw(st.sampled_from(case.feats.tolist())))
    t = data.draw(st.integers(0, 255))
    parent = _kernel_hist(case, case.rows)
    order = np.array(case.rows, dtype=np.int64)
    m = len(order)
    gbuf, hbuf, tmp = np.empty(m), np.empty(m), np.empty(m, dtype=np.int64)
    small = np.empty_like(parent)
    n_left = kern.leaf_split(case.codes.ctypes.data, case.codes.shape[0], case.g.ctypes.data,
                             case.h.ctypes.data, order.ctypes.data, 0, m, f, t,
                             case.feats.ctypes.data, len(case.feats), gbuf.ctypes.data,
                             hbuf.ctypes.data, tmp.ctypes.data, parent.ctypes.data,
                             small.ctypes.data)

    go_left = case.codes[case.rows, f] <= t
    left_rows, right_rows = case.rows[go_left], case.rows[~go_left]
    assert n_left == len(left_rows)
    assert _same_bits(order, np.concatenate([left_rows, right_rows]))
    small_rows = left_rows if len(left_rows) <= len(right_rows) else right_rows
    G, H, C = oracles._histograms(case.codes, case.rows, case.g, case.h, case.feats)
    small_hists = oracles._histograms(case.codes, small_rows, case.g, case.h, case.feats)
    big_hists = (G - small_hists[0], H - small_hists[1], C - small_hists[2])
    assert _same_bits(small, np.stack(small_hists))
    assert _same_bits(parent, np.stack(big_hists))  # the parent's block became the big child's

    for got, hists in ((small, small_hists), (parent, big_hists), (_kernel_hist(case, case.rows),
                                                                    (G, H, C))):
        gain, fpos, t_best = _kernel_best(case, got)
        want_gain, want_fpos, want_t = _oracle_best(case, hists)
        assert _same_bits(gain, want_gain) and (fpos, t_best) == (want_fpos, want_t)


@given(cases(), st.integers(0, 4))
def test_oblivious_level_equals_oracle(case, depth):
    """One level: (feature, node, bin) histograms and the best total, as the
    numpy grower's per-feature loop computes them."""
    kern = kernel()
    n_nodes = 1 << depth
    rng = np.random.default_rng(len(case.rows) * 7 + depth)
    node = rng.integers(0, n_nodes, size=len(case.rows))
    gr, hr = case.g[case.rows], case.h[case.rows]
    nf = len(case.feats)
    hists = np.empty((nf, 3, n_nodes, oracles.N_HIST))
    kern.obl_hist(case.codes.ctypes.data, case.codes.shape[0], case.rows.ctypes.data,
                  len(case.rows), gr.ctypes.data, hr.ctypes.data, node.ctypes.data,
                  case.feats.ctypes.data, nf, n_nodes, hists.ctypes.data)
    totals = hists.sum(axis=3)
    best = np.empty(3)
    kern.obl_scan(hists.ctypes.data, totals.ctypes.data, nf, n_nodes, case.reg,
                  case.min_data, best.ctypes.data)

    best_total, best_fpos, best_t = 0.0, -1, -1
    for i, f in enumerate(case.feats):
        pair = node * oracles.N_HIST + case.codes[case.rows, f].astype(np.int64)
        size = n_nodes * oracles.N_HIST
        G = np.bincount(pair, weights=gr, minlength=size).reshape(n_nodes, oracles.N_HIST)
        H = np.bincount(pair, weights=hr, minlength=size).reshape(n_nodes, oracles.N_HIST)
        C = np.bincount(pair, minlength=size).reshape(n_nodes, oracles.N_HIST)
        assert _same_bits(hists[i], np.stack([G, H, C.astype(np.float64)]))
        gains, _ = oracles._gain_matrix(G, H, C, case.reg, case.min_data)
        gains = np.where(np.isfinite(gains), np.maximum(gains, 0.0), 0.0)
        level_totals = gains.sum(axis=0)
        t = int(np.argmax(level_totals))
        if level_totals[t] > best_total:
            best_total, best_fpos, best_t = float(level_totals[t]), i, t
    assert _same_bits(best[0], best_total)
    assert (int(best[1]), int(best[2])) == (best_fpos, best_t)


def _same_tree(a, b) -> bool:
    return all(_same_bits(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


@settings(max_examples=60)
@given(cases(), st.integers(1, 40), st.integers(1, 6))
def test_grown_trees_equal_oracle(case, max_leaves, max_depth):
    args = (case.codes, case.g, case.h, case.rows, case.feats, case.mapper)
    tail = (case.min_data, case.reg, 0.1)
    for grow, size in (("grow_leafwise", max_leaves), ("grow_oblivious", max_depth)):
        outcomes = []
        for module in (kernel_trees, oracles):
            try:
                outcomes.append(getattr(module, grow)(*args, size, *tail))
            except ZeroDivisionError:  # a leaf with zero hessian sum and reg=0
                outcomes.append(None)
        got, want = outcomes
        assert (got is None) == (want is None)
        if got is None:
            continue
        assert _same_tree(got[0], want[0])
        # row values come back in the grower's own row order
        assert _same_bits(np.sort(got[2]), want[2])
        by_row = np.empty(case.codes.shape[0])
        by_row[got[2]] = got[1]
        assert _same_bits(by_row[want[2]], want[1])


@settings(max_examples=30)
@given(st.sampled_from(["binary", "regression", "multiclass"]),
       st.sampled_from(["leaf_wise", "symmetric_depth_wise"]),
       st.floats(0.3, 1.0), st.floats(0.3, 1.0), st.integers(0, 2**16))
def test_fit_booster_equals_oracle_growers(task_kind, flavor, subsample, colsample, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 300))
    X = rng.normal(size=(n, int(rng.integers(1, 8))))
    X[rng.random(X.shape) < 0.1] = np.nan
    signal = np.nan_to_num(X[:, 0]) + rng.normal(size=n)
    n_classes = 3 if task_kind == "multiclass" else 0
    y = {"binary": (signal > 0).astype(np.int64),
         "regression": signal,
         "multiclass": np.digitize(signal, [-0.5, 0.5])}[task_kind]
    if task_kind == "multiclass":
        y[:3] = [0, 1, 2]
    elif task_kind == "binary":
        y[:2] = [0, 1]
    params = GBMParams(n_estimators_cap=4, max_leaves=int(rng.integers(2, 12)),
                       max_depth=int(rng.integers(1, 5)), subsample=subsample,
                       colsample=colsample, min_data_in_leaf=int(rng.integers(1, 6)),
                       flavor=flavor)

    def fit():
        return fit_booster(X, y, params, task_kind, n_classes, seed=seed).estimator

    got = fit()
    with mock.patch.object(boosting, "grow_leafwise", oracles.grow_leafwise), \
            mock.patch.object(boosting, "grow_oblivious", oracles.grow_oblivious):
        want = fit()
    assert all(_same_bits(a, b) for a, b in zip(got.forest.fields, want.forest.fields))
    assert _same_bits(got.forest.offsets, want.forest.offsets)
    assert _same_bits(got.feature_gain_, want.feature_gain_)
