import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from autotab.errors import ConfigError
from autotab.metrics import (MetricSpec, RocAuc, default_metric, evaluate, neg_logloss,
                             neg_rmse, positive_rank_sum, r2, roc_auc)

import oracles


def test_unknown_metric_rejected():
    with pytest.raises(ConfigError):
        MetricSpec("accuracy")


def test_metric_task_validity():
    assert MetricSpec("roc_auc").valid_for("binary")
    assert not MetricSpec("roc_auc").valid_for("multiclass")
    assert MetricSpec("neg_logloss").valid_for("multiclass")
    assert not MetricSpec("neg_logloss").valid_for("regression")
    assert MetricSpec("neg_rmse").valid_for("regression")
    assert MetricSpec("r2").valid_for("regression")


def test_defaults_per_task():
    assert default_metric("binary").name == "roc_auc"
    assert default_metric("multiclass").name == "neg_logloss"
    assert default_metric("regression").name == "neg_rmse"


def test_auc_perfect_and_reversed():
    y = np.array([0, 0, 1, 1])
    assert roc_auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert roc_auc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0


def test_auc_ties_get_half_credit():
    y = np.array([0, 1])
    assert roc_auc(y, np.array([0.5, 0.5])) == 0.5


def test_auc_matches_pair_counting(rng):
    for _ in range(20):
        n = int(rng.integers(5, 60))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = rng.normal(size=n).round(1)  # force some ties
        pairs = wins = 0.0
        for i in np.flatnonzero(y == 1):
            for j in np.flatnonzero(y == 0):
                pairs += 1
                if s[i] > s[j]:
                    wins += 1
                elif s[i] == s[j]:
                    wins += 0.5
        assert roc_auc(y, s) == pytest.approx(wins / pairs, abs=1e-12)


def test_auc_equals_scipy_average_ranks_bit_for_bit(rng):
    for i in range(40):
        n = int(rng.integers(2, 400))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        s = rng.normal(size=n).round(i % 3)  # 0-2 decimals: many ties to few
        s[rng.random(n) < 0.05] = -0.0  # ties with 0.0
        s[rng.random(n) < 0.05] = np.inf
        r1 = rankdata(s)[y == 1].sum()
        n1 = int(y.sum())
        expected = (r1 - n1 * (n1 + 1) / 2.0) / (n1 * (n - n1))
        assert roc_auc(y, s) == expected


@given(st.lists(st.tuples(st.booleans(), st.one_of(
    st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.5, 1.0, np.inf]),
    st.floats(allow_nan=False))), max_size=300))
def test_positive_rank_sum_equals_the_argsort_formula(rows):
    """Ties, signed zeros and infinities: the searchsorted rank sum equals the
    argsort-and-runs formula bit for bit."""
    pos = np.array([p for p, _ in rows], dtype=bool)
    scores = np.array([s for _, s in rows], dtype=np.float64)
    got, want = positive_rank_sum(pos, scores), oracles.positive_rank_sum_argsort(pos, scores)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@given(st.lists(st.tuples(st.booleans(), st.integers(-3, 3)), max_size=300),
       st.sampled_from([0.5, 1.0, 1e300]))
def test_positive_rank_sum_equals_the_unsorted_searchsorted_sum(rows, scale):
    """Few distinct scores, so many ties: the kernel's sum equals searching
    each positive score in the sorted scores, in row order."""
    pos = np.array([p for p, _ in rows], dtype=bool)
    scores = np.array([s for _, s in rows], dtype=np.float64) * scale
    ranked = np.sort(scores)
    left = np.searchsorted(ranked, scores[pos], side="left")
    right = np.searchsorted(ranked, scores[pos], side="right")
    want = float(((left + right + 1) / 2.0).sum())
    got = positive_rank_sum(pos, scores)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


_TIED = np.array([-np.inf, -1.5, -0.0, 0.0, 0.5, 1.0, np.inf])


@settings(max_examples=60, deadline=None)
@example(n=1, pool="ties", share=1.0, nan=False, seed=0)
@example(n=2, pool="ties", share=0.5, nan=False, seed=3)
@example(n=10_000, pool="spread", share=0.4, nan=False, seed=1)
@example(n=10_000, pool="probabilities", share=0.3, nan=True, seed=2)
@example(n=200, pool="ulps", share=0.5, nan=False, seed=4)
@given(n=st.integers(1, 10_000),
       pool=st.sampled_from(["ties", "spread", "probabilities", "ulps"]),
       share=st.floats(0.0, 1.0),
       nan=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_kernel_rank_sum_equals_the_argsort_oracle(n, pool, share, nan, seed):
    """The kernel's rank sum is the argsort formula's bit for bit, at 1 to
    10k rows: many ties, +0.0 next to -0.0 and infinities, scores spread
    over many binades, probabilities bunched near 0 and 1 (the booster's
    validation scores), or scores a few units in the last place apart
    (subnormals of both signs among them). A prepared RocAuc and roc_auc agree with
    the formula; one class scores 0.5, and a NaN score gives NaN."""
    rng = np.random.default_rng(seed)
    if pool == "ties":
        scores = rng.choice(_TIED, size=n)
    elif pool == "spread":
        scores = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, size=n)
    elif pool == "probabilities":
        scores = 1.0 / (1.0 + np.exp(-4.0 * rng.normal(size=n)))
    else:
        scores = np.where(rng.random(n) < 0.5, 1.0 + np.spacing(1.0) * rng.integers(0, 100, n),
                          5e-324 * rng.integers(-60, 60, n))
    scores[rng.random(n) < 0.05] = 0.0
    scores[rng.random(n) < 0.05] = -0.0
    pos = rng.random(n) < share
    if nan:
        scores[rng.integers(0, n)] = np.nan
    got = positive_rank_sum(pos, scores)
    if nan:
        assert np.isnan(got)
    else:
        want = oracles.positive_rank_sum_argsort(pos, scores)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    y = pos.astype(np.int64)
    auc = roc_auc(y, scores)
    assert np.float64(auc).tobytes() == np.float64(RocAuc(y)(scores)).tobytes()
    n1 = int(pos.sum())
    if n1 in (0, n):
        assert auc == 0.5
    elif nan:
        assert np.isnan(auc)
    else:
        assert auc == (want - n1 * (n1 + 1) / 2.0) / (n1 * (n - n1))


def test_auc_nan_score_gives_nan_and_single_class_half():
    y = np.array([0, 1, 1, 0])
    assert np.isnan(roc_auc(y, np.array([0.1, np.nan, 0.3, 0.2])))
    assert roc_auc(np.ones(3), np.array([0.1, np.nan, 0.3])) == 0.5


def test_neg_logloss_binary_hand_value():
    y = np.array([1, 0])
    p = np.array([0.8, 0.4])
    expected = -(np.log(0.8) + np.log(0.6)) / 2
    assert neg_logloss(y, p) == pytest.approx(-expected)


def test_neg_logloss_multiclass_rows():
    y = np.array([0, 2])
    p = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
    expected = -(np.log(0.7) + np.log(0.8)) / 2
    assert neg_logloss(y, p) == pytest.approx(-expected)


def test_rmse_and_r2():
    y = np.array([1.0, 2.0, 3.0])
    pred = np.array([1.0, 2.0, 5.0])
    assert neg_rmse(y, pred) == pytest.approx(-np.sqrt(4.0 / 3.0))
    assert r2(y, y) == 1.0
    assert r2(y, np.full(3, y.mean())) == 0.0


def test_evaluate_dispatch():
    y = np.array([0, 1, 1, 0])
    p = np.array([0.2, 0.7, 0.9, 0.4])
    assert evaluate(MetricSpec("roc_auc"), y, p) == roc_auc(y, p)
    assert evaluate(MetricSpec("neg_logloss"), y, p) == neg_logloss(y, p)
