import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, and never more than
# `max_examples`, so the suite stays deterministic and its runtime bounded.
settings.register_profile("autotab", derandomize=True, deadline=None, max_examples=150,
                          database=None)
settings.load_profile("autotab")

from autotab.data import dataset_from_arrays
from autotab.gbm.losses import sigmoid, softmax


def make_binary(n, f, informative, seed, noise=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f))
    w = np.zeros(f)
    w[:informative] = rng.normal(size=informative) * 2.0
    logits = X @ w + noise * rng.normal(size=n)
    y = (rng.random(n) < sigmoid(logits)).astype(np.int64)
    if y.min() == y.max():  # degenerate draw, flip one
        y[0] = 1 - y[0]
    return X, y


def make_multiclass(n, f, n_classes, informative, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f))
    W = np.zeros((f, n_classes))
    W[:informative] = rng.normal(size=(informative, n_classes)) * 2.0
    probs = softmax(X @ W + 0.5 * rng.normal(size=(n, n_classes)))
    y = np.array([rng.choice(n_classes, p=p) for p in probs], dtype=np.int64)
    for c in range(n_classes):  # guarantee every class appears
        if (y == c).sum() == 0:
            y[c] = c
    return X, y


def make_regression(n, f, informative, seed, noise=0.5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f))
    w = np.zeros(f)
    w[:informative] = rng.normal(size=informative)
    y = X @ w + noise * rng.normal(size=n)
    return X, y


def binary_dataset(n=500, f=6, informative=4, seed=0, noise=1.0):
    X, y = make_binary(n, f, informative, seed, noise)
    return dataset_from_arrays(X, y, "binary")


def multiclass_dataset(n=600, f=6, n_classes=3, informative=4, seed=0):
    X, y = make_multiclass(n, f, n_classes, informative, seed)
    return dataset_from_arrays(X, y, "multiclass")


def regression_dataset(n=500, f=6, informative=4, seed=0):
    X, y = make_regression(n, f, informative, seed)
    return dataset_from_arrays(X, y, "regression")


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")
    return str(path)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
