"""Loss functions for Newton boosting: base scores, score transforms and
the gradient formulas.

Gradients and hessians are taken from the transformed scores `p =
transform(raw)`, which a booster computes once per iteration for its
training and validation rows together (see boosting.fit_booster). The
kernel computes them (`_kernel.c` `gradients`, one IEEE operation per row,
so the values are numpy's), picked by each loss's `kernel_loss`:
    binary:     g = p - y, h = p * (1 - p)
    multiclass: g = p - 1 at the row's class, p elsewhere; h = p * (1 - p)
    regression: g = p - y, h = 1
The transform stays in numpy: the kernel's libm exp would round some
values differently from numpy's.
"""

from __future__ import annotations

import numpy as np

_CLIP = 1e-15


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) otherwise, so exp never
    overflows. min(z, -z) keeps a NaN's sign bit, where -abs(z) would not."""
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def softmax(z: np.ndarray) -> np.ndarray:
    zs = z - z.max(axis=1, keepdims=True)
    ez = np.exp(zs)
    return ez / ez.sum(axis=1, keepdims=True)


class BinaryLogloss:
    n_outputs = 1
    kernel_loss = 0  # LOSS_BINARY

    def init_score(self, y: np.ndarray) -> float:
        p = float(np.clip(y.mean(), _CLIP, 1 - _CLIP))
        return float(np.log(p / (1.0 - p)))

    def transform(self, raw: np.ndarray) -> np.ndarray:
        return sigmoid(raw)


class MulticlassSoftmax:
    kernel_loss = 1  # LOSS_MULTICLASS

    def __init__(self, n_classes: int) -> None:
        self.n_outputs = n_classes

    def init_score(self, y: np.ndarray) -> np.ndarray:
        prior = np.bincount(y.astype(np.int64), minlength=self.n_outputs) / y.shape[0]
        return np.log(np.clip(prior, _CLIP, None))

    def transform(self, raw: np.ndarray) -> np.ndarray:
        return softmax(raw)


class SquaredError:
    n_outputs = 1
    kernel_loss = 2  # LOSS_SQUARED

    def init_score(self, y: np.ndarray) -> float:
        return float(y.mean())

    def transform(self, raw: np.ndarray) -> np.ndarray:
        return raw


def make_loss(task_kind: str, n_classes: int = 0):
    if task_kind == "binary":
        return BinaryLogloss()
    if task_kind == "multiclass":
        return MulticlassSoftmax(n_classes)
    return SquaredError()
