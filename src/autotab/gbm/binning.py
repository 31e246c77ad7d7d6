"""Feature pre-binning for histogram tree growth.

Each feature maps to at most 255 value bins via quantile edges computed on
the training rows; code 255 is reserved for missing. Split thresholds are
kept both as bin indices (training walks binned data) and as raw edge values
(inference walks raw floats, NaN routes right).
"""

from __future__ import annotations

import math

import numpy as np

MAX_BINS = 255
MISSING_BIN = 255


class BinMapper:
    """Per-feature quantile bin edges fitted on training data."""

    def __init__(self) -> None:
        self.edges: list[np.ndarray] = []

    def fit(self, X: np.ndarray) -> "BinMapper":
        self.edges = []
        for j in range(X.shape[1]):
            col = X[:, j]
            finite = col[~np.isnan(col)]
            if finite.size == 0:
                self.edges.append(np.empty(0))
                continue
            uniq = np.unique(finite)
            if uniq.size <= MAX_BINS:
                edges = (uniq[:-1] + uniq[1:]) / 2.0
            else:
                qs = np.quantile(finite, np.arange(1, MAX_BINS) / MAX_BINS)
                edges = np.unique(qs)
            self.edges.append(edges)
        return self

    def take(self, cols: np.ndarray | list[int]) -> "BinMapper":
        """The mapper of columns `cols` alone. A column's edges depend on
        that column only, so this equals a mapper fitted on `X[:, cols]`."""
        out = BinMapper()
        out.edges = [self.edges[j] for j in cols]
        return out

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map raw floats to uint8 codes; NaN maps to the missing bin."""
        n, f = X.shape
        codes = np.empty((n, f), dtype=np.uint8, order="F")
        for j in range(f):
            col = X[:, j]
            mask = np.isnan(col)
            binned = np.searchsorted(self.edges[j], col, side="left")
            binned[mask] = MISSING_BIN
            codes[:, j] = binned.astype(np.uint8)
        return codes

    def raw_thresholds(self, features: np.ndarray, bins: np.ndarray) -> np.ndarray:
        """The raw value of each (feature, bin) split whose `x <= value` test
        sends the same rows left as `code <= bin`: edges[feature][bin], or
        +inf at or past the last edge (every finite value goes left, only
        missing values right); 0 where feature < 0, at a leaf."""
        sizes = np.array([e.shape[0] for e in self.edges], dtype=np.int64)
        flat = np.concatenate([*self.edges, [math.inf, 0.0]])  # every edge, +inf, a leaf's 0
        f = np.maximum(features, 0)
        split = np.where(bins < sizes[f], np.cumsum(sizes)[f] - sizes[f] + bins, flat.size - 2)
        return flat[np.where(features < 0, flat.size - 1, split)]
