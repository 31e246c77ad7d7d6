"""In-house histogram gradient boosting in two flavors."""

from .binning import BinMapper
from .boosting import FitResult, GBMEstimator, GBMParams, fit_booster
from .trees import PackedTrees, Tree

__all__ = ["BinMapper", "FitResult", "GBMEstimator", "GBMParams", "PackedTrees",
           "fit_booster", "Tree"]
