"""autotab: a budgeted tabular AutoML engine.

Library entry points: build a Dataset from a CSV or arrays, then fit_preset
(or utilized_fit for big budgets) and predict through the returned artifact.

The LAMA_THREADS environment variable caps the BLAS and OpenMP worker pools
and the threads that train a GBM's folds (`fit_gbm`). A pool's size is read
when numpy loads, so that cap is applied here, before anything imports
numpy; it has no effect if numpy was loaded first. A value that is not a
positive integer raises ConfigError.
"""

import os

from .threads import thread_cap  # standard library only: safe before numpy


def _apply_thread_cap() -> None:
    cap = thread_cap()
    if cap is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(cap))


_apply_thread_cap()

from .budget import TimeBudget  # noqa: E402  (after the thread cap)
from .data import (Dataset, RawTable, Task, build_dataset, dataset_from_arrays,
                   read_csv)
from .encoders import EncoderSpec, norm_gini
from .errors import AutotabError, BudgetError, ConfigError, DataError
from .gbm import GBMParams
from .learners import GBMFolds, LinearParams, TrainedModel, fit_gbm, fit_linear
from .metrics import MetricSpec, default_metric
from .pipeline import (AutoMLModel, PresetConfig, UtilizedModel, fit_preset,
                       predict_automl, utilized_fit)
from .validation import CVScheme, FoldAssignment, make_folds

__version__ = "0.1.0"

__all__ = [
    "AutoMLModel", "AutotabError", "BudgetError", "ConfigError", "CVScheme",
    "Dataset", "DataError", "EncoderSpec", "FoldAssignment", "GBMFolds", "GBMParams",
    "LinearParams", "MetricSpec", "PresetConfig", "RawTable", "Task",
    "TimeBudget", "TrainedModel", "UtilizedModel", "build_dataset",
    "dataset_from_arrays", "default_metric", "fit_gbm", "fit_linear",
    "fit_preset", "make_folds", "norm_gini", "predict_automl", "read_csv",
    "utilized_fit", "__version__",
]
