"""Minimal repros of the two defects the benchmark's workloads run into.

    PYTHONPATH=src python3 perfbench/defects.py

Prints, for each defect, whether it still reproduces and where it raised.

D1: missing numeric values crash the GBM fit. When the best split is "all
    values left, missing right", it sits at the last value bin, and
    `BinMapper.raw_threshold` indexes past the end of that feature's edges.
    Workload: fixed-multiclass-missing, operation fit_preset.
D2: a datetime part that auto-typing re-types as a category (here
    `when__month`) breaks predicting from a CSV. `with_columns_as_category`
    rewrites the part's schema kind to `category_numeric`, and
    `dataset_from_raw_with_schema` then parses the source column as a number
    and never expands it, so the part's column is missing.
    Workload: fixed-multiclass-missing (its date has a month-of-year effect),
    operation predict_automl, once D1 no longer stops the fit first.
"""

from __future__ import annotations

import traceback

import numpy as np

from autotab import PresetConfig, build_dataset, fit_preset, predict_automl
from autotab.data import RawTable
from autotab.gbm import GBMParams, fit_booster


def d1() -> None:
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5000, 10))
    X[rng.random(X.shape) < 0.05] = np.nan
    y = (np.nan_to_num(X[:, 0]) + rng.normal(size=5000) > 0).astype(np.int64)
    for flavor in ("leaf_wise", "symmetric_depth_wise"):
        fit_booster(X, y, GBMParams(n_estimators_cap=100, flavor=flavor), "binary")


def d2() -> None:
    rng = np.random.default_rng(0)
    n = 3000
    days = np.datetime64("2019-01-01") + rng.integers(0, 1460, n).astype("timedelta64[D]")
    month = days.astype("datetime64[M]").astype(np.int64) % 12 + 1
    x = rng.normal(size=n)
    y = np.isin(month, (1, 4, 7, 10)) + 0.3 * x + 0.5 * rng.normal(size=n) > 0.5
    cols = (tuple(np.datetime_as_string(days, unit="D")), tuple(f"{v:.4f}" for v in x),
            tuple("yes" if v else "no" for v in y))
    raw = RawTable(("when", "x", "label"), cols, n)
    model = fit_preset(build_dataset(raw, "label", "binary"),
                       PresetConfig(selection_strategy="none", use_gbm_leaf=False,
                                    use_gbm_sym=False, budget_seconds=600))
    print(f"    typed as categories: {model.typing_report.category_columns()}")
    predict_automl(model, RawTable(raw.column_names[:2], cols[:2], n))


def main() -> None:
    for name, repro in (("D1", d1), ("D2", d2)):
        try:
            repro()
        except Exception as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = frame.filename.split("src/", 1)[-1]
            print(f"{name}: reproduces: {type(exc).__name__}({exc}) "
                  f"at {where}:{frame.lineno} in {frame.name}")
        else:
            print(f"{name}: does not reproduce")


if __name__ == "__main__":
    main()
