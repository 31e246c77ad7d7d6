"""Set-up time: a fresh process imports autotab and finishes its first fits.

The first linear fit in a process pays about a second of lazy
initialisation, so a tiny linear and GBM fit are part of set-up. numpy is
loaded first, by the probe (see speed.py), so set-up counts autotab's own
imports, scipy's among them. Run as a script it prints the calibrated
set-up seconds; the benchmark runs it in fresh processes.
"""

import speed


def ready() -> None:
    import numpy as np

    from autotab import CVScheme, dataset_from_arrays, fit_linear, make_folds
    from autotab.gbm import GBMParams, fit_booster

    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 5))
    y = (X[:, 0] + rng.normal(size=300) > 0).astype(np.int64)
    ds = dataset_from_arrays(X, y, "binary")
    fit_linear(ds, make_folds(CVScheme("stratified_kfold", k=3, seed=0), ds))
    fit_booster(X, y, GBMParams(n_estimators_cap=3), "binary")


def setup_seconds() -> float:
    """Calibrated seconds for `ready()` in this process."""
    with speed.Stopwatch() as watch:
        ready()
    return watch.calibrated_s


if __name__ == "__main__":
    print(setup_seconds())
