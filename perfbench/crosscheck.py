"""Baseline cross-check: the kernel and ingest sizes of the ROADMAP baseline.

Not a workload. It runs in the traced pass only, so later changes can be
read against the numbers recorded when the ROADMAP was re-anchored on a
2-core machine with numpy 2.4.6 and scipy 1.17.1.
"""

from __future__ import annotations

import os
import time

import numpy as np

from autotab import build_dataset, read_csv
from autotab.gbm import GBMParams, fit_booster

from workloads import ingest_regression

TREES = 50
# name -> (rows, features, flavor) for fit_booster; trees per second
BOOSTER_CASES = {
    "baseline.leaf_10kx20_trees_per_s": (10_000, 20, "leaf_wise"),
    "baseline.sym_10kx20_trees_per_s": (10_000, 20, "symmetric_depth_wise"),
    "baseline.leaf_50kx50_trees_per_s": (50_000, 50, "leaf_wise"),
    "baseline.sym_50kx50_trees_per_s": (50_000, 50, "symmetric_depth_wise"),
}
INGEST_ROWS = 100_000
INGEST_COLUMNS = ("v0", "v1", "v2", "grp0", "grp1", "opened", "target")  # 7 columns

ROADMAP_BASELINE = {
    "baseline.leaf_10kx20_trees_per_s": 34.0,
    "baseline.sym_10kx20_trees_per_s": 43.0,
    "baseline.leaf_50kx50_trees_per_s": 8.4,
    "baseline.sym_50kx50_trees_per_s": 6.0,
    "baseline.build_dataset_100kx7_s": 4.0,
}


def _booster_trees_per_s(rows: int, features: int, flavor: str, seed: int) -> float:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, features))
    logit = X[:, :5] @ rng.normal(size=5) + 0.5 * rng.normal(size=rows)
    y = (logit > 0).astype(np.int64)
    params = GBMParams(n_estimators_cap=TREES, flavor=flavor)
    t0 = time.perf_counter()
    res = fit_booster(X, y, params, "binary", seed=seed)
    seconds = time.perf_counter() - t0
    if res.estimator.n_iterations != TREES:
        raise RuntimeError(f"expected {TREES} trees, got {res.estimator.n_iterations}")
    return TREES / seconds


def run(seed: int, workdir: str) -> dict:
    out = {name: _booster_trees_per_s(*case, seed=seed)
           for name, case in BOOSTER_CASES.items()}
    table = ingest_regression(np.random.default_rng(seed), INGEST_ROWS)
    keep = [table.header.index(c) for c in INGEST_COLUMNS]
    table.header = [table.header[j] for j in keep]
    table.cells = [table.cells[j] for j in keep]
    path = os.path.join(workdir, "crosscheck.csv")
    table.write(path)
    del table
    raw = read_csv(path, target_name="target")
    t0 = time.perf_counter()
    build_dataset(raw, "target", "regression")
    out["baseline.build_dataset_100kx7_s"] = time.perf_counter() - t0
    return out
