"""autotab benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload fixed-binary-dense --seed 1 --seconds 45 --trace 0

Run it from the repository root; it imports autotab from `src/` and writes
its CSV files and models under `.perfbench_work/`, which it removes again.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The line before it
holds the details: traffic, environment, every operation with its failure,
and every metric the benchmark knows, each with its unit. `fit_s` (on
fixed-work workloads), `predict_rows_per_s` and `setup_s` are calibrated:
wall time rescaled by a machine probe (see speed.py). The wall times are in
the details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import tracing  # standard library only: safe before the thread cap

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# The variables autotab's CLI fills from LAMA_THREADS. They must be set
# before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# One BLAS thread: a run does its arithmetic on one core, so its times depend
# less on what else runs on the other core of a 2-core machine.
THREAD_CAP = 1
MIN_COVERAGE = 0.95

E2E_UNITS = {
    "fit_s": "s",
    "predict_rows_per_s": "rows/s",
    "oof_metric": "score",
    "holdout_metric": "score",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    # printed in the details only
    "fit_wall_s": "s",
    "predict_wall_rows_per_s": "rows/s",
    "budget_use": "ratio",
    "budget_overrun_s": "s",
    "ops_failed_frac": "ratio",
}
E2E_METRICS = ("fit_s", "predict_rows_per_s", "oof_metric", "holdout_metric",
               "setup_s", "peak_rss_mb")  # the ones BENCHMARK.json lists
SETUP_SAMPLES = 5


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(min(THREAD_CAP, nproc))
    return nproc


def setup_probe() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, str(HERE / "readiness.py")], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _pooled_holdout(workload, quality: list) -> float | None:
    """One score over the pooled held-out tables of the quality samples:
    steadier than a median of per-table scores."""
    import numpy as np

    from harness import score

    if not quality:
        return None
    y, pred = (np.concatenate([r.holdout[k] for r in quality]) for k in (0, 1))
    return score(workload, y, pred)


def summarise(workload, results, setup, traced, baseline, rss) -> tuple[dict, dict]:
    from harness import QUALITY_SAMPLES

    ok = [(t, i, r) for t, i, r in results if r.failure is None]
    plain = [r for t, _, r in ok if not t]
    quality = [r for t, i, r in ok if not t and i < QUALITY_SAMPLES]
    spanned = [r for t, _, r in ok if t]
    budget = workload.config["budget_seconds"]
    rows = workload.holdout_rows
    attempted = len(results)
    failed = attempted - len(ok)
    values = {
        # A fixed-work fit is timed in calibrated seconds. A budgeted fit runs
        # against the wall clock: calibrating it would make a slow machine
        # look fast.
        "fit_s": _median([r.fit_cal_s if workload.fixed_work else r.fit_s for r in plain]),
        "predict_rows_per_s": _median([rows / r.predict_cal_s for r in plain]),
        "oof_metric": _median([r.oof_metric for r in quality]),
        "holdout_metric": _pooled_holdout(workload, quality),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "fit_wall_s": _median([r.fit_s for r in plain]),
        "predict_wall_rows_per_s": _median([rows / r.predict_s for r in plain]),
        "budget_use": _median([r.fit_preset_s / budget for r in plain]),
        "budget_overrun_s": _median([max(0.0, r.fit_preset_s - budget) for r in plain]),
        "ops_failed_frac": failed / attempted,
    }
    e2e = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    layers = {}
    if spanned:
        layers = {k: _median([r.layers[k] for r in spanned]) for k in spanned[0].layers}
        layers["trace.overhead_s"] = _median([t.fit_s - u.fit_s for u, t in _pairs(ok)])
    layers.update(baseline)
    per_layer = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layers.items()}

    checks = {"wrong_output": any(r.wrong_output for _, _, r in results)}
    if workload.fixed_work:
        # every operation repeats the same fit on the same training table
        checks["oof_repeats"] = len({r.oof_metric for _, _, r in ok}) <= 1
        checks["traced_equals_untraced"] = all(
            (u.oof_metric, u.holdout_metric, u.digest) == (t.oof_metric, t.holdout_metric, t.digest)
            for u, t in _pairs(ok))
        counts = [k for k in (spanned[0].layers if spanned else ()) if tracing.unit(k) == "count"]
        checks["counts_repeat"] = all(len({r.layers[k] for r in spanned}) == 1 for k in counts)
    if spanned:
        checks["coverage_min"] = min(r.layers["trace.coverage"] for r in spanned)
    correct = (not checks["wrong_output"]
               and checks.get("oof_repeats", True)
               and checks.get("traced_equals_untraced", True)
               and checks.get("counts_repeat", True)
               and checks.get("coverage_min", 1.0) >= MIN_COVERAGE)
    shown = per_layer if traced else {k: e2e[k] for k in E2E_METRICS}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": shown}
    detail = {"checks": checks, "end_to_end": e2e, "per_layer": per_layer}
    return result, detail


def _pairs(ok: list) -> list:
    """(untraced, traced) results that ran on the same sample."""
    by_sample: dict[int, dict[bool, object]] = {}
    for t, i, r in ok:
        by_sample.setdefault(i, {})[t] = r
    return [(p[False], p[True]) for p in by_sample.values() if len(p) == 2]


def _clean(obj):
    """JSON-safe copy: non-finite floats become null."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_clean(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "autotab" / "__init__.py").is_file():
        print(f"autotab sources not found under {SRC}", file=sys.stderr)
        return 2

    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    from readiness import setup_seconds
    setup = [setup_seconds()]

    import numpy
    import scipy

    import crosscheck
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup += [setup_probe() for _ in range(SETUP_SAMPLES - 1)]
        results, traffic = harness.measure(workload, args.seed, workdir, args.seconds,
                                           bool(args.trace))
        baseline = crosscheck.run(args.seed, workdir) if args.trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    result, detail = summarise(workload, results, setup, bool(args.trace),
                               baseline, harness.peak_rss_mb())
    detail.update({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {"nproc": nproc, "thread_cap": {v: os.environ[v] for v in THREAD_VARS},
                        "numpy": numpy.__version__, "scipy": scipy.__version__,
                        "python": sys.version.split()[0]},
        "traffic_sample0": traffic,
        "setup_samples_s": setup,
        "operations": [{"traced": t, "sample": i, "fit_s": r.fit_s, "fit_preset_s": r.fit_preset_s,
                        "predict_s": r.predict_s, "fit_cal_s": r.fit_cal_s,
                        "predict_cal_s": r.predict_cal_s, "oof_metric": r.oof_metric,
                        "holdout_metric": r.holdout_metric, "digest": r.digest,
                        "failure": r.failure} for t, i, r in results],
    })
    if args.trace:
        detail["roadmap_baseline"] = crosscheck.ROADMAP_BASELINE
    print(json.dumps({"detail": _clean(detail)}))
    print(json.dumps(_clean(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
