"""Batch command-line front end.

Exit codes are the machine contract: 0 success, 2 data error, 3 config
error. Messages on stderr are free-form. The LAMA_THREADS environment
variable caps the numeric worker pools and the threads that train a GBM's
folds: importing this module runs `autotab/__init__.py`, which applies the
cap to the numeric pools before numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .pipeline import PresetConfig
from .validation import CVScheme

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CONFIG = 3

_PRESET_KEYS = {f.name for f in dataclasses.fields(PresetConfig)}
_CONFIG_KEYS = _PRESET_KEYS | {"train_path", "target", "out_dir", "model_path", "task"}
_CV_KEYS = {f.name for f in dataclasses.fields(CVScheme)}
_JSON_TYPES = {"boolean": (bool,), "integer": (int,), "number": (int, float)}
_TYPES = {"tuning_enabled": "boolean", "use_linear": "boolean", "use_gbm_leaf": "boolean",
          "use_gbm_sym": "boolean", "seed": "integer",
          "budget_seconds": "number"}  # JSON types the keys must have
_CV_TYPES = {"k": "integer", "seed": "integer", "holdout_fraction": "number"}
_TASK_KINDS = ("binary", "multiclass", "regression", "auto")


def _load_config(path: str | None) -> dict:
    from .errors import ConfigError

    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cv = cfg.get("cv")
    if cv is not None:
        if not isinstance(cv, dict):
            raise ConfigError("cv must be a JSON object")
        bad = set(cv) - _CV_KEYS
        if bad:
            raise ConfigError(f"unknown cv keys: {sorted(bad)}")
    task = cfg.get("task")
    if task is not None and task not in _TASK_KINDS:
        raise ConfigError(f"task must be one of {_TASK_KINDS}")
    return cfg


def _check_types(cfg: dict, types: dict, prefix: str) -> None:
    """Raise ConfigError where a key of `types` holds a value that is not of
    its JSON type (`_JSON_TYPES`; a JSON boolean is no number): coercing
    "false", 2.9, true or "0.3" would run another configuration."""
    from .errors import ConfigError

    for key, kind in types.items():
        if key in cfg and type(cfg[key]) not in _JSON_TYPES[kind]:
            raise ConfigError(f"{prefix}{key} must be a JSON {kind}, not {cfg[key]!r}")


def _infer_task_kind(cells) -> str:
    values = {c.strip() for c in cells if c is not None}
    if len(values) == 2:
        return "binary"
    def is_float(s: str) -> bool:
        try:
            float(s)
            return True
        except ValueError:
            return False
    if not all(is_float(v) for v in values):
        return "multiclass"
    floats = [float(v) for v in values]
    if all(f.is_integer() for f in floats) and len(values) <= 20:
        return "multiclass"
    return "regression"


def _build_preset_config(cfg: dict, budget: float | None, seed_flag: int | None):
    """The preset of a config `_load_config` read, from the keys it holds:
    the dataclasses' defaults fill in the others. A value of the wrong JSON
    type is a ConfigError here, where the values are used."""
    from .errors import ConfigError

    _check_types(cfg, _TYPES, "")
    preset = {key: cfg[key] for key in _PRESET_KEYS & cfg.keys()}
    preset["cv"] = None
    if cfg.get("cv"):
        cv = dict(cfg["cv"])
        _check_types(cv, _CV_TYPES, "cv.")
        if "holdout_fraction" in cv:
            cv["holdout_fraction"] = float(cv["holdout_fraction"])
        if cv.get("fold_of_row") is not None:
            cv["fold_of_row"] = tuple(cv["fold_of_row"])
        preset["cv"] = CVScheme(**cv)
    if budget is not None:
        preset["budget_seconds"] = budget
    if seed_flag is not None:
        preset["seed"] = seed_flag
    try:
        if "budget_seconds" in preset:
            preset["budget_seconds"] = float(preset["budget_seconds"])
        return PresetConfig(**preset)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def _sanitize(obj):
    import numpy as np
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if f == f and abs(f) != float("inf") else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def _read_dataset(path: str, target: str, cfg: dict):
    """The dataset of a training CSV, its task read from the config or,
    for `task: auto` (the default), inferred from the target column."""
    from .data import build_dataset, read_csv

    raw = read_csv(path, target_name=target)
    task_kind = cfg.get("task", "auto")
    if task_kind == "auto":
        task_kind = _infer_task_kind(raw.column(target))
    return build_dataset(raw, target, task_kind)


def cmd_fit(args) -> int:
    from .artifact import save_model
    from .pipeline import fit_preset

    cfg = _load_config(args.config)
    config = _build_preset_config(cfg, args.budget, args.seed)
    target = args.target or cfg.get("target")
    train_path = args.train or cfg.get("train_path")
    if not target or not train_path:
        print("fit requires --train and --target (or config entries)", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or cfg.get("out_dir") or "."
    os.makedirs(out_dir, exist_ok=True)

    model = fit_preset(_read_dataset(train_path, target, cfg), config)

    model_path = os.path.join(out_dir, "model.lama")
    save_model(model, model_path)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(_sanitize(model.report), fh, indent=2)
    print(f"model written to {model_path}")
    return EXIT_OK


def cmd_predict(args) -> int:
    from .artifact import load_model
    from .data import read_csv
    from .pipeline import predict_automl

    artifact = load_model(args.model)
    raw = read_csv(args.data)
    preds = predict_automl(artifact, raw)
    task = artifact.task
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        if preds.ndim == 2:
            labels = task.labels or [str(i) for i in range(preds.shape[1])]
            fh.write("index," + ",".join(f"p_{c}" for c in labels) + "\n")
            for i, row in enumerate(preds):
                fh.write(f"{i}," + ",".join(repr(float(v)) for v in row) + "\n")
        else:
            fh.write("index,prediction\n")
            for i, v in enumerate(preds):
                fh.write(f"{i},{float(v)!r}\n")
    print(f"predictions written to {args.out}")
    return EXIT_OK


def cmd_infer_types(args) -> int:
    from .autotype import infer_feature_kind
    from .pipeline import _typing_folds, default_cv_scheme
    from .validation import make_folds

    cfg = _load_config(args.config)
    config = _build_preset_config(cfg, None, None)
    dataset = _read_dataset(args.train, args.target, cfg)
    scheme = config.cv or default_cv_scheme(dataset.task, config.seed)
    folds = _typing_folds(make_folds(scheme, dataset), dataset.n_rows, config.seed)
    report = infer_feature_kind(dataset, folds)
    json.dump(_sanitize(report.to_json()), sys.stdout, indent=2)
    print()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autotab",
        description="Train and apply budgeted tabular AutoML models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="train a model from a CSV")
    p_fit.add_argument("--train", help="training CSV path")
    p_fit.add_argument("--target", help="target column name")
    p_fit.add_argument("--config", help="JSON run config")
    p_fit.add_argument("--budget", type=float, help="time budget in seconds")
    p_fit.add_argument("--seed", type=int, help="random seed")
    p_fit.add_argument("--out", help="output directory")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="apply a saved model")
    p_pred.add_argument("--model", required=True, help="model artifact path")
    p_pred.add_argument("--data", required=True, help="input CSV path")
    p_pred.add_argument("--out", required=True, help="prediction CSV path")
    p_pred.set_defaults(func=cmd_predict)

    p_types = sub.add_parser("infer-types", help="print the typing report")
    p_types.add_argument("--train", required=True)
    p_types.add_argument("--target", required=True)
    p_types.add_argument("--config")
    p_types.set_defaults(func=cmd_infer_types)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .errors import BudgetError, ConfigError, DataError

    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, BudgetError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
