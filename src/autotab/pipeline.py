"""The batch AutoML preset: phase scheduling under a wall-clock budget.

Training order is fixed cheapest-first: linear, expert GBM (leaf-wise),
tuned GBM (leaf-wise), expert GBM (oblivious), tuned GBM (oblivious). The
linear phase always runs; every later phase receives a share of the
remaining time and is skipped outright when the remainder cannot plausibly
cover it. A two-level stack is built for multiclass tasks by default, and the
final level's models are combined by ensemble selection (`ensemble.py`),
which runs on whatever time the run has left and stops between steps when
that runs out.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .autotype import (TypingReport, apply_typing, infer_feature_kind,
                       select_category_encoding)
from .budget import TimeBudget
from .data import (DEFAULT_K, Column, Dataset, DatasetMeta, RawTable, Task, conform,
                   dataset_from_raw_with_schema, parse_features)
from .ensemble import (ENSEMBLE_STEPS, BlendWeights, apply_blend, blend_weights,
                       build_stack_features)
from .errors import BudgetError, ConfigError, DataError
from .gbm import fit_booster
from .learners import GBMFolds, TrainedModel, fit_gbm, fit_linear
from .metrics import MetricSpec, evaluate
from .selection import cutoff_select, forward_select, permutation_importance
from .tuning import expert_params, tune_gbm
from .validation import CVScheme, FoldAssignment, make_folds, kfold_vector

SELECTION_STRATEGIES = ("none", "cutoff", "forward")
STACK_POLICIES = ("auto", "always", "never")

PHASE_SHARES = (
    ("linear", 0.10),
    ("gbm_leaf_expert", 0.15),
    ("gbm_leaf_tuned", 0.25),
    ("gbm_sym_expert", 0.15),
    ("gbm_sym_tuned", 0.25),
)
STACK_SHARE = 0.10
BLEND_RESERVE = 0.05
SELECTION_SHARE = 0.15
SELECTION_TREE_CAP = 200
MIN_PHASE_SECONDS = 0.5  # below this a phase cannot do useful work: skip it


@dataclass(frozen=True)
class PresetConfig:
    cv: CVScheme | None = None
    selection_strategy: str = "cutoff"
    stack_policy: str = "auto"
    tuning_enabled: bool = True
    budget_seconds: float = 600.0
    seed: int = 42
    use_linear: bool = True
    use_gbm_leaf: bool = True
    use_gbm_sym: bool = True
    metric: str | None = None

    def __post_init__(self) -> None:
        if self.selection_strategy not in SELECTION_STRATEGIES:
            raise ConfigError(f"unknown selection strategy {self.selection_strategy!r}")
        if self.stack_policy not in STACK_POLICIES:
            raise ConfigError(f"unknown stack policy {self.stack_policy!r}")
        if self.budget_seconds <= 0:
            raise ConfigError("budget_seconds must be positive")
        if not (self.use_linear or self.use_gbm_leaf or self.use_gbm_sym):
            raise ConfigError("at least one learner must be enabled")


@dataclass(frozen=True)
class PhasePlan:
    """Ordered model phases with time shares; order is fixed cheapest-first."""

    phases: tuple[tuple[str, float], ...]

    @classmethod
    def for_config(cls, config: PresetConfig, stack_active: bool) -> "PhasePlan":
        phases = []
        for name, share in PHASE_SHARES:
            if name == "linear" and not config.use_linear:
                continue
            if name.startswith("gbm_leaf") and not config.use_gbm_leaf:
                continue
            if name.startswith("gbm_sym") and not config.use_gbm_sym:
                continue
            if name.endswith("_tuned") and not config.tuning_enabled:
                continue
            phases.append((name, share))
        if stack_active:
            phases.append(("stack", STACK_SHARE))
        return cls(tuple(phases))

    def share_of(self, name: str) -> float:
        for n, s in self.phases:
            if n == name:
                return s
        raise ConfigError(f"phase {name!r} is not in the plan")


def allocate_time(budget: TimeBudget, plan: PhasePlan,
                  observed: dict[str, float | None], phase: str) -> float | None:
    """Seconds for the next phase, or None to skip it.

    The linear phase always gets an allocation. Tuned phases are skipped when
    the remaining time is under twice the observed duration of the matching
    expert phase. Shares renormalize over the phases still pending, and a 5%
    reserve of the total stays earmarked for blending.
    """
    remaining = budget.remaining()
    reserve = BLEND_RESERVE * budget.total_seconds
    if phase.endswith("_tuned"):
        expert_phase = phase.replace("_tuned", "_expert")
        if expert_phase in observed and observed[expert_phase] is None:
            return None  # no expert baseline to refine
        expert_elapsed = observed.get(expert_phase)
        if expert_elapsed is not None and remaining < 2.0 * expert_elapsed:
            return None
    pending_shares = sum(s for n, s in plan.phases if n not in observed)
    share = plan.share_of(phase) / pending_shares if pending_shares > 0 else 1.0
    alloc = min(remaining * share, remaining - reserve)
    if phase == "linear":
        return max(alloc, 1.0)
    if alloc < MIN_PHASE_SECONDS:
        return None
    return alloc


@dataclass
class AutoMLModel:
    """The final fitted artifact: everything needed to predict and audit."""

    task: Task
    config: dict
    reference: Dataset  # stripped of row data; keeps schema and dictionaries
    typing_report: TypingReport
    selected: list[str]
    level1: list[TrainedModel]
    level2: list[TrainedModel]  # empty unless the level-1 models are stacked
    blend: BlendWeights
    oof: np.ndarray
    oof_mask: np.ndarray
    metric_oof: float
    report: dict

    def predict_raw_table(self, raw: RawTable) -> np.ndarray:
        """Predictions for raw cells: each selected feature parsed by its
        recipe and coded as at fit time; the target is not needed."""
        return self._predict(dataset_from_raw_with_schema(raw, self.reference, self.selected))

    def predict_dataset(self, ds: Dataset) -> np.ndarray:
        """Predictions for a dataset with `build_dataset`'s columns, which
        `data.conform` codes as at fit time: a dataset built from a raw table
        predicts as that table does."""
        return self._predict(conform(ds, self.reference, self.selected))

    def _predict(self, ds: Dataset) -> np.ndarray:
        level1_preds = [m.predict(ds) for m in self.level1]
        if not self.level2:
            return apply_blend(level1_preds, self.blend)
        X2, names = build_stack_features(self.level1, level1_preds)
        ds2 = _features_only_dataset(stack_feature_transform(X2, self.task),
                                     names, self.task)
        level2_preds = [m.predict(ds2) for m in self.level2]
        return apply_blend(level2_preds, self.blend)


def stack_feature_transform(X: np.ndarray, task: Task) -> np.ndarray:
    """Map stacked probability columns to log-odds (log-probabilities for
    multiclass) so a level-2 linear model can represent any single level-1
    model exactly; regression predictions pass through."""
    if task.kind == "regression":
        return X
    P = np.clip(X, 1e-6, 1.0 - 1e-6)
    if task.kind == "binary":
        return np.log(P / (1.0 - P))
    return np.log(P)


def _features_only_dataset(X: np.ndarray, names: list[str], task: Task) -> Dataset:
    columns = {n: Column(n, "numeric", X[:, j].astype(np.float64))
               for j, n in enumerate(names)}
    return Dataset(columns, np.zeros(X.shape[0]), task, DatasetMeta(X.shape[0]))


def strip_dataset(dataset: Dataset) -> Dataset:
    """Drop row data but keep schema, dictionaries, task, and metadata."""
    slim_cols = {name: replace(col, values=np.empty(0, dtype=col.values.dtype))
                 for name, col in dataset.columns.items()}
    return Dataset(slim_cols, np.empty(0), dataset.task, dataset.meta, dataset.schema)


def default_cv_scheme(task: Task, seed: int) -> CVScheme:
    if task.kind in ("binary", "multiclass"):
        return CVScheme("stratified_kfold", k=DEFAULT_K, seed=seed)
    return CVScheme("kfold", k=DEFAULT_K, seed=seed)


def _typing_folds(folds: FoldAssignment, n: int, seed: int) -> FoldAssignment:
    if folds.partitions_rows() and folds.k >= 2:
        return folds
    scheme = CVScheme("kfold", k=DEFAULT_K, seed=seed)
    return FoldAssignment(kfold_vector(n, DEFAULT_K, seed), DEFAULT_K, scheme)


def _flavor_of(phase: str) -> str:
    return "leaf_wise" if "leaf" in phase else "symmetric_depth_wise"


def fit_preset(dataset: Dataset, config: PresetConfig) -> AutoMLModel:
    """Run the full pipeline under the configured budget."""
    budget = TimeBudget(config.budget_seconds)
    if config.metric is not None:
        task = Task(dataset.task.kind, dataset.task.n_classes,
                    MetricSpec(config.metric), dataset.task.labels)
        dataset = replace(dataset, task=task)
    task = dataset.task
    metric = task.metric
    y = dataset.target
    report: dict = {"seed": config.seed, "budget_seconds": config.budget_seconds,
                    "task": task.kind, "metric": metric.name,
                    "phases": [], "skipped": [], "warnings": []}

    scheme = config.cv or default_cv_scheme(task, config.seed)
    folds = make_folds(scheme, dataset)
    report["cv"] = {"kind": scheme.kind, "k": folds.k, "seed": scheme.seed}
    report["warnings"].extend(folds.warnings)
    report["warnings"].extend(dataset.meta.warnings)

    t0 = time.monotonic()
    typing_folds = _typing_folds(folds, dataset.n_rows, config.seed)
    typing_report = infer_feature_kind(dataset, typing_folds)
    dataset = apply_typing(dataset, typing_report)
    enc_specs = {name: select_category_encoding(dataset.columns[name].values, y,
                                                typing_folds, task.encoding_classes)
                 for name in dataset.category_feature_names()}
    report["typing"] = typing_report.to_json()
    report["encoders"] = {k: v.kind for k, v in enc_specs.items()}
    report["phases"].append({"name": "typing", "elapsed": time.monotonic() - t0})

    gbm_data = GBMFolds(dataset, folds, enc_specs)  # built on first use
    selected, selection_info = _run_selection(gbm_data, config, budget, report)
    report["selection"] = selection_info

    stack_active = _stack_active(config, task, folds)
    plan = PhasePlan.for_config(config, stack_active)
    observed: dict[str, float | None] = {}
    roster: list[TrainedModel] = []
    histories: dict[str, list] = {}

    for phase, _share in plan.phases:
        if phase == "stack":
            continue
        alloc = allocate_time(budget, plan, observed, phase)
        if alloc is None:
            observed[phase] = None
            report["skipped"].append(phase)
            continue
        start = time.monotonic()
        model = None
        try:
            if phase == "linear":
                model = fit_linear(dataset, folds, budget=budget.sub(alloc),
                                   selected=selected)
            elif phase.endswith("_expert"):
                flavor = _flavor_of(phase)
                params = expert_params(task, dataset.n_rows, flavor)
                model = fit_gbm(gbm_data, params, budget=budget.sub(alloc),
                                selected=selected, seed=config.seed, tag=phase)
            else:
                flavor = _flavor_of(phase)
                tune_budget = budget.sub(alloc * 0.5)
                best_params, history = tune_gbm(gbm_data, flavor, tune_budget,
                                                seed=config.seed, selected=selected)
                histories[phase] = history.to_json()
                if len(history) == 0:
                    observed[phase] = None
                    report["skipped"].append(phase)
                    continue
                refit_budget = budget.sub(max(alloc - (time.monotonic() - start), 1.0))
                model = fit_gbm(gbm_data, best_params, budget=refit_budget,
                                selected=selected, seed=config.seed, tag=phase)
        except DataError as exc:
            observed[phase] = None
            report["skipped"].append(phase)
            report["warnings"].append(f"{phase}: {exc}")
            continue
        elapsed = time.monotonic() - start
        observed[phase] = elapsed
        roster.append(model)
        report["phases"].append({"name": phase, "allocated": alloc,
                                 "elapsed": elapsed, "truncated": model.truncated,
                                 "metric_oof": model.metric_oof})

    if not roster:
        raise DataError("no model could be trained under the budget")

    level2: list[TrainedModel] = []
    if stack_active:
        start = time.monotonic()
        alloc = allocate_time(budget, plan, observed, "stack") or 1.0
        level2 = _fit_stack(dataset, roster, folds, task, budget.sub(alloc), config,
                            report["warnings"])
        if level2:
            observed["stack"] = time.monotonic() - start
            report["phases"].append({"name": "stack",
                                     "elapsed": observed["stack"],
                                     "models": [m.learner_tag for m in level2]})

    final = level2 or roster
    mask = np.ones(dataset.n_rows, dtype=bool)
    for m in final:
        mask &= m.oof_mask
    blend = blend_weights([m.oof for m in final], y, metric, mask=mask, budget=budget)
    report["blend"] = blend.to_json()
    report["warnings"].extend(_blend_warnings(blend))
    report["models"] = {m.learner_tag: m.metric_oof for m in roster + level2}
    report["tuning"] = histories

    keep = [i for i in range(len(final)) if blend.weights[i] > 0]
    kept_models = [final[i] for i in keep]
    kept_weights = blend.weights[keep]
    kept_blend = replace(blend, weights=kept_weights / kept_weights.sum())

    oof = apply_blend([m.oof[mask] for m in kept_models], kept_blend)
    full_shape = (dataset.n_rows,) if oof.ndim == 1 else (dataset.n_rows, oof.shape[1])
    oof_full = np.full(full_shape, np.nan)
    oof_full[mask] = oof
    metric_oof = evaluate(metric, y[mask], oof)
    report["metric_oof_blend"] = metric_oof
    report["wallclock_seconds"] = budget.elapsed()

    if level2:
        level1_keep, level2_keep = roster, kept_models
    else:
        level1_keep, level2_keep = kept_models, []

    return AutoMLModel(
        task=task, config=asdict(config),
        reference=strip_dataset(dataset), typing_report=typing_report,
        selected=selected, level1=level1_keep,
        level2=level2_keep, blend=kept_blend, oof=oof_full,
        oof_mask=mask, metric_oof=metric_oof, report=report)


def _blend_warnings(blend: BlendWeights) -> list[str]:
    if blend.stop != "budget":
        return []
    return [f"blend: the budget ran out after {blend.steps} of {ENSEMBLE_STEPS} "
            "ensemble-selection steps"]


def _stack_active(config: PresetConfig, task: Task, folds: FoldAssignment) -> bool:
    if config.stack_policy == "never":
        return False
    if not folds.partitions_rows():
        return False  # stacking needs full OOF coverage
    if config.stack_policy == "always":
        return True
    return task.kind == "multiclass"


def _fit_stack(dataset: Dataset, roster: list[TrainedModel], folds: FoldAssignment,
               task: Task, budget: TimeBudget, config: PresetConfig,
               warnings: list[str]) -> list[TrainedModel]:
    """Fit the level-2 learners; one that fails is left out and the reason
    appended to `warnings`."""
    X2, names = build_stack_features(roster, [m.oof for m in roster])
    ds2 = _features_only_dataset(stack_feature_transform(X2, task), names, task)
    ds2 = replace(ds2, target=dataset.target)
    models = []
    params = expert_params(task, ds2.n_rows, "leaf_wise")
    try:
        models.append(fit_gbm(GBMFolds(ds2, folds), params, budget=budget,
                              seed=config.seed, tag="stack_gbm"))
    except DataError as exc:
        warnings.append(f"stack_gbm: {exc}")
    try:
        models.append(fit_linear(ds2, folds, budget=budget, tag="stack_linear"))
    except (DataError, BudgetError) as exc:
        warnings.append(f"stack_linear: {exc}")
    return models


def _run_selection(data: GBMFolds, config: PresetConfig, budget: TimeBudget,
                   report: dict) -> tuple[list[str], dict]:
    names = data.dataset.feature_names()
    info: dict = {"strategy": config.selection_strategy, "kept": names}
    if config.selection_strategy == "none" or len(names) <= 1:
        return names, info
    reserve = BLEND_RESERVE * budget.total_seconds
    alloc = min(budget.remaining() * SELECTION_SHARE, budget.remaining() - reserve)
    if alloc < MIN_PHASE_SECONDS:
        info["skipped"] = "insufficient budget"
        return names, info

    start = time.monotonic()
    sub_budget = budget.sub(alloc)
    task, y = data.dataset.task, data.dataset.target
    tr, va = data.splits[0]
    groups = list(data.view.groups.items())
    params = replace(expert_params(task, len(tr), "leaf_wise"),
                     n_estimators_cap=SELECTION_TREE_CAP)

    def fit_fn(cols, validate=False):
        return fit_booster(params=params, budget=sub_budget, seed=config.seed,
                           **data.inputs(0, cols, validate)).estimator

    if config.selection_strategy == "cutoff":
        imp = permutation_importance(fit_fn(data.columns(), validate=True), data.X[va], y[va],
                                     task.metric, seed=config.seed, groups=groups)
        kept = cutoff_select(imp)
        info["importances"] = imp.as_dict()
    else:
        block = max(1, int(np.ceil(len(groups) / 20)))
        kept, trace = forward_select(data.X[va], y[va], fit_fn, block, task.metric,
                                     groups=groups, seed=config.seed)
        info.update(ranked=trace.ranked, block_scores=trace.block_scores,
                    accepted=trace.accepted)

    if not kept:
        report["warnings"].append("selection kept no features; falling back to all")
        kept = names
    kept = [n for n in names if n in set(kept)]  # restore dataset order
    info["kept"] = kept
    info["elapsed"] = time.monotonic() - start
    report["phases"].append({"name": "selection", "elapsed": info["elapsed"]})
    return kept, info


# ---------------------------------------------------------------------------
# Time utilization


@dataclass
class UtilizedModel:
    """Weighted blend of complete AutoML runs with varying configs/seeds.

    Runs sharing a config are plain-averaged; the per-config averages are
    then combined by ensemble selection (`ensemble.blend_weights`).
    """

    task: Task
    runs: list[AutoMLModel]
    group_of_run: list[int]
    blend: BlendWeights
    metric_oof: float
    report: dict

    def predict_raw_table(self, raw: RawTable) -> np.ndarray:
        """Each source column parsed once for all runs, which share one
        schema: auto-typing changes columns only."""
        names = list(dict.fromkeys(n for run in self.runs for n in run.selected))
        return self.predict_dataset(parse_features(raw, self.runs[0].reference, names))

    def predict_dataset(self, ds: Dataset) -> np.ndarray:
        preds = [run.predict_dataset(ds) for run in self.runs]
        return apply_blend(_average_by_config(preds, self.group_of_run), self.blend)


def _average_by_config(preds: list[np.ndarray], group_of_run: list[int]) -> list[np.ndarray]:
    """The plain mean of the runs of each config, in config order."""
    return [np.mean([p for p, gi in zip(preds, group_of_run) if gi == g], axis=0)
            for g in sorted(set(group_of_run))]


def utilized_fit(dataset: Dataset, configs: list[PresetConfig],
                 seeds_per_config: list[list[int]],
                 budget: TimeBudget | None = None) -> AutoMLModel | UtilizedModel:
    """Spend a large budget on multiple preset runs and blend them.

    Configs run in priority order, each over its seed list. After the first
    run, further runs launch only while the remaining budget covers the first
    run's observed duration. A budget that admits only one run returns that
    run unchanged.
    """
    if not configs:
        raise ConfigError("utilized_fit needs at least one config")
    if len(seeds_per_config) != len(configs):
        raise ConfigError("seeds_per_config must align with configs")
    planned = [(ci, seed) for ci, cfg in enumerate(configs)
               for seed in seeds_per_config[ci]]
    if not planned:
        raise ConfigError("no runs planned")
    total = budget.total_seconds if budget is not None else sum(
        c.budget_seconds for c in configs)
    budget = budget or TimeBudget(total)
    slice_seconds = total / len(planned)

    runs: list[AutoMLModel] = []
    group_of_run: list[int] = []
    first_duration: float | None = None
    for ci, seed in planned:
        if first_duration is not None and budget.remaining() < first_duration:
            break
        cfg = replace(configs[ci], seed=seed,
                      budget_seconds=max(min(slice_seconds, budget.remaining()), 1.0))
        t0 = time.monotonic()
        run = fit_preset(dataset, cfg)
        if first_duration is None:
            first_duration = time.monotonic() - t0
        runs.append(run)
        group_of_run.append(ci)

    if len(runs) == 1:
        return runs[0]

    mask = np.ones(dataset.n_rows, dtype=bool)
    for run in runs:
        mask &= run.oof_mask
    averaged = _average_by_config([run.oof for run in runs], group_of_run)
    metric = dataset.task.metric if configs[0].metric is None else MetricSpec(configs[0].metric)
    blend = blend_weights([a[mask] for a in averaged], dataset.target[mask], metric,
                          budget=budget)
    oof = apply_blend([a[mask] for a in averaged], blend)
    metric_oof = evaluate(metric, dataset.target[mask], oof)
    report = {"runs": [r.report for r in runs], "blend": blend.to_json(),
              "groups": group_of_run, "metric_oof": metric_oof,
              "warnings": _blend_warnings(blend)}
    return UtilizedModel(dataset.task, runs, group_of_run, blend, metric_oof, report)


def predict_automl(artifact: AutoMLModel | UtilizedModel, raw: RawTable) -> np.ndarray:
    """Apply stored typing, encoders, models, stack, and blend to new data."""
    return artifact.predict_raw_table(raw)
