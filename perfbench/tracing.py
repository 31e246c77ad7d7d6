"""Spans around calls into autotab's modules, kept in memory.

The tracer replaces module attributes (and a few class methods) with timed
wrappers, so nothing in the library changes. Each name is wrapped at the
attribute the pipeline actually calls through: `fit_booster`, for example,
is imported separately into `pipeline`, `learners` and `tuning`, and each
of those bindings gets its own wrapper.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _booster_attrs(args, kwargs, result) -> dict:
    params = kwargs.get("params", args[2] if len(args) > 2 else None)
    task_kind = kwargs.get("task_kind", args[3] if len(args) > 3 else "")
    n_classes = kwargs.get("n_classes", args[4] if len(args) > 4 else 0)
    per_iter = n_classes if task_kind == "multiclass" else 1
    return {"flavor": params.flavor, "kept": result.estimator.n_iterations * per_iter}


def _tag_attrs(args, kwargs, result) -> dict:
    return {"tag": result.learner_tag}


# (module, attribute or Class.method, span name, attribute extractor)
INSTRUMENTS = (
    ("autotab.pipeline", "dataset_from_raw_with_schema", "data.reparse", None),
    ("autotab.pipeline", "make_folds", "validation.make_folds", None),
    ("autotab.pipeline", "infer_feature_kind", "autotype.infer", None),
    ("autotab.pipeline", "apply_typing", "autotype.apply", None),
    ("autotab.pipeline", "select_category_encoding", "autotype.encoding", None),
    ("autotab.pipeline", "_run_selection", "selection.phase", None),
    ("autotab.pipeline", "permutation_importance", "selection.permutation", None),
    ("autotab.pipeline", "fit_linear", "learners.fit_linear", _tag_attrs),
    ("autotab.pipeline", "fit_gbm", "learners.fit_gbm", _tag_attrs),
    ("autotab.pipeline", "tune_gbm", "tuning.tune", None),
    ("autotab.pipeline", "build_stack_features", "ensemble.stack_features", None),
    ("autotab.pipeline", "blend_weights", "ensemble.blend", None),
    ("autotab.pipeline", "apply_blend", "ensemble.apply_blend", None),
    ("autotab.pipeline", "strip_dataset", "pipeline.strip_dataset", None),
    ("autotab.pipeline", "fit_booster", "gbm.fit_booster", _booster_attrs),
    ("autotab.learners", "fit_booster", "gbm.fit_booster", _booster_attrs),
    ("autotab.tuning", "fit_booster", "gbm.fit_booster", _booster_attrs),
    ("autotab.learners", "GBMView.fit", "learners.GBMView.fit", None),
    ("autotab.learners", "GBMView.train_matrix", "learners.GBMView.train_matrix", None),
    ("autotab.learners", "GBMView.transform", "learners.GBMView.transform", None),
    ("autotab.learners", "LinearView.fit", "learners.LinearView.fit", None),
    ("autotab.learners", "LinearView.train_matrix", "learners.LinearView.train_matrix", None),
    ("autotab.learners", "LinearView.transform", "learners.LinearView.transform", None),
    ("autotab.learners", "fit_lambda_path", "linear.path", None),
    ("autotab.learners", "solve", "linear.solve", None),
    ("autotab.linear", "solve", "linear.solve", None),
    ("autotab.gbm.boosting", "grow_leafwise", "gbm.grow_leaf", None),
    ("autotab.gbm.boosting", "grow_oblivious", "gbm.grow_sym", None),
    ("autotab.gbm.binning", "BinMapper.fit", "gbm.bin_fit", None),
    ("autotab.gbm.binning", "BinMapper.transform", "gbm.bin_transform", None),
    ("autotab.gbm.boosting", "GBMEstimator.predict", "gbm.predict", None),
    ("autotab.gbm.boosting", "evaluate", "metrics.evaluate", None),
    ("autotab.ensemble", "evaluate", "metrics.evaluate", None),
    ("autotab.learners", "evaluate", "metrics.evaluate", None),
    ("autotab.linear", "evaluate", "metrics.evaluate", None),
    ("autotab.selection", "evaluate", "metrics.evaluate", None),
    ("autotab.tuning", "evaluate", "metrics.evaluate", None),
    ("autotab.pipeline", "evaluate", "metrics.evaluate", None),
)


VIEW_SPANS = tuple(name for _, _, name, _ in INSTRUMENTS if "View." in name)


class Tracer:
    """Records spans (name, start, end, parent) while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, extract) -> None:
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if extract is not None:
                    s.attrs.update(extract(args, kwargs, result))
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for module_name, path, name, extract in INSTRUMENTS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            self._wrap(owner, attr, name, extract)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []


class SpanIndex:
    """Queries over one operation's spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        child_seconds = [0.0] * len(spans)
        self.ancestors: list[frozenset] = []
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):  # parents precede their children
            if s.parent >= 0:
                child_seconds[s.parent] += s.seconds
                up = self.ancestors[s.parent] | {spans[s.parent].name}
            else:
                up = frozenset()
            self.ancestors.append(up)
            self.by_name.setdefault(s.name, []).append(i)
        self.self_seconds = [s.seconds - c for s, c in zip(spans, child_seconds)]

    def select(self, name: str, within: str | None = None, pred=None) -> list[int]:
        return [i for i in self.by_name.get(name, [])
                if (within is None or within in self.ancestors[i])
                and (pred is None or pred(self.spans[i]))]

    def count(self, name: str, within: str | None = None, pred=None) -> int:
        return len(self.select(name, within, pred))

    def seconds(self, name: str, within: str | None = None, pred=None) -> float:
        return sum(self.spans[i].seconds for i in self.select(name, within, pred))

    def self_time(self, name: str) -> float:
        return sum(self.self_seconds[i] for i in self.select(name))

    def median_seconds(self, name: str, within: str | None = None) -> float:
        secs = [self.spans[i].seconds for i in self.select(name, within)]
        return statistics.median(secs) if secs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], report: dict, cells: int, artifact_bytes: int) -> dict:
    """Per-layer numbers of one traced operation, by module."""
    ix = SpanIndex(spans)
    fit = "op.fit"
    predict = "op.predict"
    stack = lambda s: s.attrs.get("tag", "").startswith("stack")
    leaf = lambda s: s.attrs.get("flavor") == "leaf_wise"
    sym = lambda s: s.attrs.get("flavor") == "symmetric_depth_wise"
    build_s = ix.seconds("data.build_dataset", fit)
    trees_leaf = ix.count("gbm.grow_leaf", fit)
    trees_sym = ix.count("gbm.grow_sym", fit)
    kept = sum(ix.spans[i].attrs["kept"] for i in ix.select("gbm.fit_booster", fit))
    fit_s = ix.seconds(fit)
    root_self = sum(ix.self_seconds[i] for i in ix.select("pipeline.fit_preset", fit))
    root_self += ix.self_time(fit)
    phases = report.get("phases", [])
    n_predict = max(1, ix.count(predict))  # predictions are timed several times

    def per_predict(name: str) -> float:
        return ix.seconds(name, predict) / n_predict

    return {
        "data.read_csv_s": ix.seconds("data.read_csv", fit),
        "data.build_dataset_s": build_s,
        "data.build_us_per_cell": 1e6 * _ratio(build_s, cells),
        "data.reparse_s": per_predict("data.reparse"),
        "autotype.infer_s": ix.seconds("autotype.infer", fit),
        "autotype.encoding_s": ix.seconds("autotype.encoding", fit),
        "learners.gbm_view_builds": ix.count("learners.GBMView.fit", fit),
        "learners.view_s": sum(ix.seconds(n, fit) + per_predict(n) for n in VIEW_SPANS),
        "selection.fit_s": ix.seconds("selection.phase", fit),
        "selection.permutation_s": ix.seconds("selection.permutation", fit),
        "linear.fit_s": ix.seconds("learners.fit_linear", fit, lambda s: not stack(s)),
        "linear.path_s": ix.seconds("linear.path", fit),
        "linear.path_calls": ix.count("linear.path", fit),
        "linear.solve_calls": ix.count("linear.solve", fit),
        "gbm.fit_booster_calls": ix.count("gbm.fit_booster", fit),
        "gbm.fit_booster_s": ix.seconds("gbm.fit_booster", fit),
        "gbm.bin_fits": ix.count("gbm.bin_fit", fit),
        "gbm.binning_s": ix.seconds("gbm.bin_fit", fit) + ix.seconds("gbm.bin_transform", fit),
        "gbm.boost_overhead_s": ix.self_time("gbm.fit_booster"),
        "gbm.trees_leaf": trees_leaf,
        "gbm.trees_sym": trees_sym,
        "gbm.leaf_trees_per_s": _ratio(trees_leaf, ix.seconds("gbm.fit_booster", fit, leaf)),
        "gbm.sym_trees_per_s": _ratio(trees_sym, ix.seconds("gbm.fit_booster", fit, sym)),
        "gbm.trees_kept_frac": _ratio(kept, trees_leaf + trees_sym),
        "gbm.predict_s": per_predict("gbm.predict"),
        "metrics.evaluate_calls": ix.count("metrics.evaluate", fit),
        "metrics.evaluate_s": ix.seconds("metrics.evaluate", fit),
        "tuning.trials": ix.count("gbm.fit_booster", "tuning.tune"),
        "tuning.s": ix.seconds("tuning.tune", fit),
        "tuning.trial_s_median": ix.median_seconds("gbm.fit_booster", "tuning.tune"),
        "ensemble.blend_s": ix.seconds("ensemble.blend", fit),
        "ensemble.blend_evals": ix.count("metrics.evaluate", "ensemble.blend"),
        "ensemble.stack_s": (ix.seconds("learners.fit_gbm", fit, stack)
                             + ix.seconds("learners.fit_linear", fit, stack)),
        "artifact.save_s": ix.seconds("artifact.save"),
        "artifact.load_s": per_predict("artifact.load"),
        "artifact.bytes": artifact_bytes,
        "pipeline.phases_truncated": sum(1 for p in phases if p.get("truncated")),
        "pipeline.phases_skipped": skipped_phases(report),
        "trace.coverage": 1.0 - _ratio(root_self, fit_s),
        "trace.spans": len(spans),
    }


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name.endswith("trees_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s") or name.endswith("_s_median"):
        return "s"
    return {"data.build_us_per_cell": "us/cell", "gbm.trees_kept_frac": "ratio",
            "trace.coverage": "ratio", "artifact.bytes": "bytes"}.get(name, "count")


def skipped_phases(report: dict) -> int:
    selection_skipped = "skipped" in report.get("selection", {})
    return len(report.get("skipped", [])) + int(selection_skipped)
