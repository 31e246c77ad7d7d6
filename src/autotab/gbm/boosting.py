"""Newton boosting over histogram trees, with early stopping and budgets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..budget import TimeBudget, unlimited
from ..errors import ConfigError, DataError
from ..metrics import MetricSpec, RocAuc, evaluate
from ..stopping import PATIENCE, improves
from .binning import BinMapper
from .losses import make_loss
from .trees import PackedTrees, TreeKernel, grow_leafwise, grow_oblivious, route_forest

FLAVORS = ("leaf_wise", "symmetric_depth_wise")


@dataclass(frozen=True)
class GBMParams:
    learning_rate: float = 0.1
    max_leaves: int = 32
    max_depth: int = 5
    subsample: float = 1.0
    colsample: float = 1.0
    min_data_in_leaf: int = 2
    l2_leaf_reg: float = 1.0
    n_estimators_cap: int = 2000
    flavor: str = "leaf_wise"

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning_rate must lie in (0, 1]")
        if not 0.0 < self.subsample <= 1.0 or not 0.0 < self.colsample <= 1.0:
            raise ConfigError("subsample and colsample must lie in (0, 1]")
        if self.max_leaves < 1 or self.max_depth < 1 or self.n_estimators_cap < 1:
            raise ConfigError("size caps must be at least 1")
        if self.min_data_in_leaf < 1:
            raise ConfigError("min_data_in_leaf must be at least 1")
        if not self.l2_leaf_reg > 0:  # a leaf with zero hessian sum would divide by 0
            raise ConfigError("l2_leaf_reg must be positive")
        if self.flavor not in FLAVORS:
            raise ConfigError(f"unknown flavor {self.flavor!r}")


@dataclass
class GBMEstimator:
    """Fitted booster: base score plus its trees, packed in boosting order
    (for multiclass, each iteration's trees in class order)."""

    task_kind: str
    n_classes: int
    base_score: np.ndarray  # shape () for single output, (C,) for multiclass
    forest: PackedTrees
    params: GBMParams

    def predict_raw_scores(self, X: np.ndarray) -> np.ndarray:
        """The base score plus every tree's leaf value, added tree by tree in
        boosting order (tree i into class i % n_classes for multiclass).

        `trees.route_forest` checks the forest and routes it, in the
        compiled kernel wherever `native.optional_kernel()` can load it and
        in numpy where it cannot: the same scores, bit for bit, and the same
        DataError for a damaged forest on every host.
        """
        from .native import optional_kernel

        n = X.shape[0]
        X = np.asfortranarray(X, dtype=np.float64)  # each tree reads one column at a time
        raw = (np.tile(self.base_score, (n, 1)) if self.task_kind == "multiclass"
               else np.full(n, float(self.base_score)))
        route_forest(optional_kernel(), self.forest, X, raw)
        return raw

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.transform(self.predict_raw_scores(X))

    def transform(self, raw: np.ndarray) -> np.ndarray:
        """Predictions from raw scores: probabilities for classifiers."""
        return make_loss(self.task_kind, self.n_classes).transform(raw)

    @property
    def n_iterations(self) -> int:
        return len(self.forest) // (self.n_classes if self.task_kind == "multiclass" else 1)


@dataclass
class FitResult:
    estimator: GBMEstimator
    eval_history: list[float]
    best_iteration: int
    truncated: bool
    # raw scores of the X_val rows under the kept trees (None without X_val):
    # predict_raw_scores(X_val) bit for bit, from the booster's own sums
    val_raw: np.ndarray | None = None


def _grow(kern: TreeKernel, params: GBMParams):
    if params.flavor == "leaf_wise":
        return grow_leafwise(kern, params.max_leaves, params.min_data_in_leaf,
                             params.l2_leaf_reg, params.learning_rate)
    return grow_oblivious(kern, params.max_depth, params.min_data_in_leaf,
                          params.l2_leaf_reg, params.learning_rate)


def fit_booster(X: np.ndarray, y: np.ndarray, params: GBMParams, task_kind: str,
                n_classes: int = 0, X_val: np.ndarray | None = None,
                y_val: np.ndarray | None = None, metric: MetricSpec | None = None,
                budget: TimeBudget | None = None, seed: int = 0,
                patience: int = PATIENCE, mapper: BinMapper | None = None) -> FitResult:
    """Train one booster with optional early stopping on a validation set.

    Binary targets are 0 or 1 and multiclass targets class numbers below
    `n_classes`: any other label raises DataError, as predicting maps tree i
    to class i % n_classes.

    With `mapper`, `X` and `X_val` are pre-binned: uint8 codes that `mapper`
    gave, as `learners.GBMFolds` hands them out after binning each fold once
    for a whole run. Without it they are raw floats, and binning happens
    here: a mapper is fitted on `X` and maps both.

    The budget is checked between iterations; on expiry the model truncates at
    the last completed iteration and is flagged. Each tree grows in one call
    into the compiled kernel of trees.py, so the first call in a process
    builds it with the system C compiler `cc` (see native.py). The kernel
    runs on one thread and adds in the fixed float order that trees.py
    states, so results do not depend on worker count: `learners.fit_gbm`
    trains folds on concurrent threads, and tests/test_fold_workers.py checks
    that its models are bit-identical at 1, 2 and 3 workers. The kernel's
    buffers are per booster and per call, so memory grows with the number
    of boosters training at once; a leaf-wise tree holds one (3, features,
    256) histogram slot per leaf.

    The validation codes are stacked under the training codes, and the raw
    scores of both live in one array. Everything a tree would repeat is done
    once, here: one `TreeKernel` checks the codes, allocates the raw scores
    at the base score, binds the float64 targets and holds the kernel's
    buffers, and a binary ROC AUC metric is prepared once
    (`metrics.RocAuc`). Each tree carries the rows left out of its
    subsample and all validation rows (the code rows below the training
    rows) as passengers, so every row's score takes the new tree's leaf
    value straight from the grower. One loss transform per iteration, over all
    rows, gives this iteration's validation score and the next one's
    gradients. The best iteration is followed as scores arrive
    (`stopping.improves`), and the validation raw scores are kept as they
    stand at it: they are the `val_raw` of the result, which callers take as
    their out-of-fold predictions in place of routing X_val through the
    trees again. The raw thresholds are looked up once per forest, for the
    kept trees only, as `PackedTrees.pack` packs them.

    An iteration holds the GIL only for the generator's draws, the loss
    transform (numpy's exp: a C one would round some values differently),
    a validation metric other than ROC AUC, the tree objects and the
    stopping bookkeeping. The rest is exact arithmetic or index bookkeeping
    in the kernel: the sample's row and feature layout, each output's
    gradients and hessians, the score update and the AUC's rank sum take
    microseconds each and keep the GIL, so a call hands it to no other
    thread; the growers take the rest of the iteration and release it, so
    boosters on other threads run meanwhile.
    """
    if X.shape[1] == 0:
        raise DataError("no usable features")
    y_fit = y.astype(np.float64)
    if task_kind in ("binary", "multiclass"):
        labels = 2 if task_kind == "binary" else n_classes
        if not np.isin(y_fit, np.arange(labels)).all():
            raise DataError(f"{task_kind} targets must be class numbers 0..{labels - 1}")
    budget = budget or unlimited()
    loss = make_loss(task_kind, n_classes)
    n, f = X.shape
    if mapper is None:
        mapper = BinMapper().fit(X)
        X, X_val = mapper.transform(X), X_val if X_val is None else mapper.transform(X_val)
    kern = TreeKernel(np.asfortranarray(X if X_val is None else np.concatenate([X, X_val])), n)
    base = loss.init_score(y_fit)
    kern.bind_scores(base, y_fit, loss.kernel_loss)

    rng = np.random.default_rng(seed)
    n_rows = max(1, int(round(params.subsample * n))) if params.subsample < 1.0 else None
    n_feats = max(1, int(np.ceil(params.colsample * f))) if params.colsample < 1.0 else None
    outputs = kern.outputs
    validating = X_val is not None and metric is not None
    auc = RocAuc(y_val) if validating and metric.name == "roc_auc" else None
    trees: list = []  # in boosting order, each iteration's classes in order
    eval_history: list[float] = []
    best, best_score, best_raw = -1, -np.inf, None
    truncated = False

    p_all = loss.transform(kern.raw)
    for it in range(params.n_estimators_cap):
        if budget.expired():
            truncated = True
            break
        kern.draw(rng, n_rows, n_feats)
        for c in range(outputs):
            kern.gradients(p_all, c)
            tree, _, _ = _grow(kern, params)
            kern.add_tree(c)
            trees.append(tree)

        p_all = loss.transform(kern.raw)
        if validating:
            score = auc(p_all[n:]) if auc is not None else evaluate(metric, y_val, p_all[n:])
            eval_history.append(score)
            if it == 0 or improves(score, best_score):
                best, best_score, best_raw = it, score, kern.raw[n:].copy()
            if it - best >= patience:
                break

    if eval_history:
        trees = trees[: (best + 1) * outputs]
        eval_history = eval_history[: best + 1]
        val_raw = best_raw
    else:
        best = len(trees) // outputs - 1
        val_raw = None if X_val is None else kern.raw[n:]
    forest = PackedTrees.pack(trees, mapper)
    return FitResult(GBMEstimator(task_kind, n_classes, np.asarray(base), forest, params),
                     eval_history, best, truncated, val_raw)
