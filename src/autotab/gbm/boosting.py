"""Newton boosting over histogram trees, with early stopping and budgets."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..budget import TimeBudget, unlimited
from ..errors import ConfigError, DataError
from ..metrics import MetricSpec, RocAuc, evaluate
from ..stopping import PATIENCE, improves
from .binning import BinMapper
from .losses import make_loss
from .trees import ObliviousTree, Tree, TreeKernel, grow_leafwise, grow_oblivious

FLAVORS = ("leaf_wise", "symmetric_depth_wise")
_TREE_TYPES = {"Tree": Tree, "ObliviousTree": ObliviousTree}


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
class PackedTrees:
    """Trees of one type packed into one array per tree field.

    Field k of tree i is `fields[k][offsets[i, k]:offsets[i + 1, k]]`; indexing
    returns a tree whose arrays are views into `fields`. A booster so stores
    a few arrays however many trees it has.
    """

    kind: str  # tree type name, a key of _TREE_TYPES
    fields: list  # one array per dataclass field of the tree type, in field order
    offsets: np.ndarray  # (n_trees + 1, n_fields) start of each tree's slice

    @classmethod
    def pack(cls, tree_type: type, trees: list) -> "PackedTrees":
        names = [f.name for f in dataclasses.fields(tree_type)]
        sizes = np.array([[len(getattr(t, name)) for name in names] for t in trees],
                         dtype=np.int64).reshape(len(trees), len(names))
        offsets = np.zeros((len(trees) + 1, len(names)), dtype=np.int64)
        np.cumsum(sizes, axis=0, out=offsets[1:])
        fields = [np.concatenate([getattr(t, name) for t in trees]) if trees else np.empty(0)
                  for name in names]
        return cls(tree_type.__name__, fields, offsets)

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __getitem__(self, i: int):
        lo, hi = self.offsets[i].tolist(), self.offsets[i + 1].tolist()
        return _TREE_TYPES[self.kind](*(a[s:e] for a, s, e in zip(self.fields, lo, hi)))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass
class GBMEstimator:
    """Fitted booster: base score plus its trees, packed in boosting order
    (for multiclass, each iteration's trees in class order)."""

    task_kind: str
    n_classes: int
    base_score: np.ndarray  # shape () for single output, (C,) for multiclass
    forest: PackedTrees
    params: GBMParams
    feature_gain_: np.ndarray = field(default=None)

    def predict_raw_scores(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        X = np.asfortranarray(X)  # each tree reads one column at a time
        if self.task_kind == "multiclass":
            raw = np.tile(self.base_score, (n, 1))
            for i, tree in enumerate(self.forest):
                raw[:, i % self.n_classes] += tree.predict_raw(X)
            return raw
        raw = np.full(n, float(self.base_score))
        for tree in self.forest:
            raw += tree.predict_raw(X)
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


def _grow(kern: TreeKernel, g: np.ndarray, h: np.ndarray, params: GBMParams):
    if params.flavor == "leaf_wise":
        return grow_leafwise(kern, g, h, params.max_leaves, params.min_data_in_leaf,
                             params.l2_leaf_reg, params.learning_rate)
    return grow_oblivious(kern, g, h, params.max_depth, params.min_data_in_leaf,
                          params.l2_leaf_reg, params.learning_rate)


def fit_booster(X: np.ndarray, y: np.ndarray, params: GBMParams, task_kind: str,
                n_classes: int = 0, X_val: np.ndarray | None = None,
                y_val: np.ndarray | None = None, metric: MetricSpec | None = None,
                budget: TimeBudget | None = None, seed: int = 0,
                patience: int = PATIENCE, mapper: BinMapper | None = None) -> FitResult:
    """Train one booster with optional early stopping on a validation set.

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
    once, here: one `TreeKernel` checks the codes and the validation rows,
    binds the raw scores and targets and holds the kernel's buffers, and a
    binary ROC AUC metric is prepared once (`metrics.RocAuc`). Each tree
    carries the rows left out of its subsample and all validation rows as
    passengers, so every row's score takes the new tree's leaf value
    straight from the grower. One loss transform per iteration, over all
    rows, gives this iteration's validation score and the next one's
    gradients. The best iteration is followed as scores arrive
    (`stopping.improves`), and the validation raw scores are kept as they
    stand at it: they are the `val_raw` of the result, which callers take as
    their out-of-fold predictions in place of routing X_val through the
    trees again. Raw thresholds are looked up for the kept trees only.

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
    budget = budget or unlimited()
    loss = make_loss(task_kind, n_classes)
    n, f = X.shape
    if mapper is None:
        mapper = BinMapper().fit(X)
        X, X_val = mapper.transform(X), X_val if X_val is None else mapper.transform(X_val)
    codes = np.asfortranarray(X if X_val is None else np.concatenate([X, X_val]))
    n_all = codes.shape[0]
    kern = TreeKernel(codes, n, np.arange(n, n_all))

    y_fit = y.astype(np.float64) if task_kind != "multiclass" else y
    base = loss.init_score(y_fit)
    raw_all = np.tile(base, (n_all, 1)) if task_kind == "multiclass" else np.full(n_all, base)
    kern.bind_scores(raw_all, y_fit if task_kind != "multiclass"
                     else y.astype(np.int64).astype(np.float64), loss.kernel_loss)

    rng = np.random.default_rng(seed)
    n_rows = max(1, int(round(params.subsample * n))) if params.subsample < 1.0 else None
    n_feats = max(1, int(np.ceil(params.colsample * f))) if params.colsample < 1.0 else None
    outputs = n_classes if task_kind == "multiclass" else 1
    validating = X_val is not None and metric is not None
    auc = RocAuc(y_val) if validating and metric.name == "roc_auc" else None
    trees: list = []  # in boosting order, each iteration's classes in order
    eval_history: list[float] = []
    best, best_score, best_raw = -1, -np.inf, None
    truncated = False

    p_all = loss.transform(raw_all)
    for it in range(params.n_estimators_cap):
        if budget.expired():
            truncated = True
            break
        kern.draw(rng, n_rows, n_feats)
        for c in range(outputs):
            kern.gradients(p_all, c)
            tree, _, _ = _grow(kern, kern.g, kern.h, params)
            kern.add_tree(c)
            trees.append(tree)

        p_all = loss.transform(raw_all)
        if validating:
            score = auc(p_all[n:]) if auc is not None else evaluate(metric, y_val, p_all[n:])
            eval_history.append(score)
            if it == 0 or improves(score, best_score):
                best, best_score, best_raw = it, score, raw_all[n:].copy()
            if it - best >= patience:
                break

    if eval_history:
        trees = trees[: (best + 1) * outputs]
        eval_history = eval_history[: best + 1]
        val_raw = best_raw
    else:
        best = len(trees) // outputs - 1
        val_raw = None if X_val is None else raw_all[n:]
    feature_gain = np.zeros(f)  # over the kept trees only
    for tree in trees:
        tree.set_raw_thresholds(mapper)
        feature_gain += tree.feature_gain

    tree_type = Tree if params.flavor == "leaf_wise" else ObliviousTree
    est = GBMEstimator(task_kind, n_classes, np.asarray(base),
                       PackedTrees.pack(tree_type, trees), params, feature_gain_=feature_gain)
    return FitResult(est, eval_history, best, truncated, val_raw)
