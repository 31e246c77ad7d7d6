"""L2-penalized linear models along a regularization path.

Each fold walks the strength grid from the most to the least regularized
point and stops the walk after two consecutive grid points fail to improve
the validation metric (the path has a single optimum in practice).

Regression minimises a squared loss, so one SVD of the centered training
matrix gives the exact ridge solution at every strength (`RidgePath`). The
binary and multiclass losses have no closed form: each grid point is an
L-BFGS solve warm-started from the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .budget import TimeBudget, unlimited
from .errors import ConfigError
from .gbm.losses import sigmoid, softmax
from .metrics import MetricSpec, evaluate
from .stopping import best_iteration

PATH_PATIENCE = 2


def default_lambda_grid() -> np.ndarray:
    return np.logspace(3, -5, 20)


@dataclass(frozen=True)
class LinearParams:
    """`max_iterations` and `tolerance` apply to the L-BFGS losses (binary
    and multiclass) only; the regression path is solved exactly."""

    lam_grid: tuple = field(default_factory=lambda: tuple(default_lambda_grid()))
    max_iterations: int = 500
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        grid = np.asarray(self.lam_grid)
        if np.any(grid < 0):
            raise ConfigError("regularization strengths must be nonnegative")
        if np.any(np.diff(grid) >= 0):
            raise ConfigError("lam_grid must be strictly decreasing")


@dataclass
class LinearEstimator:
    task_kind: str
    n_classes: int
    weights: np.ndarray  # (d,) or (d, C)
    intercept: np.ndarray  # () or (C,)
    lam: float

    def predict_raw_scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.intercept

    def predict(self, X: np.ndarray) -> np.ndarray:
        raw = self.predict_raw_scores(X)
        if self.task_kind == "binary":
            return sigmoid(raw)
        if self.task_kind == "multiclass":
            return softmax(raw)
        return raw


def _binary_objective(x, X, y, lam):
    w, b = x[:-1], x[-1]
    z = X @ w + b
    p = sigmoid(z)
    n = X.shape[0]
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * lam * float(w @ w)
    grad_w = X.T @ (p - y) / n + lam * w
    grad_b = float(np.mean(p - y))
    return loss, np.concatenate([grad_w, [grad_b]])


def _multiclass_objective(x, X, y, lam, n_classes):
    d = X.shape[1]
    W = x[: d * n_classes].reshape(d, n_classes)
    b = x[d * n_classes:]
    z = X @ W + b
    p = softmax(z)
    n = X.shape[0]
    idx = np.arange(n)
    zmax = z.max(axis=1)
    logsum = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    loss = float(np.mean(logsum - z[idx, y])) + 0.5 * lam * float((W * W).sum())
    G = p.copy()
    G[idx, y] -= 1.0
    grad_W = X.T @ G / n + lam * W
    grad_b = G.mean(axis=0)
    return loss, np.concatenate([grad_W.ravel(), grad_b])


class RidgePath:
    """Exact minimisers of 0.5*mean((X w + b - y)^2) + 0.5*lam*|w|^2.

    Centering X and y leaves the intercept unpenalised: b = mean(y) -
    mean(X) @ w. With the thin SVD Xc = U diag(s) V^T, every strength costs
    O(d^2): w = V diag(s / (s^2 + n*lam)) U^T yc. Singular values at or below
    a cutoff are dropped, so a rank-deficient matrix (collinear or
    constant columns, fewer rows than columns) gives the finite minimum-norm
    solution, also at lam = 0.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray) -> None:
        n, d = X.shape
        self.n = n
        self.x_mean = X.mean(axis=0)
        self.y_mean = float(y.mean())
        U, s, Vt = np.linalg.svd(X - self.x_mean, full_matrices=False)
        # lstsq's relative cutoff, taken against the uncentered X: centering
        # a constant column leaves rounding noise of that size
        keep = s > max(n, d) * np.finfo(np.float64).eps * np.linalg.norm(X)
        self.s, self.Vt = s[keep], Vt[keep]
        self.uty = U[:, keep].T @ (y - self.y_mean)

    def solve(self, lam: float) -> np.ndarray:
        """Packed solution (w, b) at strength `lam`."""
        w = self.Vt.T @ (self.s / (self.s ** 2 + self.n * lam) * self.uty)
        return np.append(w, self.y_mean - float(self.x_mean @ w))


def solve(X: np.ndarray, y: np.ndarray, lam: float, task_kind: str,
          n_classes: int = 0, x0: np.ndarray | None = None,
          max_iterations: int = 500, tolerance: float = 1e-8,
          trace: list | None = None) -> np.ndarray:
    """One solve at fixed regularization. Returns the packed solution.

    Regression is solved exactly by `RidgePath`; the other losses use L-BFGS,
    started from `x0` and stopped by `max_iterations` and `tolerance`. Pass
    `trace` to record the objective after every L-BFGS iteration.
    """
    if task_kind == "regression":
        return RidgePath(X, y).solve(lam)
    d = X.shape[1]
    if task_kind == "multiclass":
        fun = lambda x: _multiclass_objective(x, X, y, lam, n_classes)
        size = d * n_classes + n_classes
    else:
        fun = lambda x: _binary_objective(x, X, y, lam)
        size = d + 1
    if x0 is None:
        x0 = np.zeros(size)
    callback = None
    if trace is not None:
        callback = lambda xk: trace.append(fun(xk)[0])
    res = minimize(fun, x0, jac=True, method="L-BFGS-B", callback=callback,
                   options={"maxiter": max_iterations, "gtol": tolerance,
                            "ftol": 1e-15})
    return res.x


def unpack(x: np.ndarray, d: int, task_kind: str, n_classes: int,
           lam: float) -> LinearEstimator:
    if task_kind == "multiclass":
        W = x[: d * n_classes].reshape(d, n_classes)
        b = x[d * n_classes:]
        return LinearEstimator(task_kind, n_classes, W, b, lam)
    return LinearEstimator(task_kind, n_classes, x[:-1], np.float64(x[-1]), lam)


def fit_lambda_path(X: np.ndarray, y: np.ndarray, X_val: np.ndarray,
                    y_val: np.ndarray, task_kind: str, n_classes: int,
                    metric: MetricSpec, params: LinearParams,
                    budget: TimeBudget | None = None
                    ) -> tuple[LinearEstimator, float, list[float]]:
    """Walk the strength grid with early stopping.

    Regression factors X once and solves every grid point exactly; the other
    losses warm-start each L-BFGS solve from the previous grid point.
    Returns the best estimator, its validation score, and the score history.
    Guarantees at least one grid point is solved even on an expired budget.
    """
    budget = budget or unlimited()
    d = X.shape[1]
    ridge = RidgePath(X, y) if task_kind == "regression" else None
    history: list[float] = []
    solutions: list[np.ndarray] = []
    lams: list[float] = []
    worse_streak = 0
    for i, lam in enumerate(params.lam_grid):
        if i > 0 and budget.expired():
            break
        if ridge is not None:
            x = ridge.solve(float(lam))
        else:
            x = solve(X, y, float(lam), task_kind, n_classes,
                      x0=solutions[-1] if solutions else None,
                      max_iterations=params.max_iterations, tolerance=params.tolerance)
        est = unpack(x, d, task_kind, n_classes, float(lam))
        history.append(evaluate(metric, y_val, est.predict(X_val)))
        solutions.append(x)
        lams.append(float(lam))
        # a tie is not a worsening: scale-invariant metrics plateau across
        # the strongly regularized head of the grid
        if history[-1] < max(history):
            worse_streak += 1
            if worse_streak >= PATH_PATIENCE:
                break
        else:
            worse_streak = 0
    best = best_iteration(history)
    return (unpack(solutions[best], d, task_kind, n_classes, lams[best]),
            history[best], history)
