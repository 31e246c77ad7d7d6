"""L2-penalized linear models along a regularization path.

Each fold walks the strength grid from the most to the least regularized
point and stops the walk after two consecutive grid points fail to improve
the validation metric (the path has a single optimum in practice).

Regression minimises a squared loss, so one factorization of the centered
training matrix gives the exact ridge solution at every strength
(`RidgePath`). Rows that the same folds train on form a block, and each
block gets one Householder QR of [1 | X | y] per run (`RidgeBlock`); a
fold's factor is the QR of its blocks' stacked R factors (TSQR), followed
by an SVD of the d x d centered part, so the folds share one pass over the
rows (`fold_ridge_paths`). Singular values at or below
max(n, d) * eps * |X|_F are dropped, which gives the minimum-norm solution
of a rank-deficient matrix. The coefficients of every grid strength, and
the validation predictions at all of them, are one matrix product each.
The binary and multiclass losses have no closed form: each grid point is a
truncated Newton solve warm-started from the previous one, as in LIBLINEAR
(Lin, Weng & Keerthi, JMLR 2008). Each Newton step runs conjugate
gradients on H d = -g, scaled by the diagonal of H, with Hessian-vector
products (H is never formed), then halves the step along d until the
objective decreases enough (Armijo). The line search computes the change of
the objective directly, not as a difference of two values, so it still
sees the tiny gains of the last steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .budget import TimeBudget, unlimited
from .errors import ConfigError
from .gbm.losses import sigmoid, softmax
from .metrics import MetricSpec, evaluate
from .stopping import best_iteration
from .validation import FoldAssignment

PATH_PATIENCE = 2
RELATIVE_DECREASE = 1e-15  # a Newton step that gains less ends the solve
ARMIJO = 1e-4  # a step must gain this share of its first-order prediction
MAX_HALVINGS = 50  # of a Newton step in the line search
CG_STEPS_PER_UNKNOWN = 10  # caps the conjugate gradients of one Newton step


def default_lambda_grid() -> np.ndarray:
    return np.logspace(3, -5, 20)


@dataclass(frozen=True)
class LinearParams:
    """`max_iterations` (Newton steps) and `tolerance` (on the largest
    gradient entry) apply to the binary and multiclass losses only; the
    regression path is solved exactly."""

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


class _Loss:
    """mean(row loss of z) + 0.5*lam*|W|^2 of the packed x = (W.ravel(), b),
    where z = X W + b: W is (d,) and b is (1,) for the binary loss, W is
    (d, C) and b is (C,) for the multiclass loss.

    `gradient(x, z)` also fixes the point at which `hessp`, `diagonal` and
    `change` work. A subclass gives the row loss, its derivative in z, its
    curvature (Hessian products in z) and its accurate small changes.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, lam: float, shape: tuple) -> None:
        self.X, self.y, self.lam, self.shape = X, y, lam, shape
        self.X2 = X * X
        self.cut = int(np.prod(shape))
        self.size = self.cut + (shape[1] if len(shape) == 2 else 1)

    def _unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x[:self.cut].reshape(self.shape), x[self.cut:]

    def scores(self, x: np.ndarray) -> np.ndarray:
        W, b = self._unpack(x)
        return self.X @ W + b

    def value(self, x: np.ndarray, z: np.ndarray) -> float:
        W, _ = self._unpack(x)
        return float(np.mean(self._row_losses(z))) + 0.5 * self.lam * float((W * W).sum())

    def gradient(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        W, _ = self._unpack(x)
        self.z = z
        G = self._row_gradients(z)
        return np.append((self.X.T @ G / z.shape[0] + self.lam * W).ravel(), G.mean(axis=0))

    def hessp(self, v: np.ndarray) -> np.ndarray:
        V, _ = self._unpack(v)
        zv = self.scores(v)
        R = self._row_hessp(zv) / zv.shape[0]
        return np.append((self.X.T @ R + self.lam * V).ravel(), R.sum(axis=0))

    def diagonal(self) -> np.ndarray:
        """The Hessian's diagonal, floored where it is 0 (a zero column at
        lam = 0, saturated scores): it scales the conjugate gradients."""
        c = self.p * (1.0 - self.p) / self.z.shape[0]
        diag = np.append((self.X2.T @ c + self.lam).ravel(), c.sum(axis=0))
        return np.where(diag > 0.0, diag, 1.0)

    def precondition(self, r: np.ndarray, diag: np.ndarray) -> np.ndarray:
        return r / diag

    def change(self, x: np.ndarray, d: np.ndarray, dz: np.ndarray) -> float:
        """f(x + d) - f(x), where dz are the scores of d. Below a unit change
        of every score it is accurate relative to itself, not to f, so a
        line search sees gains far below the rounding of f."""
        W, _ = self._unpack(x)
        D, _ = self._unpack(d)
        if np.max(np.abs(dz)) <= 1.0:
            rows = self._small_change(dz)
        else:
            rows = self._row_losses(self.z + dz) - self._row_losses(self.z)
        return (float(np.mean(rows))
                + self.lam * (float((W * D).sum()) + 0.5 * float((D * D).sum())))


class _Logistic(_Loss):
    """Binary rows log(1 + e^z) - y z, with y in {0, 1}."""

    def __init__(self, X: np.ndarray, y: np.ndarray, lam: float) -> None:
        super().__init__(X, y, lam, (X.shape[1],))

    def _row_losses(self, z):
        return np.logaddexp(0.0, z) - self.y * z

    def _row_gradients(self, z):
        self.p = sigmoid(z)
        return self.p - self.y

    def _row_hessp(self, zv):
        return self.p * (1.0 - self.p) * zv

    def _small_change(self, dz):
        # log(1 + e^(z + dz)) - log(1 + e^z) = log1p(expm1(dz) * sigmoid(z))
        return np.log1p(np.expm1(dz) * self.p) - self.y * dz


class _Softmax(_Loss):
    """Multiclass rows logsumexp(z) - z[y], with y in 0..C-1.

    Adding one constant to every intercept changes nothing, so the Hessian
    is singular along that direction. Gradients and Hessian products have
    intercept parts that sum to 0, and `precondition` keeps that, so no
    step moves along it.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, lam: float, n_classes: int) -> None:
        super().__init__(X, y, lam, (X.shape[1], n_classes))
        self.rows = np.arange(X.shape[0])

    def _row_losses(self, z):
        zmax = z.max(axis=1)
        return zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1)) - z[self.rows, self.y]

    def _row_gradients(self, z):
        self.p = softmax(z)
        G = self.p.copy()
        G[self.rows, self.y] -= 1.0
        return G

    def _row_hessp(self, zv):
        return self.p * (zv - (self.p * zv).sum(axis=1, keepdims=True))

    def _small_change(self, dz):
        # logsumexp(z + dz) - logsumexp(z) = log1p(sum(softmax(z) * expm1(dz)))
        return np.log1p((self.p * np.expm1(dz)).sum(axis=1)) - dz[self.rows, self.y]

    def precondition(self, r: np.ndarray, diag: np.ndarray) -> np.ndarray:
        s = r / diag
        s[self.cut:] -= s[self.cut:].mean()
        return s


def _conjugate_gradient(loss: _Loss, g: np.ndarray) -> np.ndarray:
    """An approximate solution d of H d = -g by conjugate gradients, scaled
    by the Hessian's diagonal.

    Stops once the residual is below min(0.5, |g|) * |g|, which keeps
    Newton's convergence quadratic, or at a direction of no curvature.
    Ill-conditioned systems (a weak penalty, nearly separable classes) need
    more than one iteration per unknown in floating point.
    """
    g_norm = float(np.sqrt(g @ g))
    stop = (min(0.5, g_norm) * g_norm) ** 2
    diag = loss.diagonal()
    d = np.zeros_like(g)
    r = -g
    s = loss.precondition(r, diag)
    p = s
    rs = float(r @ s)
    for _ in range(CG_STEPS_PER_UNKNOWN * g.shape[0]):
        hp = loss.hessp(p)
        curvature = float(p @ hp)
        if curvature <= 0.0:
            break
        alpha = rs / curvature
        d += alpha * p
        r = r - alpha * hp
        if float(r @ r) <= stop:
            break
        s = loss.precondition(r, diag)
        rs_next = float(r @ s)
        p = s + (rs_next / rs) * p
        rs = rs_next
    return d if d.any() else loss.precondition(-g, diag)


def _newton(loss: _Loss, x: np.ndarray, max_iterations: int, tolerance: float,
            trace: list | None) -> np.ndarray:
    z = loss.scores(x)
    f = loss.value(x, z)
    g = loss.gradient(x, z)
    for _ in range(max_iterations):
        if np.max(np.abs(g)) <= tolerance:
            break
        d = _conjugate_gradient(loss, g)
        slope = float(g @ d)
        if not slope < 0.0:
            break
        zd = loss.scores(d)  # scores are linear in x: no product per trial step
        t = 1.0
        for _ in range(MAX_HALVINGS):
            change = loss.change(x, t * d, t * zd)
            if change <= ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break  # no step along d decreases the objective
        x, z = x + t * d, z + t * zd
        f_prev, f = f, f + change
        g = loss.gradient(x, z)
        if trace is not None:
            trace.append(f)
        if -change <= RELATIVE_DECREASE * max(abs(f_prev), abs(f), 1.0):
            break
    return x


@dataclass(frozen=True)
class RidgeBlock:
    """What a ridge fit needs of one block of rows: the R factor of the
    Householder QR of [1 | X | y], the row count, the column sums of X, the
    sum of y and the squared Frobenius norm of X."""

    r: np.ndarray  # (min(n, d + 2), d + 2), upper triangular
    n: int
    x_sum: np.ndarray
    y_sum: float
    x_sq: float

    @classmethod
    def of(cls, X: np.ndarray, y: np.ndarray) -> "RidgeBlock":
        n, d = X.shape
        A = np.empty((n, d + 2))
        A[:, 0] = 1.0
        A[:, 1:-1] = X
        A[:, -1] = y
        return cls(np.linalg.qr(A, mode="r"), n, X.sum(axis=0), float(y.sum()),
                   float(np.einsum("ij,ij->", X, X)))


class RidgePath:
    """Exact minimisers of 0.5*mean((X w + b - y)^2) + 0.5*lam*|w|^2 over the
    rows of one or more `RidgeBlock`s.

    The R factor of stacked row blocks is the R factor of the QR of their
    stacked R factors (TSQR: Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci.
    Comput. 2012), so a fold's factor comes from the QR of at most
    blocks * (d + 2) rows, whatever the row count. Its leading ones column
    absorbs the unpenalised intercept, b = mean(y) - mean(X) @ w: below its
    first row, R's X columns [R_xx r_xy] are the R factor of the centered
    [Xc yc], without forming Xc. With the SVD R_xx = Ur diag(s) V^T, Xc has
    the singular values s and right vectors V, and U^T yc = Ur^T r_xy. Every
    strength then costs O(d^2): w = V diag(s / (s^2 + n*lam)) U^T yc.

    Singular values at or below max(n, d) * eps * |X|_F are dropped (lstsq's
    relative cutoff, taken against the uncentered X, whose norm comes from
    the blocks' norms: centering a constant column leaves rounding noise of
    that size). So a rank-deficient matrix (collinear or constant columns,
    fewer rows than columns) gives the finite minimum-norm solution, also at
    lam = 0. `RidgePath(X, y)` is the path of one block.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray) -> None:
        self._factor([RidgeBlock.of(X, y)])

    @classmethod
    def of_blocks(cls, blocks: list[RidgeBlock]) -> "RidgePath":
        path = cls.__new__(cls)
        path._factor(blocks)
        return path

    def _factor(self, blocks: list[RidgeBlock]) -> None:
        n = sum(block.n for block in blocks)
        d = blocks[0].x_sum.shape[0]
        self.n = n
        self.x_mean = sum(block.x_sum for block in blocks) / n
        self.y_mean = sum(block.y_sum for block in blocks) / n
        r = np.linalg.qr(np.vstack([block.r for block in blocks]), mode="r")
        Ur, s, Vt = np.linalg.svd(r[1:d + 1, 1:d + 1], full_matrices=False)
        norm = np.sqrt(sum(block.x_sq for block in blocks))
        keep = s > max(n, d) * np.finfo(np.float64).eps * norm
        self.s, self.Vt = s[keep], Vt[keep]
        self.uty = Ur[:, keep].T @ r[1:d + 1, d + 1]

    def coefficients(self, lams) -> tuple[np.ndarray, np.ndarray]:
        """Weights (d, J) and intercepts (J,) at the J strengths `lams`, in
        one product."""
        lams = np.asarray(lams, dtype=np.float64)
        s = self.s[:, None]
        W = self.Vt.T @ (s / (s ** 2 + self.n * lams) * self.uty[:, None])
        return W, self.y_mean - self.x_mean @ W

    def solve(self, lam: float) -> np.ndarray:
        """Packed solution (w, b) at strength `lam`."""
        W, b = self.coefficients([lam])
        return np.append(W[:, 0], b[0])


def fold_ridge_paths(X: np.ndarray, y: np.ndarray, folds: FoldAssignment) -> list[RidgePath]:
    """The ridge path of each fold's training rows.

    Rows that the same set of folds trains on form a block: one per fold
    for k-fold schemes, plus one for the rows no fold validates for holdout,
    time-series and custom schemes. Each block that some fold trains on is
    factored once (`RidgeBlock.of`), and each fold's path combines the
    factors of its blocks.
    """
    block_of_row = np.zeros(folds.n_rows, dtype=np.int64)
    for f in range(folds.k):  # split every block by whether fold f trains on it
        _, block_of_row = np.unique(2 * block_of_row + folds.train_mask(f),
                                    return_inverse=True)
    rows_of_block = np.split(np.argsort(block_of_row, kind="stable"),
                             np.cumsum(np.bincount(block_of_row))[:-1])
    first_rows = np.array([rows[0] for rows in rows_of_block])
    factors: dict[int, RidgeBlock] = {}
    paths = []
    for f in range(folds.k):
        blocks = np.flatnonzero(folds.train_mask(f)[first_rows]).tolist()
        for b in blocks:
            if b not in factors:
                factors[b] = RidgeBlock.of(X[rows_of_block[b]], y[rows_of_block[b]])
        paths.append(RidgePath.of_blocks([factors[b] for b in blocks]))
    return paths


def solve(X: np.ndarray, y: np.ndarray, lam: float, task_kind: str,
          n_classes: int = 0, x0: np.ndarray | None = None,
          max_iterations: int = 500, tolerance: float = 1e-8,
          trace: list | None = None) -> np.ndarray:
    """One solve at fixed regularization. Returns the packed solution.

    Regression is solved exactly by `RidgePath`. The other losses take
    Newton steps from `x0` (zeros by default) until the largest gradient
    entry is at most `tolerance`, a step gains at most a relative 1e-15 of
    the objective, no step along the Newton direction decreases it, or
    `max_iterations` steps are done. Pass `trace` to record the objective
    after every step: it never increases.
    """
    if task_kind == "regression":
        return RidgePath(X, y).solve(lam)
    if task_kind == "multiclass":
        loss = _Softmax(X, y, lam, n_classes)
    else:
        loss = _Logistic(X, y, lam)
    x = np.zeros(loss.size) if x0 is None else np.asarray(x0, dtype=np.float64)
    return _newton(loss, x, max_iterations, tolerance, trace)


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
                    budget: TimeBudget | None = None,
                    ridge: RidgePath | None = None
                    ) -> tuple[LinearEstimator, float, list[float]]:
    """Walk the strength grid with early stopping.

    Regression takes `ridge`, the path of the training rows X, y (factored
    here when None), and predicts the validation rows at every grid point
    at once: the (d, J) coefficients and the (J, n_val) predictions are one
    product each. The walk then scores them point by point, and the returned
    estimator is `ridge.solve` at the best strength. The other losses
    warm-start each Newton solve from the previous grid point. Returns the
    best estimator, its validation score, and the score history. Guarantees
    at least one grid point is scored even on an expired budget.
    """
    budget = budget or unlimited()
    d = X.shape[1]
    grid = [float(lam) for lam in params.lam_grid]
    if task_kind == "regression":
        ridge = RidgePath(X, y) if ridge is None else ridge
        W, b = ridge.coefficients(grid)
        grid_predictions = W.T @ X_val.T + b[:, None]  # row i: at grid[i]
    history: list[float] = []
    solutions: list[np.ndarray] = []
    worse_streak = 0
    for i, lam in enumerate(grid):
        if i > 0 and budget.expired():
            break
        if task_kind == "regression":
            predictions = grid_predictions[i]
        else:
            solutions.append(solve(X, y, lam, task_kind, n_classes,
                                   x0=solutions[-1] if solutions else None,
                                   max_iterations=params.max_iterations,
                                   tolerance=params.tolerance))
            predictions = unpack(solutions[-1], d, task_kind, n_classes, lam).predict(X_val)
        history.append(evaluate(metric, y_val, predictions))
        # a tie is not a worsening: scale-invariant metrics plateau across
        # the strongly regularized head of the grid
        if history[-1] < max(history):
            worse_streak += 1
            if worse_streak >= PATH_PATIENCE:
                break
        else:
            worse_streak = 0
    best = best_iteration(history)
    x = ridge.solve(grid[best]) if task_kind == "regression" else solutions[best]
    return unpack(x, d, task_kind, n_classes, grid[best]), history[best], history
