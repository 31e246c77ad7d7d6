"""Hyperparameter selection: the expert lookup table and a TPE fine-tuner.

The expert table maps dataset size to a reasonable starting configuration;
suboptimal choices are compensated by early stopping. The TPE loop seeds its
first trial with the expert configuration, so the tuned model can never score
below the expert one on the tuning split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .budget import TimeBudget, unlimited
from .data import Task
from .errors import ConfigError
from .gbm import GBMParams, fit_booster
from .learners import GBMFolds
from .metrics import evaluate

TPE_GAMMA = 0.15
TPE_N_STARTUP = 10
TPE_N_CANDIDATES = 24
TPE_BANDWIDTH_FLOOR = 0.01  # fraction of each dimension's range
MAX_TRIALS = 64


@dataclass(frozen=True)
class ParamDomain:
    name: str
    low: float
    high: float
    log: bool = False
    integer: bool = False

    def __post_init__(self) -> None:
        if not np.isfinite(self.low) or not np.isfinite(self.high) or self.low >= self.high:
            raise ConfigError(f"bad bounds for {self.name}: [{self.low}, {self.high}]")

    def to_unit(self, x: float) -> float:
        if self.log:
            return (np.log(x) - np.log(self.low)) / (np.log(self.high) - np.log(self.low))
        return (x - self.low) / (self.high - self.low)

    def from_unit(self, z: float) -> float:
        z = float(np.clip(z, 0.0, 1.0))
        if self.log:
            x = np.exp(np.log(self.low) + z * (np.log(self.high) - np.log(self.low)))
        else:
            x = self.low + z * (self.high - self.low)
        if self.integer:
            x = np.rint(x)
        return float(np.clip(x, self.low, self.high))


@dataclass(frozen=True)
class SearchSpace:
    dims: tuple[ParamDomain, ...]

    @classmethod
    def for_flavor(cls, flavor: str) -> "SearchSpace":
        size = (ParamDomain("max_leaves", 16, 255, integer=True)
                if flavor == "leaf_wise"
                else ParamDomain("max_depth", 3, 8, integer=True))
        return cls((
            ParamDomain("learning_rate", 0.01, 0.25, log=True),
            size,
            ParamDomain("subsample", 0.5, 1.0),
            ParamDomain("colsample", 0.5, 1.0),
            ParamDomain("min_data_in_leaf", 1, 256, log=True, integer=True),
            ParamDomain("l2_leaf_reg", 1e-3, 10.0, log=True),
        ))


@dataclass
class TrialHistory:
    seed: int
    params: list[dict] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.scores)

    def append(self, params: dict, score: float, seconds: float) -> None:
        if not np.isfinite(score):
            raise ConfigError("trial scores must be finite")
        self.params.append(dict(params))
        self.scores.append(float(score))
        self.seconds.append(float(seconds))

    def best_index(self) -> int:
        return int(np.argmax(np.asarray(self.scores)))

    def to_json(self) -> list[dict]:
        return [{"params": p, "score": s, "seconds": t}
                for p, s, t in zip(self.params, self.scores, self.seconds)]


def expert_params(task: Task, n_rows: int, flavor: str) -> GBMParams:
    """Size-tiered defaults: capacity grows with data, compensated by early
    stopping."""
    if n_rows < 20_000:
        lr, leaves, depth = 0.1, 32, 5
    elif n_rows < 200_000:
        lr, leaves, depth = 0.05, 64, 6
    else:
        lr, leaves, depth = 0.025, 128, 7
    return GBMParams(
        learning_rate=lr, max_leaves=leaves, max_depth=depth,
        subsample=0.9, colsample=0.9,
        min_data_in_leaf=max(2, n_rows // 10_000),
        l2_leaf_reg=1.0, flavor=flavor)


def _kde_log_density(z: np.ndarray, centers: np.ndarray, bw: float) -> np.ndarray:
    d = (z[:, None] - centers[None, :]) / bw
    log_k = -0.5 * d * d - np.log(bw) - 0.5 * np.log(2 * np.pi)
    m = log_k.max(axis=1)
    return m + np.log(np.exp(log_k - m[:, None]).mean(axis=1))


def _bandwidth(centers: np.ndarray) -> float:
    if centers.shape[0] < 2:
        return max(TPE_BANDWIDTH_FLOOR, 1.0)
    scott = 1.06 * float(centers.std()) * centers.shape[0] ** (-0.2)
    return max(scott, TPE_BANDWIDTH_FLOOR)


def tpe_suggest(history: TrialHistory, space: SearchSpace,
                rng: np.random.Generator | None = None) -> dict:
    """Propose one candidate.

    Below the startup threshold the draw is uniform. Afterwards the history
    splits at the gamma-quantile of scores into good and bad sets; per
    dimension we fit Gaussian KDEs over both, draw candidates from the good
    density, and return the candidate maximizing the good/bad density ratio.
    """
    if rng is None:
        rng = np.random.default_rng(history.seed + len(history))
    if len(history) < TPE_N_STARTUP:
        return {d.name: d.from_unit(rng.random()) for d in space.dims}

    scores = np.asarray(history.scores)
    n_good = max(1, int(np.ceil(TPE_GAMMA * len(scores))))
    order = np.argsort(-scores, kind="stable")
    good_idx = order[:n_good]
    bad_idx = order[n_good:]

    unit = np.array([[d.to_unit(p[d.name]) for d in space.dims]
                     for p in history.params])
    cand_unit = np.empty((TPE_N_CANDIDATES, len(space.dims)))
    log_ratio = np.zeros(TPE_N_CANDIDATES)
    for j, dim in enumerate(space.dims):
        good = unit[good_idx, j]
        bad = unit[bad_idx, j]
        bw_good = _bandwidth(good)
        bw_bad = _bandwidth(bad)
        centers = good[rng.integers(0, good.shape[0], size=TPE_N_CANDIDATES)]
        draws = np.clip(centers + rng.normal(0.0, bw_good, size=TPE_N_CANDIDATES), 0.0, 1.0)
        cand_unit[:, j] = draws
        log_ratio += _kde_log_density(draws, good, bw_good)
        log_ratio -= _kde_log_density(draws, bad, bw_bad) if bad.size else 0.0
    best = int(np.argmax(log_ratio))
    return {d.name: d.from_unit(cand_unit[best, j])
            for j, d in enumerate(space.dims)}


def _params_from_dict(d: dict, space: SearchSpace, base: GBMParams) -> GBMParams:
    return replace(base, **{p.name: int(d[p.name]) if p.integer else d[p.name]
                            for p in space.dims})


def _dict_from_params(p: GBMParams, space: SearchSpace) -> dict:
    # clip the expert seed trial into the search box so KDEs stay in range
    return {d.name: float(np.clip(getattr(p, d.name), d.low, d.high)) for d in space.dims}


def tune_gbm(data: GBMFolds, flavor: str, tune_budget: TimeBudget | None = None,
             seed: int = 0, selected: list[str] | None = None,
             max_trials: int = MAX_TRIALS,
             patience: int = 100) -> tuple[GBMParams, TrialHistory]:
    """TPE loop over a single tuning split (first fold as validation) of the
    `selected` features of `data`.

    Trial 0 evaluates the expert configuration. The loop stops when the
    budget cannot cover another trial (estimated by the last trial's
    duration) or at `max_trials`. Returns the best parameters by validation
    score, ties to the earliest trial.
    """
    tune_budget = tune_budget or unlimited()
    task, y = data.dataset.task, data.dataset.target
    space = SearchSpace.for_flavor(flavor)
    expert = expert_params(task, data.dataset.n_rows, flavor)
    history = TrialHistory(seed=seed)
    if tune_budget.expired():
        return expert, history

    cols = data.columns(selected)
    _, va = data.splits[0]

    def run_trial(params: GBMParams) -> float:
        res = fit_booster(params=params, budget=tune_budget, seed=seed, patience=patience,
                          **data.inputs(0, cols))
        if res.eval_history:
            return res.eval_history[res.best_iteration]
        return evaluate(task.metric, y[va], res.estimator.transform(res.val_raw))

    candidates = [_dict_from_params(expert, space)]
    last_duration = 0.0
    while len(history) < max_trials:
        if len(history) > 0 and tune_budget.remaining() < max(last_duration, 1e-3):
            break
        if candidates:
            cand = candidates.pop(0)
        else:
            cand = tpe_suggest(history, space)
        params = _params_from_dict(cand, space, expert)
        t0 = time.monotonic()
        score = run_trial(params)
        last_duration = time.monotonic() - t0
        history.append(cand, score, last_duration)
        if tune_budget.expired():
            break

    if len(history) == 0:
        return expert, history
    best = history.best_index()
    return _params_from_dict(history.params[best], space, expert), history
