"""Early stopping over per-iteration validation scores."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Iterations a GBM grows past its best validation score before it stops:
# the default of every booster, GBM phase and tuning trial.
PATIENCE = 100


def best_iteration(eval_history) -> int:
    """Index of the best score; ties resolve to the earliest."""
    if not len(eval_history):
        raise ConfigError("eval history is empty")
    return int(np.argmax(np.asarray(eval_history, dtype=np.float64)))


def improves(score: float, best: float) -> bool:
    """Whether `score`, appended to a history whose best score is `best`,
    becomes its best_iteration: a larger score does, an equal one does not,
    and the first NaN does (argmax takes NaN for the maximum), after which
    nothing does. A booster so follows its best iteration score by score."""
    return score > best or (score != score and best == best)
