"""Early stopping over per-iteration validation scores."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def best_iteration(eval_history) -> int:
    """Index of the best score; ties resolve to the earliest."""
    if not len(eval_history):
        raise ConfigError("eval history is empty")
    return int(np.argmax(np.asarray(eval_history, dtype=np.float64)))
