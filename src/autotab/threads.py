"""The thread cap, LAMA_THREADS, parsed in one place.

It caps the BLAS and OpenMP pools (applied by `autotab/__init__.py` before
numpy loads, hence standard library only here) and the fold workers of
`learners.fit_gbm`, which read it each time they start.
"""

from __future__ import annotations

import os

from .errors import ConfigError

VARIABLE = "LAMA_THREADS"


def thread_cap() -> int | None:
    """LAMA_THREADS as a positive integer, None when it is unset or empty."""
    raw = os.environ.get(VARIABLE)
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"{VARIABLE} must be a positive integer, not {raw!r}")
    return cap


def worker_count() -> int:
    """The thread cap, or the number of CPUs this process may run on."""
    cap = thread_cap()
    if cap is not None:
        return cap
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
