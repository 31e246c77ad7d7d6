"""Calibrated timing: wall time rescaled by the machine's speed at the time.

On a shared machine the same work can take 40% longer from one second to
the next, while other tenants load the host. The probe is a fixed mix of
interpreter loops, small numpy kernels and text parsing, like the library's
own mix, that takes about 5 ms. While a `Stopwatch` runs, a timer signal
runs the probe every INTERVAL_S seconds in the main thread, and once more at
each end. The probe's own time is left out of the stopwatch, and

    calibrated seconds = wall seconds * mean(PROBE_REF_S / probe seconds)

is the time the work would take at the probe's reference speed. A slower
program still reads slower; a busier machine reads slower by much less.
Standard library and numpy only; it imports nothing from autotab.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# The probe's time in calm stretches (its 10th percentile over 40 s) on the
# 2-core Xeon (Sapphire Rapids class, numpy 2.4.6) the workloads were sized
# on; busy stretches took about 6.5 ms.
PROBE_REF_S = 0.0045
INTERVAL_S = 0.25

_A = np.arange(150 * 150, dtype=np.float64).reshape(150, 150) / 1e4
_V = np.sin(np.arange(40_000, dtype=np.float64))
_BINS = (np.arange(40_000) * 7919) % 256
_CSV = ",".join(f"{i * 0.37:.6g}" for i in range(3_000))


def probe() -> float:
    """Wall seconds for the fixed probe work: about equal parts interpreter
    loop, small numpy kernels and text parsing.

    It runs inside a signal handler, between two bytecodes of the library,
    so it must use nothing the library could be in the middle of: no locks,
    no shared caches such as strptime's.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(25_000):
        s += i * i
    for _ in range(2):
        for _ in range(4):
            _A @ _A
        np.sort(_V)
        np.bincount(_BINS, weights=_V, minlength=256)
    for _ in range(4):
        [float(x) for x in _CSV.split(",")]
    return time.perf_counter() - t0


class Stopwatch:
    """Times a block in wall and calibrated seconds. Not reentrant.

    With `probing` off it only keeps wall time, and `calibrated_s` is NaN:
    for a block that runs against a wall-clock budget, or one that other
    timers (the tracer's spans) also measure.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.wall_s = 0.0
        self.calibrated_s = float("nan")
        self.probes: list[float] = []
        self._in_probes = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self._in_probes += time.perf_counter() - t0

    def __enter__(self) -> "Stopwatch":
        if self.probing:
            self.probes = [probe()]
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.wall_s -= self._in_probes
            self.probes.append(probe())
            self.calibrated_s = self.wall_s * speed_factor(self.probes)


def speed_factor(probes: list[float]) -> float:
    """The machine's mean speed relative to the reference, from probe times."""
    return sum(PROBE_REF_S / p for p in probes) / len(probes)
