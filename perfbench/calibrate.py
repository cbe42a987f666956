"""Host-speed calibration for hosts whose speed drifts between minutes.

On a shared host the same single-threaded computation can run at half
speed for seconds or minutes at a time.  Each repetition times a fixed
pure-Python kernel — code of the benchmark, which no change to the program
can speed up — for a short window.  The fastest window of a run estimates
the host's undisturbed speed during that run, and the run's host times are
scaled by ``REFERENCE_S / fastest kernel time``: they read as the times on
a host where one kernel pass takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

__all__ = ["REFERENCE_S", "kernel_seconds"]

#: Nominal duration of one kernel pass on the reference host.
REFERENCE_S = 0.01


def _kernel() -> float:
    """Dict, list, float and call traffic, like the simulators' inner loops."""
    counts: dict[int, int] = {}
    window: list[float] = []
    acc = 0.0
    for k in range(40_000):
        key = (k * 7919) & 2047
        counts[key] = counts.get(key, 0) + 1
        acc += key * 0.5
        window.append(acc)
        if len(window) > 64:
            window.sort()
            del window[:32]
    return acc


def kernel_seconds(window_s: float = 0.25) -> float:
    """Fastest kernel pass within about ``window_s`` seconds."""
    clock = time.perf_counter
    best = float("inf")
    started = clock()
    while clock() - started < window_s:
        t0 = clock()
        _kernel()
        best = min(best, clock() - t0)
    return best
