"""A minimal discrete-event queue.

The distributed-information-system substrate is small enough that a heap of
``(time, sequence, callback)`` triples suffices.  The sequence number makes
ordering of simultaneous events deterministic (FIFO within a timestamp),
which the reproducibility tests rely on — and because it is unique, tuple
comparison never reaches the (incomparable) callback element.

Heap entries are plain tuples rather than ordered dataclass instances: a
tuple push/pop avoids one object allocation and a Python-level ``__lt__``
per comparison, which matters because every transfer grant, completion and
request in the fleet/topology simulators passes through this heap (see
``benchmarks/bench_fleet.py``).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

__all__ = ["EventQueue"]


class EventQueue:
    """Monotonic discrete-event scheduler."""

    __slots__ = ("_heap", "_seq", "now")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0.0

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute ``time`` (not before now)."""
        time = float(time)
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def run(self) -> int:
        """Drain every event, including ones scheduled while draining;
        returns how many ran."""
        heap = self._heap
        pop = heapq.heappop
        count = 0
        while heap:
            time, _seq, callback = pop(heap)
            self.now = time
            callback()
            count += 1
        return count
