"""Network link model: latency + bandwidth links, per-client channels, and
the fleet's shared server uplink.

The paper abstracts the network into per-item retrieval times ``r_i``.  This
module grounds them: ``r_i = latency + size_i / bandwidth`` over a single
sequential channel (the client's downlink), which is also how the §2
assumption "the prefetch completes before the demand fetch" arises — a
transfer in progress is never preempted.

:class:`Channel` is the one-client view and the channel of the request-step
kernel (:func:`repro.distsys.planning.step`): completion times are known
at enqueue, ``completion = max(now, busy) + (duration + penalty)``, and
the lean simulator, gateway sessions and the cohort fold all run on it.
:class:`ServerUplink` is the many-client generalisation: one server egress
with finite concurrency shared by every client, so prefetch traffic from
one client delays demand fetches of another — the cross-client intrusion
the single-link model cannot express.  Under contention a transfer's
completion depends on *future* arrivals, so the uplink delivers
completions through the event queue instead of returning them.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["Link", "Channel", "ServiceSums", "ServerUplink"]


@dataclass(frozen=True)
class Link:
    """A network path with fixed latency (time units) and bandwidth
    (size units per time unit)."""

    latency: float = 0.0
    bandwidth: float = 1.0

    def __post_init__(self) -> None:
        if self.latency < 0 or not np.isfinite(self.latency):
            raise ValueError("latency must be finite and non-negative")
        if self.bandwidth <= 0 or not np.isfinite(self.bandwidth):
            raise ValueError("bandwidth must be finite and positive")

    def transfer_time(self, size: float) -> float:
        """Retrieval time of an object of ``size``."""
        if size < 0:
            raise ValueError("size must be non-negative")
        return self.latency + float(size) / self.bandwidth

    def retrieval_times(self, sizes: np.ndarray) -> np.ndarray:
        """Vectorised ``r_i`` for a catalog of sizes."""
        sizes = np.asarray(sizes, dtype=np.float64)
        return self.latency + sizes / self.bandwidth


class ServiceSums:
    """Service-time sums over every transfer of the channels sharing it.

    A fleet of channels shares one instance, so the sums accumulate in the
    order the transfers were enqueued across the whole fleet — the order
    the cohort engine's mean-field wait depends on, down to the low bits.
    """

    __slots__ = ("total", "prefetch", "squares")

    def __init__(self) -> None:
        self.total = 0.0
        self.prefetch = 0.0
        self.squares = 0.0


class Channel:
    """One client's sequential, non-preemptive transfer channel.

    Each transfer starts at ``max(now, busy_until)`` and occupies the
    channel for its duration plus the server's ``penalty``.  This is the
    private link of an unbounded :class:`ServerUplink`, with completion
    times known at enqueue.
    """

    __slots__ = ("penalty", "busy_until", "sums", "_start", "_durations")

    def __init__(self, penalty: float = 0.0, sums: ServiceSums | None = None) -> None:
        self.penalty = float(penalty)
        self.busy_until = 0.0
        self.sums = ServiceSums() if sums is None else sums
        # The transfers since the channel was last idle: when the first one
        # started, and every duration in order.  Their completions are
        # recomputed on demand by the same additions ``enqueue`` made.
        self._start = 0.0
        self._durations: list[float] = []

    def enqueue(self, now: float, duration: float, prefetch: bool) -> float:
        """Schedule a transfer of ``duration``; returns its completion time."""
        service = duration + self.penalty
        busy = self.busy_until
        if busy > now:
            busy += service
        else:  # idle: everything enqueued before has landed
            busy = now + service
            self._start = now
            self._durations.clear()
        self._durations.append(duration)
        self.busy_until = busy
        sums = self.sums
        sums.total += service
        if prefetch:
            sums.prefetch += service
        sums.squares += service * service
        return busy

    def backlog(self, now: float) -> float:
        """Queued work as seen at ``now`` — the :meth:`ServerUplink.backlog`
        fold: the in-flight transfer's completion plus the bare durations of
        the transfers queued behind it (the server adds its penalty at grant)."""
        completion = self._start
        t = None
        for duration in self._durations:
            if t is not None:
                t = t + duration
            else:
                completion += duration + self.penalty
                if completion > now:
                    t = completion
        return 0.0 if t is None else max(0.0, t - now)


# ---------------------------------------------------------------------------
# The fleet's shared server egress
# ---------------------------------------------------------------------------

class _Transfer:
    """One submitted transfer; ``completion`` is unknown until granted.

    A slotted plain class, not a dataclass: the fleet allocates one of these
    per transfer, and ``__slots__`` halves the allocation cost next to a
    ``__dict__``-bearing instance.
    """

    __slots__ = (
        "client_id",
        "item",
        "duration",
        "kind",
        "seq",
        "submitted",
        "on_complete",
        "on_grant",
        "completion",
    )

    def __init__(
        self,
        client_id,  # any hashable flow key (client int, proxy stream tuple…)
        item: int,
        duration: float,  # client-link transfer time (server penalty added at grant)
        kind: str,  # "prefetch" | "demand"
        seq: int,
        submitted: float,
        on_complete: Callable[[float], None],
        on_grant: Callable[[int, float], None] | None = None,
    ) -> None:
        self.client_id = client_id
        self.item = item
        self.duration = duration
        self.kind = kind
        self.seq = seq
        self.submitted = submitted
        self.on_complete = on_complete
        self.on_grant = on_grant
        self.completion: float | None = None


class ServerUplink:
    """Shared server egress: at most ``concurrency`` transfers in flight.

    Each client's transfers are served in submission order, one at a time —
    exactly the sequential, non-preemptive :class:`Channel` semantics of the
    single-client model — and the head transfer of every idle client competes
    for free uplink slots.  With ``concurrency=None`` (unbounded) every
    client proceeds as if it had a private :class:`Channel`, which is how a
    1-client fleet reproduces the lean §5.3 simulator.

    Scheduling disciplines when a slot frees:

    * ``"fifo"``  — grant the transfer submitted earliest (global order);
    * ``"fair"``  — round-robin over clients: the least-recently-granted
      client with a ready transfer goes first.

    ``client_id`` is any hashable flow key: plain client ints in a flat
    fleet, and proxy upstream-stream keys (``(proxy_name, stream)``) when
    the uplink is an inter-tier link in a cache hierarchy
    (:mod:`repro.distsys.topology`).  Each flow serializes its transfers in
    submission order, whatever the key type.

    A granted transfer occupies a slot for its client-link transfer time
    plus whatever the server adds (:meth:`ItemServer.serve` — the shared
    server-cache miss penalty).  Completion times are delivered through the
    event queue; ties are resolved by submission sequence, so the timeline
    is deterministic.
    """

    _DISCIPLINES = ("fifo", "fair")

    __slots__ = (
        "queue",
        "server",
        "concurrency",
        "discipline",
        "_queues",
        "_in_flight",
        "_seq",
        "_grant_counter",
        "_last_grant",
        "_ready_heap",
        "granted",
        "total_service_time",
        "service_time_by_kind",
        "peak_in_flight",
        "last_completion",
    )

    def __init__(self, queue, server, *, concurrency: int | None = None,
                 discipline: str = "fifo") -> None:
        if discipline not in self._DISCIPLINES:
            raise ValueError(
                f"discipline must be one of {self._DISCIPLINES}, got {discipline!r}"
            )
        if concurrency is not None and int(concurrency) < 1:
            raise ValueError("concurrency must be positive (or None for unbounded)")
        self.queue = queue
        self.server = server
        self.concurrency = None if concurrency is None else int(concurrency)
        self.discipline = discipline
        self._queues: dict[object, deque[_Transfer]] = {}
        self._in_flight: dict[object, _Transfer] = {}  # flow -> granted transfer
        self._seq = 0
        self._grant_counter = 0
        self._last_grant: dict[object, int] = {}
        # FIFO ready-heap: one (head seq, flow) entry per ready flow; see
        # _pick.  The "fair" discipline re-keys on every grant and keeps the
        # linear scan instead.
        self._ready_heap: list[tuple[int, object]] = []
        # -- stats ---------------------------------------------------------
        self.granted = 0
        self.total_service_time = 0.0
        self.service_time_by_kind = {"prefetch": 0.0, "demand": 0.0}
        self.peak_in_flight = 0
        self.last_completion = 0.0

    # ------------------------------------------------------------------
    def submit(
        self,
        client_id,
        item: int,
        duration: float,
        now: float,
        on_complete: Callable[[float], None],
        *,
        kind: str = "demand",
        on_grant: Callable[[int, float], None] | None = None,
    ) -> None:
        """Queue a transfer of ``duration`` (client-link time) for ``client_id``.

        ``on_grant(item, completion)`` fires when a slot is granted (possibly
        synchronously); ``on_complete(completion)`` fires from the event
        queue when the transfer lands.
        """
        if duration <= 0:
            raise ValueError("transfer duration must be positive")
        if kind not in self.service_time_by_kind:
            raise ValueError(f"unknown transfer kind {kind!r}")
        transfer = _Transfer(
            client_id=client_id,
            item=int(item),
            duration=float(duration),
            kind=kind,
            seq=self._seq,
            submitted=float(now),
            on_complete=on_complete,
            on_grant=on_grant,
        )
        self._seq += 1
        cid = transfer.client_id
        queue = self._queues.get(cid)
        if queue is None:
            queue = self._queues[cid] = deque()
        queue.append(transfer)
        if (
            self.discipline == "fifo"
            and len(queue) == 1
            and cid not in self._in_flight
        ):
            # The flow just became ready with this transfer at its head.
            heapq.heappush(self._ready_heap, (transfer.seq, cid))
        self._try_grant(float(now))

    # ------------------------------------------------------------------
    def _pick(self):
        """The next flow to grant, or ``None`` when nothing is ready.

        FIFO keeps a ready-heap invariant — every flow that is non-empty and
        not in flight has exactly one ``(head seq, flow)`` entry — so the
        earliest-submitted head pops in O(log flows) instead of a linear
        scan per grant (entries are pushed on submit-to-idle-flow and on
        completion-with-backlog, and consumed here exactly when granted).
        Seqs are unique, so the pop order equals the old ``min`` over ready
        flows and the flow key itself is never compared.

        The "fair" discipline ranks by last-grant recency, which re-keys
        every flow on every grant — a heap would have to be rebuilt, so it
        keeps the one-pass scan (keys unique via the seq tie-breaker).
        """
        if self.discipline == "fifo":
            heap = self._ready_heap
            if not heap:
                return None
            return heapq.heappop(heap)[1]
        # fair: least-recently-granted client first; brand-new clients (no
        # grant yet) rank by submission order via the -1 sentinel + seq tie.
        in_flight = self._in_flight
        last_grant = self._last_grant
        best = None
        best_key = None
        for cid, q in self._queues.items():
            if q and cid not in in_flight:
                key = (last_grant.get(cid, -1), q[0].seq)
                if best_key is None or key < best_key:
                    best_key = key
                    best = cid
        return best

    def _try_grant(self, now: float) -> None:
        while True:
            if self.concurrency is not None and len(self._in_flight) >= self.concurrency:
                return
            cid = self._pick()
            if cid is None:
                return
            transfer = self._queues[cid].popleft()
            self._in_flight[cid] = transfer
            self._last_grant[cid] = self._grant_counter
            self._grant_counter += 1
            service = transfer.duration + self.server.serve(transfer.item)
            completion = now + service
            transfer.completion = completion
            self.granted += 1
            self.total_service_time += service
            self.service_time_by_kind[transfer.kind] += service
            self.peak_in_flight = max(self.peak_in_flight, len(self._in_flight))
            self.last_completion = max(self.last_completion, completion)
            self.queue.schedule(completion, lambda t=transfer: self._complete(t))
            if transfer.on_grant is not None:
                transfer.on_grant(transfer.item, completion)

    def _complete(self, transfer: _Transfer) -> None:
        cid = transfer.client_id
        del self._in_flight[cid]
        queue = self._queues.get(cid)
        if not queue:
            self._queues.pop(cid, None)
        elif self.discipline == "fifo":
            # The flow is free again with a waiting head: back into the heap.
            heapq.heappush(self._ready_heap, (queue[0].seq, cid))
        self._try_grant(self.queue.now)
        transfer.on_complete(transfer.completion)

    # ------------------------------------------------------------------
    def backlog(self, client_id, now: float) -> float:
        """This client's queued work as seen at ``now``, ignoring contention.

        Folds the in-flight completion and queued durations left to right —
        the exact arithmetic of :meth:`Channel.backlog` — so with an
        unbounded uplink the value is bit-identical to the single-client
        channel's live stretch.  Under contention it is an optimistic lower
        bound (grants may be delayed by other clients).
        """
        t = float(now)
        in_flight = self._in_flight.get(client_id)
        if in_flight is not None:
            t = in_flight.completion
        for transfer in self._queues.get(client_id, ()):
            t = t + transfer.duration
        return max(0.0, t - float(now))

    def idle(self) -> bool:
        return not self._in_flight and not any(self._queues.values())
