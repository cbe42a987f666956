"""The §5.3 request step: per-client planning state plus the one kernel
every engine runs.

:class:`ClientPlanState` holds one client's cache, origin labels, pending
transfers and access frequencies, and dispatches the planner.  The
functions below are the client timeline of the paper, written once:

* :func:`warm_start` — pre-serve the initial item and plan its viewing
  period (§5.3 seeds its first Markov state this way);
* :func:`arrive` — promote transfers that have landed, then classify the
  request as a hit (served now), a wait on an in-flight prefetch, or a
  miss;
* :func:`serve` — finish a wait or miss at ``t_serve`` (promote, admit the
  demand-fetched item), record the access and observe it;
* :func:`plan` — plan the viewing period, register the admitted prefetches
  as pending, count them and check the occupancy invariant;
* :func:`step` — the four composed over a sequential
  :class:`~repro.distsys.network.Channel`: prefetches are never aborted and
  a demand fetch waits for the whole backlog (§2).

The lean simulator (:mod:`repro.simulation.prefetch_cache`), gateway
sessions (:mod:`repro.gateway.sessions`) and the cohort fold
(:mod:`repro.distsys.megafleet`) call :func:`step`.  The event-driven
:class:`~repro.distsys.fleet.FleetClient` learns completions only through
its uplink's callbacks, so it calls the pieces from those callbacks.

:class:`ClientPlanState` is also where the fast-kernel bookkeeping lives:

* the cache and pending sets are mirrored into **incrementally maintained
  sorted tuples** (invalidated on membership change, rebuilt lazily), so no
  request sorts the cache or the pending set;
* provider rows are library-normalised (workload generators and
  predictors), so planner problems are built through
  :meth:`~repro.core.types.PrefetchProblem.from_validated`;
* without an online model the rows never change, so demand-victim solves
  are **memoized** on ``(item, cache fingerprint)`` (unless a
  frequency-dependent sub-arbitration is configured) and each distinct row
  is ranked once (:class:`RankedRowCache`).
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.core.ordering import RankedRow, rank_row
from repro.core.planner import PlanOutcome, Prefetcher
from repro.core.types import PrefetchProblem
from repro.simulation.metrics import AccessStats

__all__ = [
    "ClientPlanState",
    "RankedRowCache",
    "warm_start",
    "arrive",
    "serve",
    "plan",
    "step",
]

_MISS = object()  # memo sentinel (victims may legitimately be None)

KIND_HIT = AccessStats.KIND_HIT
KIND_WAIT = AccessStats.KIND_WAIT
KIND_MISS = AccessStats.KIND_MISS


class RankedRowCache:
    """Ranked rows of a provider whose rows never change, looked up by item.

    A row is ranked once per distinct array, not once per item: a Zipf
    client's provider returns the same array for every item, so an item
    seen for the first time reuses the last ranking when its row is that
    same array.  Clients whose rows are equal item by item may share one
    instance (the cohort engine does).
    """

    __slots__ = ("by_item", "_row", "_ranked")

    def __init__(self) -> None:
        self.by_item: dict[int, RankedRow] = {}
        self._row: np.ndarray | None = None
        self._ranked: RankedRow | None = None

    def get(self, item: int, problem: PrefetchProblem) -> RankedRow:
        """The ranking of ``problem``, the planning instance for ``item``."""
        ranked = self.by_item.get(item)
        if ranked is None:
            row = problem.probabilities
            if row is self._row:
                ranked = self._ranked
            else:
                ranked = rank_row(problem, profits=True)
                self._row = row
                self._ranked = ranked
            self.by_item[item] = ranked
        return ranked


class ClientPlanState:
    """Cache/pending/frequency bookkeeping plus planner dispatch for one client.

    The engines keep direct references to :attr:`cache`, :attr:`origin` and
    :attr:`pending` (tests inspect them), but all *membership* mutations must
    go through the methods here so the sorted fingerprints stay coherent.
    Updating a pending item's value (e.g. recording a grant's completion
    time) is membership-neutral and may write ``state.pending[item]``
    directly.
    """

    __slots__ = (
        "prefetcher",
        "provider",
        "retrievals",
        "capacity",
        "cache",
        "origin",
        "pending",
        "frequencies",
        "model",
        "_cache_tuple",
        "_pending_tuple",
        "_victim_memo",
        "_ranked",
    )

    def __init__(
        self,
        prefetcher: Prefetcher,
        provider: Callable[[int], np.ndarray],
        retrievals: np.ndarray,
        capacity: int,
        n_items: int,
        *,
        model=None,
    ) -> None:
        if capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        self.prefetcher = prefetcher
        self.provider = provider
        #: Optional online access model (:class:`repro.prediction.base
        #: .AccessPredictor`).  When set, :meth:`observe` feeds it the
        #: served-request stream — the ``model_source="online"`` path where
        #: planning rows are *learned* instead of handed down by the oracle.
        self.model = model
        self.retrievals = np.ascontiguousarray(retrievals, dtype=np.float64)
        self.capacity = int(capacity)
        self.cache: set[int] = set()
        self.origin: dict[int, str] = {}
        self.pending: dict[int, float] = {}
        self.frequencies = np.zeros(int(n_items), dtype=np.float64)
        self._cache_tuple: tuple[int, ...] | None = ()
        self._pending_tuple: tuple[int, ...] | None = ()
        # Without an online model the provider rows never change.  The
        # victim memo also needs a victim choice that ignores the
        # (ever-changing) access frequencies.
        static = model is None
        self._victim_memo: dict | None = (
            {} if static and prefetcher.sub_arbitration is None else None
        )
        # Rankings are reusable only when rows never change; the planner
        # ranks an online row on every call.
        self._ranked: RankedRowCache | None = RankedRowCache() if static else None

    # -- fingerprints ---------------------------------------------------
    def cache_key(self) -> tuple[int, ...]:
        """Sorted cache content; rebuilt only after a membership change."""
        key = self._cache_tuple
        if key is None:
            key = self._cache_tuple = tuple(sorted(self.cache))
        return key

    def pending_key(self) -> tuple[int, ...]:
        key = self._pending_tuple
        if key is None:
            key = self._pending_tuple = tuple(sorted(self.pending))
        return key

    # -- membership mutations -------------------------------------------
    def cache_add(self, item: int, origin: str) -> None:
        self.cache.add(item)
        self.origin[item] = origin
        self._cache_tuple = None

    def cache_discard(self, item: int) -> None:
        self.cache.discard(item)
        self.origin.pop(item, None)
        self._cache_tuple = None

    def pending_add(self, item: int, value: float) -> None:
        self.pending[item] = value
        self._pending_tuple = None

    def pending_pop(self, item: int) -> float:
        value = self.pending.pop(item)
        self._pending_tuple = None
        return value

    def promote(self, item: int) -> None:
        """Move a landed transfer from pending into the cache."""
        del self.pending[item]
        self._pending_tuple = None
        self.cache.add(item)
        self.origin[item] = "prefetch"
        self._cache_tuple = None

    def promote_ready(self, now: float) -> None:
        """Promote every transfer that has landed by ``now``.

        A transfer landing at exactly ``now`` counts as landed; one whose
        completion is still unknown (``inf``: not yet granted a slot on a
        contended uplink) stays pending.
        """
        done = [item for item, arrival in self.pending.items() if arrival <= now]
        for item in done:
            self.promote(item)

    # -- observation -----------------------------------------------------
    def observe(self, item: int) -> None:
        """Record one served access: LFU/DS frequencies plus the online model."""
        self.frequencies[item] += 1.0
        if self.model is not None:
            self.model.update(item)

    # -- planner dispatch -----------------------------------------------
    def problem(self, item: int, window: float) -> PrefetchProblem:
        """The planning instance for ``item``'s viewing period."""
        return PrefetchProblem.from_validated(self.provider(item), self.retrievals, window)

    #: Victim-memo size bound: past this many distinct (item, cache-state)
    #: pairs the memo is cleared and refills with the currently-hot states,
    #: keeping a workload that never revisits states at constant memory.
    _VICTIM_MEMO_LIMIT = 4096

    def demand_victim(self, item: int) -> int | None:
        """Victim for a demand-fetched item (§5.2's always-admitted case)."""
        memo = self._victim_memo
        if memo is not None:
            key = (item, self.cache_key())
            victim = memo.get(key, _MISS)
            if victim is not _MISS:
                return victim
        victim = self.prefetcher.demand_victim(
            self.problem(item, 0.0),
            item,
            self.cache_key(),
            cache_capacity=self.capacity,
            frequencies=self.frequencies,
        )
        if memo is not None:
            if len(memo) >= self._VICTIM_MEMO_LIMIT:
                memo.clear()
            memo[key] = victim
        return victim

    def admit_demand(self, item: int) -> None:
        """Admit a demand-fetched item, evicting a victim from a full cache.

        With zero capacity nothing is stored; a full cache asks the planner
        for a victim *before* insertion (eviction lists leave the cache at
        planning time); the item is then recorded with demand origin.
        """
        if self.capacity <= 0:
            return
        if len(self.cache) >= self.capacity:
            victim = self.demand_victim(item)
            if victim is not None:
                self.cache_discard(victim)
        self.cache_add(item, "demand")

    def plan_view(self, item: int, window: float) -> PlanOutcome:
        """Plan one viewing period and apply the eviction list.

        Returns the outcome; :func:`plan` registers its prefetches.
        """
        problem = self.problem(item, window)
        ranked = self._ranked
        outcome = self.prefetcher.plan(
            problem,
            cache=self.cache_key(),
            cache_capacity=self.capacity - len(self.pending),
            frequencies=self.frequencies,
            pinned=self.pending_key(),
            ranked=None if ranked is None else ranked.get(item, problem),
        )
        for victim in outcome.eject:
            self.cache_discard(victim)
        return outcome


# ---------------------------------------------------------------------------
# The request step
# ---------------------------------------------------------------------------

def warm_start(state, stats, item, viewing, now, transfer, channel=None, memo=None):
    """Pre-serve ``item`` at ``now`` (not scored) and plan its viewing period.

    The channel is still empty, so the planning window is the whole
    ``viewing`` time under either window mode.
    """
    state.observe(item)
    if state.capacity > 0:
        state.cache_add(item, "demand")
    return plan(state, stats, item, viewing, now, transfer, channel, memo)


def arrive(state, stats, item, now) -> int:
    """Promote landed transfers, then classify the request arriving at ``now``.

    A hit is served on the spot and counted here; a wait or a miss is
    finished by :func:`serve` once its transfer lands.
    """
    if state.pending:
        state.promote_ready(now)
    if item in state.cache:
        stats.cache_hits += 1
        if state.origin.get(item) == "prefetch":
            stats.prefetches_used += 1
            state.origin[item] = "prefetch-used"
        return KIND_HIT
    if item in state.pending:
        return KIND_WAIT
    stats.misses += 1
    return KIND_MISS


def serve(state, stats, item, kind, t_req, t_serve) -> None:
    """Serve the request made at ``t_req`` at ``t_serve``: record, observe.

    A wait is served by its prefetch's arrival and a miss by the demand
    transfer, which started only after the whole backlog drained — so
    everything landed by ``t_serve`` is promoted first, and a miss is then
    admitted into the cache.
    """
    if kind != KIND_HIT:
        state.promote_ready(t_serve)
        if kind == KIND_WAIT:
            stats.pending_waits += 1
            stats.prefetches_used += 1
            state.origin[item] = "prefetch-used"
        else:
            state.admit_demand(item)
    stats.access_times.append(t_serve - t_req)
    stats.request_times.append(t_req)
    stats.serve_kinds.append(kind)
    state.observe(item)


def plan(state, stats, item, window, now, transfer, channel=None, memo=None):
    """Plan the viewing period after ``item`` and register its prefetches.

    Each admitted prefetch goes on ``channel`` at ``now`` and is pending
    until its completion.  With ``channel=None`` the caller submits the
    returned outcome's prefetches itself: they are pending with an unknown
    (``inf``) completion, which the caller fills in when it learns it.
    ``memo`` (a cohort's shared plan memo) may replay an earlier identical
    decision instead of solving.

    Raises ``RuntimeError`` if cached plus in-flight items exceed the
    capacity: each admitted prefetch must be paired with a victim or a free
    slot.  (An explicit error, not an ``assert``: it must also fire under
    ``python -O``.)
    """
    if memo is None:
        outcome = state.plan_view(item, window)
    else:
        outcome = memo.plan(state, item, window)
    prefetch = outcome.prefetch.items
    if prefetch:
        for f in prefetch:
            duration = transfer[f]
            state.pending_add(
                f, math.inf if channel is None else channel.enqueue(now, duration, True)
            )
            stats.prefetches_scheduled += 1
            stats.network_prefetch_time += duration
        if len(state.cache) + len(state.pending) > state.capacity:
            raise RuntimeError(
                f"{len(state.cache)} cached + {len(state.pending)} in-flight items "
                f"exceed the cache capacity {state.capacity}"
            )
    return outcome


def step(state, stats, item, viewing, now, transfer, channel, effective, memo=None):
    """One request at ``now`` over a sequential channel.

    Returns ``(t_serve, outcome)``: when the request was served and the
    plan for the viewing period that follows.

    A miss queues its demand transfer behind the whole backlog; a wait is
    served when its prefetch lands.  ``effective`` shrinks the planning
    window by the backlog still queued at ``t_serve``.
    """
    kind = arrive(state, stats, item, now)
    if kind == KIND_HIT:
        t_serve = now
    elif kind == KIND_WAIT:
        t_serve = state.pending[item]
    else:
        duration = transfer[item]
        stats.network_demand_time += duration
        t_serve = channel.enqueue(now, duration, False)
    serve(state, stats, item, kind, now, t_serve)
    window = viewing
    if effective:
        window = max(0.0, viewing - channel.backlog(t_serve))
    return t_serve, plan(state, stats, item, window, t_serve, transfer, channel, memo)
