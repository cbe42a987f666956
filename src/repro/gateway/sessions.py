"""Per-session planning state for the speculation gateway.

A gateway session is one remote client's view of the world: the same
:class:`~repro.distsys.planning.ClientPlanState` the simulators run on
(cache / pending / frequency bookkeeping, planner dispatch), an online
predictor from :mod:`repro.prediction.adaptive` learning from the reported
access stream, and a *virtual* timeline.

The virtual timeline is what turns "a client told us it accessed item i and
will view it for v seconds" into the exact planning problem the simulators
solve.  Each session owns a sequential :class:`~repro.distsys.network
.Channel` (the §2 non-preemptive client downlink) whose clock advances by
the reported viewing times: prefetches enqueue back-to-back transfers,
demand misses wait for the whole backlog, and a prefetch that has not
landed by the next request is a *wait*, not a hit.  Each report is one
:func:`repro.distsys.planning.step`, the request step every engine runs —
so replaying a workload through the gateway reproduces the closed-loop
simulator's serve kinds and access times exactly (``tests/gateway/`` pins
this, and the open-loop vs closed-loop hit-rate criterion in
``benchmarks/bench_gateway.py`` relies on it).

Sessions live in a :class:`SessionStore` with two eviction axes a real
service needs: a TTL (sessions idle longer than ``ttl`` wall-clock seconds
are dropped) and an LRU capacity cap (``max_sessions``), so an open-ended
stream of session ids cannot grow memory without bound.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro.core.planner import ONLINE_NODE_BUDGET, Prefetcher
from repro.distsys.network import Channel
from repro.distsys.planning import ClientPlanState, step, warm_start
from repro.simulation.metrics import AccessStats

__all__ = ["SessionConfig", "Advice", "GatewaySession", "SessionStore"]

_KIND_NAMES = {
    AccessStats.KIND_HIT: "hit",
    AccessStats.KIND_WAIT: "wait",
    AccessStats.KIND_MISS: "miss",
}


@dataclass(frozen=True)
class SessionConfig:
    """Knobs every session of one gateway shares.

    ``predictor`` names a :data:`repro.experiments.registry.PREDICTORS`
    entry; each session gets a *fresh* instance that learns only from its
    own reported stream (the fleet's ``model_source="online"`` semantics).
    ``ttl`` and ``max_sessions`` bound the store; both are wall-clock
    service concerns and never touch the virtual planning timeline.
    """

    cache_capacity: int = 8
    strategy: str = "skp"  # "none" | "kp" | "skp"
    sub_arbitration: str | None = None  # None | "lfu" | "ds"
    skp_variant: str = "corrected"
    predictor: str = "frequency:ewma"
    ttl: float = 300.0
    max_sessions: int = 10_000

    def __post_init__(self) -> None:
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        if self.ttl <= 0:
            raise ValueError("ttl must be positive")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be positive")

    def build_prefetcher(self) -> Prefetcher:
        return Prefetcher(
            strategy=self.strategy,
            variant=self.skp_variant,
            sub_arbitration=self.sub_arbitration,
            # Gateway sessions always plan from learned predictor rows,
            # so the tied-probability node budget applies unconditionally.
            node_budget=ONLINE_NODE_BUDGET,
        )


@dataclass(frozen=True)
class Advice:
    """What the gateway decided for one reported access.

    ``prefetch`` is the admission-filtered plan for the viewing period that
    just started — "fetch these now, in this order".  ``evict`` is the
    matching eviction list (the planner's paired victims).  ``served``
    reconstructs how the virtual client experienced this access ("warm" for
    the session-opening report, which seeds the cache and is not scored),
    and ``access_time`` is its virtual cost in the §2 model.
    """

    session: str
    index: int
    served: str
    access_time: float
    t_request: float
    t_serve: float
    prefetch: tuple[int, ...]
    evict: tuple[int, ...]

    def to_payload(self) -> dict:
        return {
            "session": self.session,
            "index": self.index,
            "served": self.served,
            "access_time": self.access_time,
            "t_request": self.t_request,
            "t_serve": self.t_serve,
            "prefetch": list(self.prefetch),
            "evict": list(self.evict),
        }


class GatewaySession:
    """One client's speculation state behind the gateway.

    ``provider`` overrides the online predictor with an oracle probability
    provider (rows indexed by item) — the in-process test/benchmark path;
    over HTTP the gateway never knows the client's true model, so service
    sessions are always online.
    """

    __slots__ = (
        "session_id",
        "state",
        "stats",
        "channel",
        "clock",
        "created_at",
        "_transfer",
        "_started",
        "_index",
    )

    def __init__(
        self,
        session_id: str,
        config: SessionConfig,
        retrievals: np.ndarray,
        prefetcher: Prefetcher,
        *,
        model=None,
        provider: Callable[[int], np.ndarray] | None = None,
        created_at: float = 0.0,
    ) -> None:
        if (model is None) == (provider is None):
            raise ValueError("set exactly one of model / provider")
        self.session_id = str(session_id)
        self.state = ClientPlanState(
            prefetcher,
            model.conditional_row if model is not None else provider,
            retrievals,
            config.cache_capacity,
            int(np.asarray(retrievals).shape[0]),
            model=model,
        )
        self.stats = AccessStats()
        self.channel = Channel()
        self.clock = 0.0  # virtual time of the *next* expected request
        self.created_at = float(created_at)
        self._transfer = np.asarray(retrievals, dtype=np.float64).tolist()
        self._started = False
        self._index = 0

    def report(self, item: int, viewing_time: float) -> Advice:
        """Ingest one access report; return prefetch advice for its viewing.

        The first report of a session is the warm start (§5.3's pre-served
        initial item): it seeds the cache, plans, and is not scored.  Every
        later report is one :func:`repro.distsys.planning.step` on the
        session's virtual clock.
        """
        item = int(item)
        if not 0 <= item < len(self._transfer):
            raise ValueError(
                f"item {item} outside catalog [0, {len(self._transfer)})"
            )
        viewing = float(viewing_time)
        if not viewing >= 0.0:
            raise ValueError("viewing_time must be non-negative")
        index = self._index
        self._index = index + 1

        if not self._started:
            self._started = True
            outcome = warm_start(
                self.state, self.stats, item, viewing, 0.0, self._transfer, self.channel
            )
            served, t_req, t_serve = "warm", 0.0, 0.0
        else:
            t_req = self.clock
            t_serve, outcome = step(
                self.state, self.stats, item, viewing, t_req, self._transfer,
                self.channel, False,
            )
            served = _KIND_NAMES[self.stats.serve_kinds[-1]]
        self.clock = t_serve + viewing
        return Advice(
            session=self.session_id,
            index=index,
            served=served,
            access_time=t_serve - t_req,
            t_request=t_req,
            t_serve=t_serve,
            prefetch=tuple(outcome.prefetch.items),
            evict=tuple(outcome.eject),
        )

    # -- introspection ----------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-friendly session state for ``GET /v1/session/<id>``."""
        stats = self.stats
        return {
            "session": self.session_id,
            "requests": stats.requests,
            "reports": self._index,
            "clock": self.clock,
            "cache": sorted(self.state.cache),
            "pending": {
                str(item): arrival for item, arrival in sorted(self.state.pending.items())
            },
            "hit_rate": stats.hit_rate,
            "cache_hits": stats.cache_hits,
            "pending_waits": stats.pending_waits,
            "misses": stats.misses,
            "prefetches_scheduled": stats.prefetches_scheduled,
            "prefetches_used": stats.prefetches_used,
            "mean_access_time": stats.mean_access_time,
        }


@dataclass
class StoreCounters:
    """Lifecycle accounting the store exports to /metrics."""

    created: int = 0
    evicted_ttl: int = 0
    evicted_lru: int = 0


class SessionStore:
    """TTL + LRU-capped map of live :class:`GatewaySession` instances.

    ``clock`` is the wall-clock source (``time.monotonic`` in the service;
    tests inject a fake) — it drives only expiry, never planning.  Eviction
    is incremental: every :meth:`get_or_create` first sweeps expired
    sessions, then enforces the LRU cap, so the store needs no background
    reaper task.
    """

    def __init__(
        self,
        config: SessionConfig,
        retrievals: np.ndarray,
        *,
        clock: Callable[[], float],
    ) -> None:
        self.config = config
        self.retrievals = np.ascontiguousarray(retrievals, dtype=np.float64)
        self.prefetcher = config.build_prefetcher()
        self.counters = StoreCounters()
        self._clock = clock
        self._sessions: OrderedDict[str, GatewaySession] = OrderedDict()
        self._last_seen: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def ids(self) -> tuple[str, ...]:
        return tuple(self._sessions)

    def _build_model(self):
        from repro.experiments.registry import PREDICTORS

        return PREDICTORS.create(self.config.predictor, int(self.retrievals.shape[0]))

    def sweep(self, now: float | None = None) -> int:
        """Drop sessions idle past the TTL; returns how many were dropped."""
        now = self._clock() if now is None else now
        expired = [
            sid
            for sid, seen in self._last_seen.items()
            if now - seen > self.config.ttl
        ]
        for sid in expired:
            del self._sessions[sid]
            del self._last_seen[sid]
        self.counters.evicted_ttl += len(expired)
        return len(expired)

    def get_or_create(
        self,
        session_id: str,
        *,
        provider: Callable[[int], np.ndarray] | None = None,
    ) -> GatewaySession:
        """The live session for ``session_id``, creating (and evicting) as needed.

        ``provider`` applies only on creation: it pins the new session to an
        oracle probability provider instead of a fresh online predictor
        (in-process replay paths; the HTTP surface never passes one).
        """
        session_id = str(session_id)
        now = self._clock()
        self.sweep(now)
        session = self._sessions.get(session_id)
        if session is None:
            while len(self._sessions) >= self.config.max_sessions:
                victim, _ = self._sessions.popitem(last=False)
                del self._last_seen[victim]
                self.counters.evicted_lru += 1
            session = GatewaySession(
                session_id,
                self.config,
                self.retrievals,
                self.prefetcher,
                model=self._build_model() if provider is None else None,
                provider=provider,
                created_at=now,
            )
            self._sessions[session_id] = session
            self.counters.created += 1
        else:
            self._sessions.move_to_end(session_id)
        self._last_seen[session_id] = now
        return session

    def get(self, session_id: str) -> GatewaySession | None:
        return self._sessions.get(str(session_id))

    def drop(self, session_id: str) -> bool:
        session_id = str(session_id)
        if session_id in self._sessions:
            del self._sessions[session_id]
            del self._last_seen[session_id]
            return True
        return False

    def all_stats(self) -> list[AccessStats]:
        return [session.stats for session in self._sessions.values()]
