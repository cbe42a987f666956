"""Edge-proxy cache hierarchies: multi-tier topologies with per-tier speculation.

PR 2's fleet is flat: N clients → one contended :class:`ServerUplink` → one
:class:`ItemServer`.  Production information systems interpose shared
edge/proxy caches between clients and the origin, and speculation at a
*shared* tier is qualitatively different from speculation at a private
client cache: one client's predictor warms another client's hits, and proxy
prefetch traffic competes with everyone's demand misses on the origin
uplink.  This module grows the fleet into a :class:`CacheNetwork` of
:class:`ProxyNode` tiers:

* every proxy owns a shared cache (any :mod:`repro.cache` policy), an
  uplink toward its parent (:class:`ServerUplink` semantics per inter-tier
  link: per-stream FIFO, the head transfer competing for parent slots) and
  optionally its own predictor + prefetch planner (reusing
  :mod:`repro.prediction` and the SKP machinery) with a per-tier in-flight
  prefetch budget;
* requests route client → edge → … → origin with miss propagation:
  a proxy hit is served over the proxy's delivery uplink; a miss triggers a
  store-and-forward fetch from the parent (concurrent requests for the same
  item coalesce onto one upstream transfer), the item is admitted into the
  proxy cache per its policy, and every waiter is then served;
* completions are event-delivered on the shared
  :class:`~repro.distsys.events.EventQueue`, so the whole hierarchy shares
  one deterministic timeline.

A proxy with no cache and no prefetcher is **pass-through**: it relays each
child submission verbatim (same flow id, same duration, synchronously) to
its parent, adding nothing to the timeline.  The ``star`` topology wires
every client through one pass-through proxy, which therefore reproduces
:func:`repro.distsys.fleet.run_fleet` *bit-exactly* (see
``tests/integration/test_cross_engine.py``).

Speculation placement is a knob (``placement``): ``"client"`` keeps the
paper's private-cache prefetching, ``"edge"`` moves it into the shared edge
tier (PPE-style predictive proxies), ``"both"`` runs them together and
``"none"`` disables speculation everywhere — with common random numbers
across the sweep, so differences are placement effects.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from collections.abc import Callable

import numpy as np

from repro.cache.base import Cache
from repro.core.planner import ONLINE_NODE_BUDGET, Prefetcher
from repro.core.types import PrefetchProblem
from repro.distsys.events import EventQueue
from repro.distsys.fleet import (
    FleetClient,
    FleetConfig,
    build_client_model,
    run_to_quiescence,
)
from repro.distsys.network import Link, ServerUplink
from repro.distsys.server import ItemServer
from repro.prediction.base import AccessPredictor
from repro.simulation.metrics import AccessStats, FleetAggregate, aggregate_access_stats
from repro.util.rng import derive_seed
from repro.workload.population import Population

__all__ = [
    "TopologyConfig",
    "ProxyStats",
    "ProxyNode",
    "TierSummary",
    "TopologyResult",
    "CacheNetwork",
    "run_topology",
    "TOPOLOGIES",
    "register_topology",
    "topology_names",
]

_PLACEMENTS = ("none", "client", "edge", "both")


@dataclass(frozen=True)
class TopologyConfig:
    """Knobs of one cache-hierarchy run.

    ``fleet`` is the client tier and the origin, with the meaning they have
    in a flat fleet: the clients' cache, planner, link and planning model,
    the origin uplink's slots and discipline and the backing-store penalty.
    The ``edge_*`` / ``mid_*`` fields shape the proxy tiers the selected
    ``topology`` builds.  ``placement`` decides where speculation runs: at
    the clients, at the edge proxies, at both, or nowhere — it gates the
    machinery (see :meth:`client_fleet`), so sweeping it compares identical
    workloads.
    """

    topology: str = "tree"
    n_edges: int = 2
    fleet: FleetConfig = FleetConfig()  # client tier + origin
    # -- speculation placement ----------------------------------------
    placement: str = "both"  # "none" | "client" | "edge" | "both"
    # -- edge tier -----------------------------------------------------
    edge_cache: str = "lru"
    edge_cache_size: int = 0  # 0 = pass-through edge proxies
    edge_predictor: str = "markov"
    edge_strategy: str = "skp"  # proxy planner: "skp" | "kp"
    edge_prefetch_budget: int = 4  # max speculative fetches in flight per proxy
    edge_prefetch_window: float = 30.0  # planning window of the proxy planner
    edge_delivery_concurrency: int | None = None  # proxy egress slots (None = unbounded)
    edge_uplink_streams: int = 4  # parallel upstream flows per edge proxy (1 = strict sequential link)
    edge_latency: float = 0.0  # edge → parent hop
    edge_bandwidth: float = 1.0
    # -- mid tier (two-tier topology; cache only, no speculation) ------
    mid_cache: str = "lru"
    mid_cache_size: int = 0
    mid_uplink_streams: int = 4
    mid_latency: float = 0.0  # mid → origin hop
    mid_bandwidth: float = 1.0

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; one of {topology_names()}"
            )
        if self.fleet.engine != "event" and self.topology != "star":
            raise ValueError(
                "cohort/hybrid engines support only the 'star' topology "
                f"(bit-exact with the flat fleet); got topology {self.topology!r}"
            )
        if self.placement not in _PLACEMENTS:
            raise ValueError(f"placement must be one of {_PLACEMENTS}, got {self.placement!r}")
        if self.n_edges < 1:
            raise ValueError("n_edges must be positive")
        if self.edge_cache_size < 0:
            raise ValueError("edge_cache_size must be non-negative")
        if self.mid_cache_size < 0:
            raise ValueError("mid_cache_size must be non-negative")
        if self.edge_strategy not in ("skp", "kp"):
            raise ValueError(f"edge_strategy must be 'skp' or 'kp', got {self.edge_strategy!r}")
        if self.edge_prefetch_budget < 0:
            raise ValueError("edge_prefetch_budget must be non-negative")
        if self.edge_prefetch_window < 0:
            raise ValueError("edge_prefetch_window must be non-negative")
        if self.edge_delivery_concurrency is not None and self.edge_delivery_concurrency < 1:
            raise ValueError(
                "edge_delivery_concurrency must be a positive slot count or None "
                f"(unbounded), got {self.edge_delivery_concurrency!r}"
            )
        if self.edge_uplink_streams < 1 or self.mid_uplink_streams < 1:
            raise ValueError("uplink_streams must be positive")

    def client_fleet(self) -> FleetConfig:
        """The fleet config the clients run: without client-side placement
        they plan nothing (their cache keeps the pipeline's arbitration)."""
        if self.placement in ("client", "both"):
            return self.fleet
        return replace(self.fleet, strategy="none")


# ---------------------------------------------------------------------------
# Proxy mechanism
# ---------------------------------------------------------------------------

class _FreeService:
    """Server stand-in for a proxy's delivery uplink: items are local."""

    def serve(self, item: int) -> float:
        return 0.0


@dataclass(slots=True)
class _ChildRequest:
    """One child transfer moving through a proxy.

    ``ready`` flips when the item is locally available (hit, or the upstream
    fetch landed); the transfer is released to the delivery uplink only once
    it is ready *and* every earlier request of its flow has been released —
    per-flow submission-order delivery, the same non-preemptive sequential
    downlink the flat fleet's :class:`ServerUplink` guarantees (a demand
    completion must imply the client's whole backlog drained, §2).
    """

    flow: object
    item: int
    duration: float
    on_complete: Callable[[float], None]
    kind: str
    on_grant: Callable[[int, float], None] | None
    ready: bool = False


@dataclass(slots=True)
class _PendingFetch:
    """An upstream fetch in flight: its trigger kind plus parked waiters.

    ``speculative`` is True only when *this* proxy's planner issued the
    fetch — a child's prefetch miss also travels upstream with
    ``kind="prefetch"`` but is the child's speculation, not ours.
    """

    kind: str  # "demand" | "prefetch"
    speculative: bool = False
    waiters: list[_ChildRequest] = field(default_factory=list)


@dataclass
class ProxyStats:
    """Demand-path accounting of one proxy (child prefetch traffic excluded).

    ``hits``/``misses`` count child *demand* requests against the proxy
    cache — the hit ratio the Che approximation predicts
    (:mod:`repro.analysis.cacheperf`).  ``prefetches_issued`` are the
    proxy's own speculative upstream fetches; ``prefetches_used`` counts
    those later consulted by a demand (as a hit, or as a
    ``prefetch_waits`` demand that arrived mid-flight);
    ``coalesced_waits`` are demands folded onto an upstream fetch already
    in flight.
    """

    requests: int = 0
    hits: int = 0
    misses: int = 0
    coalesced_waits: int = 0
    upstream_demand_fetches: int = 0
    prefetches_issued: int = 0
    prefetches_used: int = 0
    prefetch_waits: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else float("nan")

    @property
    def prefetch_precision(self) -> float:
        if self.prefetches_issued == 0:
            return float("nan")
        return self.prefetches_used / self.prefetches_issued


class ProxyNode:
    """One shared cache tier node between children and a parent.

    Implements the same child-facing interface as
    :class:`~repro.distsys.network.ServerUplink` (``submit`` / ``backlog``),
    so a :class:`~repro.distsys.fleet.FleetClient` — or another proxy —
    attaches to either interchangeably.

    With ``cache=None`` and no speculation the proxy is **pass-through**:
    every submission is relayed verbatim (synchronously, preserving the flow
    id and duration), making the node invisible on the timeline.  With a
    cache, requests are served store-and-forward: hits go out over the
    proxy's ``delivery`` uplink immediately; misses fetch from the parent
    first (coalescing concurrent requests for the same item), admit the item
    per the cache's own policy, then serve every waiter.

    A predictor (any :class:`~repro.prediction.base.AccessPredictor`)
    observes the aggregated child *demand* stream — the shared-tier effect:
    client A's history predicts client B's future.  After each demand the
    proxy plans speculative upstream fetches with the SKP (or KP) solver
    over the predictor's distribution, restricted to items neither cached
    nor pending, truncated to the in-flight ``prefetch_budget``.
    """

    def __init__(
        self,
        name: str,
        queue: EventQueue,
        parent,
        server: ItemServer,
        link_up: Link,
        *,
        cache: Cache | None = None,
        predictor: AccessPredictor | None = None,
        strategy: str = "skp",
        skp_variant: str = "corrected",
        prefetch_budget: int = 0,
        prefetch_window: float = 30.0,
        delivery_concurrency: int | None = None,
        discipline: str = "fifo",
        uplink_streams: int = 1,
    ) -> None:
        self.name = str(name)
        self.queue = queue
        self.parent = parent
        self.server = server
        self.link_up = link_up
        self.cache = cache
        self.predictor = predictor
        # Proxy speculation always plans from a learned edge predictor's
        # rows, so the tied-probability node budget applies unconditionally.
        self.planner = Prefetcher(
            strategy=strategy, variant=skp_variant, node_budget=ONLINE_NODE_BUDGET
        )
        self.prefetch_budget = int(prefetch_budget)
        self.prefetch_window = float(prefetch_window)
        self.uplink_streams = max(1, int(uplink_streams))
        self.speculative = (
            cache is not None and predictor is not None and self.prefetch_budget > 0
        )
        self.transparent = cache is None and not self.speculative
        self.delivery = ServerUplink(
            queue, _FreeService(), concurrency=delivery_concurrency, discipline=discipline
        )
        self.retrievals_up = link_up.retrieval_times(server.sizes)
        self.stats = ProxyStats()
        self._pending: dict[int, _PendingFetch] = {}
        self._origin: dict[int, str] = {}
        self._flows: dict[object, deque[_ChildRequest]] = {}
        self._next_stream = 0
        self._in_flight_prefetches = 0

    # -- child-facing interface (ServerUplink-compatible) ---------------
    def submit(
        self,
        flow,
        item: int,
        duration: float,
        now: float,
        on_complete: Callable[[float], None],
        *,
        kind: str = "demand",
        on_grant: Callable[[int, float], None] | None = None,
    ) -> None:
        if self.transparent:
            self.parent.submit(
                flow, item, duration, now, on_complete, kind=kind, on_grant=on_grant
            )
            return
        item = int(item)
        demand = kind == "demand"
        if demand:
            self.stats.requests += 1
            if self.predictor is not None:
                self.predictor.update(item)
        request = _ChildRequest(flow, item, float(duration), on_complete, kind, on_grant)
        self._flows.setdefault(flow, deque()).append(request)
        if self.cache.access(item):
            if demand:
                self.stats.hits += 1
                if self._origin.get(item) == "prefetch":
                    self.stats.prefetches_used += 1
                    self._origin[item] = "prefetch-used"
            request.ready = True
            self._release(flow, now)
        else:
            if demand:
                self.stats.misses += 1
            pending = self._pending.get(item)
            if pending is not None:
                pending.waiters.append(request)
                if demand:
                    self.stats.coalesced_waits += 1
                    if pending.speculative:
                        self.stats.prefetch_waits += 1
            else:
                if demand:
                    self.stats.upstream_demand_fetches += 1
                self._fetch_upstream(item, now, kind, [request])
        if demand and self.speculative:
            self._speculate(now)

    def backlog(self, flow, now: float) -> float:
        """This flow's queued work as seen at ``now`` — released delivery
        backlog plus the durations of transfers still gated on upstream
        fetches.  Optimistic (the upstream wait itself is excluded), in the
        spirit of :meth:`ServerUplink.backlog` under contention."""
        if self.transparent:
            return self.parent.backlog(flow, now)
        gated = sum(r.duration for r in self._flows.get(flow, ()))
        return self.delivery.backlog(flow, now) + gated

    def _release(self, flow, now: float) -> None:
        """Hand ready head-of-flow transfers to the delivery uplink, in order."""
        queue = self._flows.get(flow)
        if queue is None:
            return
        while queue and queue[0].ready:
            r = queue.popleft()
            self.delivery.submit(
                r.flow, r.item, r.duration, now, r.on_complete,
                kind=r.kind, on_grant=r.on_grant,
            )
        if not queue:
            del self._flows[flow]

    # -- miss propagation ------------------------------------------------
    def _fetch_upstream(
        self,
        item: int,
        now: float,
        kind: str,
        waiters: list[_ChildRequest],
        *,
        speculative: bool = False,
    ) -> None:
        self._pending[item] = _PendingFetch(
            kind=kind, speculative=speculative, waiters=list(waiters)
        )
        stream = (self.name, self._next_stream)
        self._next_stream = (self._next_stream + 1) % self.uplink_streams
        duration = self.link_up.transfer_time(self.server.size(item))
        self.parent.submit(
            stream,
            item,
            duration,
            now,
            lambda completion, it=item: self._fetched(it, completion),
            kind=kind,
        )

    def _fetched(self, item: int, completion: float) -> None:
        entry = self._pending.pop(item)
        if entry.speculative:
            self._in_flight_prefetches -= 1
        victim = self.cache.insert(item)
        if victim is not None:
            self._origin.pop(victim, None)
        self._origin[item] = "prefetch" if entry.speculative else "demand"
        if entry.speculative and any(w.kind == "demand" for w in entry.waiters):
            self.stats.prefetches_used += 1
            self._origin[item] = "prefetch-used"
        for w in entry.waiters:
            w.ready = True
        for w in entry.waiters:
            self._release(w.flow, completion)

    # -- proxy-side speculation -------------------------------------------
    def _speculate(self, now: float) -> None:
        budget = self.prefetch_budget - self._in_flight_prefetches
        if budget <= 0:
            return
        p = np.asarray(self.predictor.predict(), dtype=np.float64)
        total = float(p.sum())
        if total <= 0.0:
            return
        if total > 1.0:  # guard against float drift in normalised rows
            p = p / total
        # Predictor rows are library-normalised (and clamped above), so the
        # per-call re-validation is skipped.  The planner ranks only the
        # positive-probability items, so the solve stays at the predictor's
        # support size (a Markov row, not the whole catalog).
        problem = PrefetchProblem.from_validated(p, self.retrievals_up, self.prefetch_window)
        plan = self.planner.candidate_plan(problem, self.cache.items, self._pending)
        for target in plan.items[:budget]:
            self.stats.prefetches_issued += 1
            self._in_flight_prefetches += 1
            self._fetch_upstream(target, now, "prefetch", [], speculative=True)


# ---------------------------------------------------------------------------
# Topology registry
# ---------------------------------------------------------------------------

#: name -> builder(network, seed) returning (tiers, attach, edge_of_client):
#: ``tiers`` is a bottom-up list of (tier name, [ProxyNode…]); ``attach``
#: maps each client index to its attachment node; ``edge_of_client`` maps
#: each client index to its edge-proxy index (for per-edge demand analysis).
TOPOLOGIES: dict[str, Callable] = {}


def register_topology(name: str):
    """Register a topology builder under ``name`` (decorator)."""

    def decorator(builder):
        if name in TOPOLOGIES:
            raise ValueError(f"topology {name!r} already registered")
        TOPOLOGIES[name] = builder
        return builder

    return decorator


def topology_names() -> tuple[str, ...]:
    return tuple(sorted(TOPOLOGIES))


@register_topology("star")
def _build_star(network: "CacheNetwork", seed: int):
    """PR 2 degenerate case: one pass-through proxy relaying every client
    verbatim to the origin uplink (edge-tier knobs are ignored)."""
    cfg = network.config
    proxy = ProxyNode(
        "edge0",
        network.queue,
        network.origin,
        network.server,
        Link(latency=cfg.edge_latency, bandwidth=cfg.edge_bandwidth),
    )
    n = network.population.n_clients
    return [("edge", [proxy])], [proxy] * n, [0] * n


def _edge_tier(network: "CacheNetwork", parent, seed: int) -> list[ProxyNode]:
    cfg = network.config
    link = Link(latency=cfg.edge_latency, bandwidth=cfg.edge_bandwidth)
    speculative = cfg.placement in ("edge", "both")
    proxies = []
    for k in range(cfg.n_edges):
        cache = _build_cache(
            cfg.edge_cache, cfg.edge_cache_size, network.population.sizes, link,
            derive_seed(seed, tier="edge", proxy=k),
        )
        predictor = None
        if speculative and cache is not None and cfg.edge_prefetch_budget > 0:
            predictor = _build_predictor(cfg.edge_predictor, network.server.n_items)
        proxies.append(
            ProxyNode(
                f"edge{k}",
                network.queue,
                parent,
                network.server,
                link,
                cache=cache,
                predictor=predictor,
                strategy=cfg.edge_strategy,
                skp_variant=cfg.fleet.skp_variant,
                prefetch_budget=cfg.edge_prefetch_budget,
                prefetch_window=cfg.edge_prefetch_window,
                delivery_concurrency=cfg.edge_delivery_concurrency,
                discipline=cfg.fleet.discipline,
                uplink_streams=cfg.edge_uplink_streams,
            )
        )
    return proxies


def _assign_round_robin(n_clients: int, proxies: list[ProxyNode]):
    attach = [proxies[i % len(proxies)] for i in range(n_clients)]
    edge_of_client = [i % len(proxies) for i in range(n_clients)]
    return attach, edge_of_client


@register_topology("tree")
def _build_tree(network: "CacheNetwork", seed: int):
    """Clients → regional edge proxies → origin (round-robin attachment)."""
    edges = _edge_tier(network, network.origin, seed)
    attach, edge_of_client = _assign_round_robin(network.population.n_clients, edges)
    return [("edge", edges)], attach, edge_of_client


@register_topology("two-tier")
def _build_two_tier(network: "CacheNetwork", seed: int):
    """Clients → edge proxies → one mid-tier proxy (cache only) → origin."""
    cfg = network.config
    mid_link = Link(latency=cfg.mid_latency, bandwidth=cfg.mid_bandwidth)
    mid = ProxyNode(
        "mid0",
        network.queue,
        network.origin,
        network.server,
        mid_link,
        cache=_build_cache(
            cfg.mid_cache, cfg.mid_cache_size, network.population.sizes, mid_link,
            derive_seed(seed, tier="mid", proxy=0),
        ),
        discipline=cfg.fleet.discipline,
        uplink_streams=cfg.mid_uplink_streams,
    )
    edges = _edge_tier(network, mid, seed)
    attach, edge_of_client = _assign_round_robin(network.population.n_clients, edges)
    return [("edge", edges), ("mid", [mid])], attach, edge_of_client


def _build_cache(policy: str, capacity: int, sizes, link: Link, seed: int) -> Cache | None:
    # Lazy import keeps distsys below experiments in the layering.
    from repro.experiments.registry import build_server_cache

    return build_server_cache(
        policy, capacity, sizes, latency=link.latency, bandwidth=link.bandwidth, seed=seed
    )


def _build_predictor(name: str, n_items: int) -> AccessPredictor:
    from repro.experiments.registry import PREDICTORS

    return PREDICTORS.create(name, n_items)


# ---------------------------------------------------------------------------
# The network
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TierSummary:
    """Aggregated demand-path accounting of one proxy tier.

    ``caching`` is False for a tier built entirely of pass-through proxies
    (no shared cache anywhere), in which case the demand counters are all
    zero and ``hit_rate`` is NaN.
    """

    tier: str
    n_proxies: int
    caching: bool
    requests: int
    hits: int
    misses: int
    coalesced_waits: int
    upstream_demand_fetches: int
    prefetches_issued: int
    prefetches_used: int
    prefetch_waits: int
    evictions: int
    per_proxy_hit_rate: tuple[float, ...]

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else float("nan")

    @property
    def prefetch_precision(self) -> float:
        if self.prefetches_issued == 0:
            return float("nan")
        return self.prefetches_used / self.prefetches_issued


@dataclass(frozen=True)
class TopologyResult:
    """Outcome of one hierarchy run: client stats, per-tier stats, origin load."""

    config: TopologyConfig
    client_stats: tuple[AccessStats, ...]
    aggregate: FleetAggregate
    tiers: tuple[TierSummary, ...]  # bottom-up: edge, then mid (if any)
    edge_of_client: tuple[int, ...]  # client index -> edge proxy index
    makespan: float
    events: int
    offered_load: float
    origin_utilization: float
    prefetch_load_frac: float
    server_cache_hit_rate: float
    transfers_granted: int

    @property
    def n_clients(self) -> int:
        return len(self.client_stats)

    @property
    def mean_access_time(self) -> float:
        return self.aggregate.mean_access_time

    def tier(self, name: str) -> TierSummary:
        for summary in self.tiers:
            if summary.tier == name:
                return summary
        raise KeyError(f"no tier named {name!r}; have {[t.tier for t in self.tiers]}")

    @property
    def edge_hit_rate(self) -> float:
        """Demand hit ratio of the edge tier (NaN for pass-through edges)."""
        return self.tiers[0].hit_rate if self.tiers else float("nan")


class CacheNetwork:
    """Wire a :class:`Population` through a proxy hierarchy and run it.

    The origin is exactly the fleet's: an :class:`ItemServer` (optional
    shared cache + ``miss_penalty``) behind a :class:`ServerUplink`
    (``concurrency`` / ``discipline``).  The selected topology builder
    interposes proxy tiers and assigns each client an attachment node;
    clients are unmodified :class:`~repro.distsys.fleet.FleetClient`\\ s —
    the hierarchy is invisible to them behind the uplink interface.
    """

    def __init__(
        self,
        population: Population,
        config: TopologyConfig = TopologyConfig(),
        *,
        server_cache: Cache | None = None,
        seed: int = 0,
    ) -> None:
        fleet = config.client_fleet()
        if fleet.engine != "event":
            raise ValueError(
                "a cache network runs on the event engine; run a star's "
                "cohort/hybrid fleet with run_fleet(population, config.client_fleet())"
            )
        self.population = population
        self.config = config
        self.queue = EventQueue()
        self.server = ItemServer(
            population.sizes, cache=server_cache, miss_penalty=fleet.miss_penalty
        )
        self.origin = ServerUplink(
            self.queue,
            self.server,
            concurrency=fleet.concurrency,
            discipline=fleet.discipline,
        )
        self.tiers, attach, self.edge_of_client = TOPOLOGIES[config.topology](self, seed)
        prefetcher = fleet.prefetcher()
        retrievals = self.server.retrieval_times(
            Link(latency=fleet.latency, bandwidth=fleet.bandwidth)
        )
        transfer = retrievals.tolist()
        self.clients = [
            FleetClient(
                workload,
                retrievals,
                transfer,
                attach[i],
                self.queue,
                prefetcher,
                cache_capacity=fleet.cache_capacity,
                planning_window=fleet.planning_window,
                model=build_client_model(fleet, self.server.n_items),
            )
            for i, workload in enumerate(population.clients)
        ]

    def proxies(self, tier: str) -> list[ProxyNode]:
        for name, nodes in self.tiers:
            if name == tier:
                return nodes
        raise KeyError(f"no tier named {tier!r}")

    def run(self) -> TopologyResult:
        accounting = run_to_quiescence(self.queue, self.clients, self.origin, self.server)
        return TopologyResult(
            config=self.config,
            client_stats=tuple(c.stats for c in self.clients),
            aggregate=aggregate_access_stats([c.stats for c in self.clients]),
            tiers=tuple(self._summarise(name, nodes) for name, nodes in self.tiers),
            edge_of_client=tuple(self.edge_of_client),
            makespan=accounting.makespan,
            events=accounting.events,
            offered_load=accounting.offered_load,
            origin_utilization=accounting.utilization,
            prefetch_load_frac=accounting.prefetch_load_frac,
            server_cache_hit_rate=accounting.server_cache_hit_rate,
            transfers_granted=accounting.granted,
        )

    @staticmethod
    def _summarise(name: str, nodes: list[ProxyNode]) -> TierSummary:
        stats = [node.stats for node in nodes]
        return TierSummary(
            tier=name,
            n_proxies=len(nodes),
            caching=any(node.cache is not None for node in nodes),
            requests=sum(s.requests for s in stats),
            hits=sum(s.hits for s in stats),
            misses=sum(s.misses for s in stats),
            coalesced_waits=sum(s.coalesced_waits for s in stats),
            upstream_demand_fetches=sum(s.upstream_demand_fetches for s in stats),
            prefetches_issued=sum(s.prefetches_issued for s in stats),
            prefetches_used=sum(s.prefetches_used for s in stats),
            prefetch_waits=sum(s.prefetch_waits for s in stats),
            evictions=sum(
                node.cache.stats.evictions for node in nodes if node.cache is not None
            ),
            per_proxy_hit_rate=tuple(s.hit_rate for s in stats),
        )


def run_topology(
    population: Population,
    config: TopologyConfig = TopologyConfig(),
    *,
    server_cache: Cache | None = None,
    seed: int = 0,
) -> TopologyResult:
    """Build and run a cache hierarchy in one call.

    ``seed`` feeds per-proxy cache seeds through
    :func:`repro.util.rng.derive_seed` (tier + proxy index only), so results
    are independent of construction or worker order.
    """
    return CacheNetwork(population, config, server_cache=server_cache, seed=seed).run()
