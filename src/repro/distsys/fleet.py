"""Fleet simulator: N prefetching clients contending for one server uplink.

The single-client engines answer "does speculation pay off over a private
link?".  The fleet answers the production question: what happens when every
client's prefetch traffic competes with every other client's *demand*
traffic for the same server egress.  N event-driven clients share one
:class:`~repro.distsys.events.EventQueue`, one
:class:`~repro.distsys.server.ItemServer` (optionally fronted by a shared
server-side cache) and one :class:`~repro.distsys.network.ServerUplink`
with finite concurrency and FIFO or fair cross-client scheduling — so
prefetch intrusion becomes a cross-client effect, not just a per-client
stretch.

Each :class:`FleetClient` runs the request step every engine shares
(:mod:`repro.distsys.planning`: transfers never aborted, demand fetches
wait for the client's whole backlog, eviction lists leave the cache at
planning time, each admitted prefetch paired with a victim or free slot),
but fully event-driven: completion times emerge from the shared timeline
instead of being computed at enqueue.  A 1-client fleet over an unbounded
uplink reproduces the lean §5.3 simulator's access times *bit-exactly*
(see ``tests/integration/test_cross_engine.py``); it is also the
single-client entry point — give it a one-client
:class:`~repro.workload.population.Population`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.cache.base import Cache
from repro.core.planner import ONLINE_NODE_BUDGET, Prefetcher
from repro.distsys.events import EventQueue
from repro.distsys.network import Link, ServerUplink
from repro.distsys.planning import (
    KIND_HIT,
    KIND_MISS,
    KIND_WAIT,
    ClientPlanState,
    arrive,
    plan,
    serve,
    warm_start,
)
from repro.distsys.server import ItemServer
from repro.simulation.metrics import AccessStats, FleetAggregate, aggregate_access_stats
from repro.workload.population import (
    ClientWorkload,
    LazyPopulation,
    Population,
    subset_population,
)

__all__ = [
    "FleetConfig",
    "FleetClient",
    "Fleet",
    "FleetResult",
    "UplinkAccounting",
    "build_client_model",
    "run_fleet",
    "run_to_quiescence",
]


@dataclass(frozen=True)
class FleetConfig:
    """Shared knobs of one fleet run (per-client workloads live in the
    :class:`~repro.workload.population.Population`)."""

    cache_capacity: int = 8
    strategy: str = "skp"  # "none" | "kp" | "skp"
    sub_arbitration: str | None = None  # None | "lfu" | "ds"
    skp_variant: str = "corrected"
    planning_window: str = "nominal"  # "nominal" | "effective"
    concurrency: int | None = 4  # uplink slots; None = unbounded
    discipline: str = "fifo"  # "fifo" | "fair"
    latency: float = 0.0
    bandwidth: float = 1.0
    miss_penalty: float = 0.0  # server-cache miss service penalty
    #: Where planning rows come from: "oracle" hands every client its
    #: workload's (t=0) probability provider — the paper's presupposed
    #: model; "online" gives each client a private adaptive predictor
    #: (``online_predictor`` names a :data:`repro.experiments.registry
    #: .PREDICTORS` entry) that learns from the served request stream.
    model_source: str = "oracle"
    online_predictor: str = "markov:ewma"
    #: Which kernel advances the fleet: "event" is the exact shared-heap
    #: engine; "cohort" the vectorized struct-of-arrays kernel with
    #: cohort-level plan memoization (:mod:`repro.distsys.megafleet` —
    #: bit-exact over an unbounded uplink, mean-field under contention);
    #: "hybrid" simulates ``hybrid_sample`` real clients through the event
    #: engine and closes the rest analytically (Che + M/G/c fixed point).
    engine: str = "event"
    hybrid_sample: int = 64  # simulated sample size of the hybrid engine

    def __post_init__(self) -> None:
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        if self.planning_window not in ("nominal", "effective"):
            raise ValueError(f"unknown planning_window {self.planning_window!r}")
        if self.concurrency is not None and self.concurrency < 1:
            raise ValueError(
                f"concurrency must be a positive slot count or None (unbounded), "
                f"got {self.concurrency!r}"
            )
        if self.discipline not in ("fifo", "fair"):
            raise ValueError(f"discipline must be 'fifo' or 'fair', got {self.discipline!r}")
        if self.model_source not in ("oracle", "online"):
            raise ValueError(
                f"model_source must be 'oracle' or 'online', got {self.model_source!r}"
            )
        if self.engine not in ("event", "cohort", "hybrid"):
            raise ValueError(
                f"engine must be 'event', 'cohort' or 'hybrid', got {self.engine!r}"
            )
        if self.hybrid_sample < 1:
            raise ValueError("hybrid_sample must be positive")
        self.prefetcher()  # strategy, variant and sub-arbitration fail here

    def prefetcher(self) -> Prefetcher:
        """The planner every client of this fleet plans with."""
        return Prefetcher(
            strategy=self.strategy,
            variant=self.skp_variant,
            sub_arbitration=self.sub_arbitration,
            # Online rows are learned, so they can carry exactly tied
            # probabilities that defeat bound pruning; cap the solve.
            # Oracle rows keep the proven-optimal (bit-exact) search.
            node_budget=ONLINE_NODE_BUDGET if self.model_source == "online" else None,
        )


class FleetClient:
    """One event-driven prefetching client inside a fleet.

    Runs the request step of :mod:`repro.distsys.planning` piece by piece,
    driven entirely by scheduled events: ``start()`` schedules the warm
    start at the client's (possibly staggered) start time; a request is
    classified by :func:`~repro.distsys.planning.arrive` and, unless it
    hits, finished by :func:`~repro.distsys.planning.serve` from the uplink
    callback that delivers its transfer; every served request plans its
    viewing period, submits the admitted prefetches and schedules the next
    request.  Under contention completions emerge from the shared timeline,
    so a prefetch stays pending with an unknown completion until the uplink
    grants it a slot.

    ``retrievals`` (array) and ``transfer`` (list) are the engine's per-item
    client-link transfer times, shared by every client.  With an online
    ``model`` (``model_source="online"``) planning rows are learned from the
    served stream instead of the workload's oracle provider.
    """

    __slots__ = (
        "client_id",
        "workload",
        "uplink",
        "queue",
        "effective",
        "state",
        "stats",
        "finished_at",
        "_k",
        "_waiting",
        "_items",
        "_viewings",
        "_transfer",
    )

    def __init__(
        self,
        workload: ClientWorkload,
        retrievals: np.ndarray,
        transfer: list[float],
        uplink: ServerUplink,
        queue: EventQueue,
        prefetcher: Prefetcher,
        *,
        cache_capacity: int,
        planning_window: str = "nominal",
        model=None,
    ) -> None:
        if planning_window not in ("nominal", "effective"):
            raise ValueError(f"unknown planning_window {planning_window!r}")
        self.client_id = int(workload.client_id)
        self.workload = workload
        self.uplink = uplink
        self.queue = queue
        self.effective = planning_window == "effective"
        self.state = ClientPlanState(
            prefetcher,
            model.conditional_row if model is not None else workload.provider(),
            retrievals,
            cache_capacity,
            len(transfer),
            model=model,
        )
        self.stats = AccessStats()
        self.finished_at: float | None = None

        self._k = 0  # next trace index
        self._waiting: tuple[int, int, float] | None = None  # (index, item, t_req)
        # Batch the per-request numpy scalar reads into plain lists up front.
        self._items = [int(i) for i in workload.trace.items]
        self._viewings = workload.trace.viewing_times.tolist()
        self._transfer = transfer

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self.queue.schedule(self.workload.start_time, self._begin)

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    def _begin(self) -> None:
        now = self.queue.now
        viewing = float(self.workload.initial_viewing_time)
        self._submit(
            warm_start(
                self.state, self.stats, int(self.workload.initial_item), viewing,
                now, self._transfer,
            ),
            now,
        )
        self._schedule_request(now + viewing)

    def _schedule_request(self, at: float) -> None:
        if self._k < len(self._items):
            self.queue.schedule(at, self._request)
        else:
            self.finished_at = at

    # -- request handling ----------------------------------------------
    def _request(self) -> None:
        now = self.queue.now
        k = self._k
        item = self._items[k]
        kind = arrive(self.state, self.stats, item, now)
        if kind == KIND_HIT:
            self._serve(k, item, kind, now, now)
        elif kind == KIND_WAIT:
            self._waiting = (k, item, now)  # served by the transfer's arrival
        else:
            duration = self._transfer[item]
            self.stats.network_demand_time += duration
            self.uplink.submit(
                self.client_id,
                item,
                duration,
                now,
                lambda completion, k=k, item=item, t_req=now: self._serve(
                    k, item, KIND_MISS, t_req, completion
                ),
                kind="demand",
            )

    def _granted(self, item: int, completion: float) -> None:
        pending = self.state.pending
        if item in pending:
            pending[item] = completion  # membership unchanged: direct write

    def _prefetch_done(self, item: int, completion: float) -> None:
        waiting = self._waiting
        if waiting is not None and waiting[1] == item:
            self._waiting = None
            self._serve(waiting[0], item, KIND_WAIT, waiting[2], completion)

    def _serve(self, k: int, item: int, kind: int, t_req: float, t_serve: float) -> None:
        state = self.state
        serve(state, self.stats, item, kind, t_req, t_serve)
        viewing = self._viewings[k]
        self._k = k + 1
        window = viewing
        if self.effective:
            window = max(0.0, viewing - self.uplink.backlog(self.client_id, t_serve))
        self._submit(
            plan(state, self.stats, item, window, t_serve, self._transfer), t_serve
        )
        self._schedule_request(t_serve + viewing)

    def _submit(self, outcome, now: float) -> None:
        """Put the planned prefetches on the uplink, in plan order."""
        for f in outcome.prefetch:
            self.uplink.submit(
                self.client_id,
                f,
                self._transfer[f],
                now,
                lambda completion, it=f: self._prefetch_done(it, completion),
                kind="prefetch",
                on_grant=self._granted,
            )


@dataclass(frozen=True)
class UplinkAccounting:
    """What one run of an event-driven population measured at its bottleneck."""

    events: int
    makespan: float
    offered_load: float
    utilization: float
    prefetch_load_frac: float
    server_cache_hit_rate: float
    granted: int


def run_to_quiescence(queue, clients, uplink, server) -> UplinkAccounting:
    """Start every client, drain the queue, account the shared uplink.

    The one implementation behind :meth:`Fleet.run` and
    :meth:`repro.distsys.topology.CacheNetwork.run` — the star==fleet
    bit-exactness contract depends on the two engines folding identical
    accounting arithmetic.
    """
    for client in clients:
        client.start()
    events = queue.run()
    unfinished = [c.client_id for c in clients if not c.done]
    if unfinished:  # pragma: no cover - would indicate an engine bug
        raise RuntimeError(f"clients {unfinished} never finished their traces")
    makespan = max(queue.now, max(c.finished_at for c in clients))
    total_service = uplink.total_service_time
    offered = total_service / makespan if makespan > 0 else 0.0
    slots = uplink.concurrency
    cache = server.cache
    return UplinkAccounting(
        events=events,
        makespan=makespan,
        offered_load=offered,
        utilization=offered / slots if slots else float("nan"),
        prefetch_load_frac=(
            uplink.service_time_by_kind["prefetch"] / total_service
            if total_service
            else 0.0
        ),
        server_cache_hit_rate=cache.stats.hit_rate if cache is not None else float("nan"),
        granted=uplink.granted,
    )


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one fleet run: per-client stats plus fleet-level metrics.

    ``offered_load`` is the mean number of concurrent transfers (Erlangs:
    total service time / makespan) and is always defined;
    ``server_utilization`` is the fraction of slot-time in use
    (``offered_load / concurrency``) and is NaN for an unbounded uplink,
    where there is no slot count to divide by.
    """

    config: FleetConfig
    client_stats: tuple[AccessStats, ...]
    aggregate: FleetAggregate
    makespan: float
    events: int
    offered_load: float
    server_utilization: float
    prefetch_load_frac: float
    server_cache_hit_rate: float
    transfers_granted: int

    @property
    def n_clients(self) -> int:
        return len(self.client_stats)

    @property
    def mean_access_time(self) -> float:
        return self.aggregate.mean_access_time


def build_client_model(config: FleetConfig, n_items: int):
    """One fresh per-client online predictor, or None for the oracle path.

    Resolved by name in :data:`repro.experiments.registry.PREDICTORS`
    (lazy import — same layering concession :mod:`repro.distsys.topology`
    makes for its edge predictors).
    """
    if config.model_source != "online":
        return None
    from repro.experiments.registry import PREDICTORS

    return PREDICTORS.create(str(config.online_predictor), int(n_items))


class Fleet:
    """Wire a :class:`Population` to one shared server and run it to quiescence."""

    def __init__(
        self,
        population: Population,
        config: FleetConfig = FleetConfig(),
        *,
        server_cache: Cache | None = None,
    ) -> None:
        self.population = population
        self.config = config
        self.queue = EventQueue()
        self.server = ItemServer(
            population.sizes, cache=server_cache, miss_penalty=config.miss_penalty
        )
        link = Link(latency=config.latency, bandwidth=config.bandwidth)
        retrievals = self.server.retrieval_times(link)
        transfer = retrievals.tolist()
        self.uplink = ServerUplink(
            self.queue,
            self.server,
            concurrency=config.concurrency,
            discipline=config.discipline,
        )
        prefetcher = config.prefetcher()
        self.clients = [
            FleetClient(
                workload,
                retrievals,
                transfer,
                self.uplink,
                self.queue,
                prefetcher,
                cache_capacity=config.cache_capacity,
                planning_window=config.planning_window,
                model=build_client_model(config, self.server.n_items),
            )
            for workload in population.clients
        ]

    def run(self) -> FleetResult:
        accounting = run_to_quiescence(self.queue, self.clients, self.uplink, self.server)
        return FleetResult(
            config=self.config,
            client_stats=tuple(c.stats for c in self.clients),
            aggregate=aggregate_access_stats([c.stats for c in self.clients]),
            makespan=accounting.makespan,
            events=accounting.events,
            offered_load=accounting.offered_load,
            server_utilization=accounting.utilization,
            prefetch_load_frac=accounting.prefetch_load_frac,
            server_cache_hit_rate=accounting.server_cache_hit_rate,
            transfers_granted=accounting.granted,
        )


def run_fleet(
    population: Population | LazyPopulation,
    config: FleetConfig = FleetConfig(),
    *,
    server_cache: Cache | None = None,
) -> FleetResult:
    """Build and run a fleet in one call, dispatching on ``config.engine``.

    The hybrid engine samples ``config.hybrid_sample`` members of
    ``population``: pass a :class:`~repro.workload.population.LazyPopulation`
    to model a fleet far larger than what you can afford to build (only the
    sample is ever built), or a built population to sample from it.  It
    closes a shared server cache analytically from ``server_cache``'s
    capacity.  The event and cohort engines need a built population.
    """
    if config.engine == "cohort":
        from repro.distsys.megafleet import run_cohort_fleet

        return run_cohort_fleet(population, config, server_cache=server_cache)
    if config.engine == "hybrid":
        from repro.distsys.megafleet import run_hybrid_fleet

        if isinstance(population, LazyPopulation):
            build = population.build
        else:
            build = partial(subset_population, population)
        return run_hybrid_fleet(
            build,
            population.n_clients,
            config,
            server_cache_size=getattr(server_cache, "capacity", 0),
        )
    return Fleet(population, config, server_cache=server_cache).run()
