"""Mega-fleet engines: vectorized cohort simulation and a hybrid analytic mode.

The event kernel (:mod:`repro.distsys.fleet`) schedules every request,
transfer grant and completion through one heap — exact under any contention,
but topping out around tens of thousands of events per second.  This module
adds the two scale attacks from the ROADMAP:

**Cohort kernel** (:class:`CohortFleet`, ``engine="cohort"``).  Over an
*unbounded* uplink every client owns a private sequential channel, so the
fleet factorises into independent per-client timelines: the event heap, the
:class:`~repro.distsys.network.ServerUplink` grant machinery and all
cross-client ordering disappear, leaving the shared request step
(:func:`repro.distsys.planning.step`) over one private
:class:`~repro.distsys.network.Channel` per client
(``completion = max(now, busy_until) + (duration + penalty)``).  The kernel
advances clients in chunks, step-major (every client's request k before
any client's request k+1), with all channels feeding one
:class:`~repro.distsys.network.ServiceSums`, and **memoizes planner
solves across the whole cohort**: clients whose probability provider is the
same row are exchangeable up to their private draws, so a planning state —
``(provider row, item, cache fingerprint, pending fingerprint, window)``,
fingerprints maintained by the existing
:class:`~repro.distsys.planning.ClientPlanState` — is solved once per
distinct key and the shared :class:`~repro.core.planner.PlanOutcome` is
replayed everywhere else.  One SKP solve per distinct plan state instead of
one per request is where the throughput comes from; a finite viewing-time
alphabet (``v_quantum`` on :func:`~repro.workload.population
.zipf_mixture_population`) keeps the key space small.  Per-client results
are **bit-exact** with the event engine when ``concurrency=None`` and no
shared server cache couples clients (pinned by
``tests/distsys/test_megafleet.py``); with finite ``concurrency`` the
kernel applies a mean-field M/G/c waiting-time correction
(:func:`repro.analysis.cacheperf.mgc_waiting_time`) to every
uplink-visible access — a documented approximation, not an exact fold.

**Hybrid analytic mode** (:func:`run_hybrid_fleet`, ``engine="hybrid"``).
Simulates a seeded sample of K *real* clients (per-client draws hash from
``(seed, client id)``, so the sample is bit-identical to K members of the
full fleet) through the event kernel at proportionally scaled concurrency,
then closes the remaining N−K clients analytically: the shared server-cache
tier via the Che characteristic-time cascade
(:func:`~repro.analysis.cacheperf.miss_stream_cascade`), and uplink
queueing via an M/G/c correction iterated to a fixed point between the
sampled makespan and the extrapolated fleet load.  This is how a single
process models a million clients; ``docs/scale.md`` derives the fixed point
and states the validity envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.cacheperf import (
    che_cache_hit_ratio,
    empirical_pdf,
    mgc_waiting_time,
    miss_stream_cascade,
    service_moments,
)
from repro.core.planner import ONLINE_NODE_BUDGET, Prefetcher
from repro.distsys.fleet import FleetConfig, FleetResult, build_client_model
from repro.distsys.network import Channel, Link, ServiceSums
from repro.distsys.planning import ClientPlanState, step, warm_start
from repro.simulation.metrics import (
    AccessStats,
    FleetAggregate,
    aggregate_access_stats,
)
from repro.workload.population import Population

__all__ = [
    "CohortFleet",
    "CohortFleetResult",
    "HybridFleetResult",
    "run_cohort_fleet",
    "run_hybrid_fleet",
    "sample_client_ids",
]

#: Cross-client plan-memo bound: past this many distinct plan states the
#: memo is cleared and refills with the currently-hot states (same policy as
#: ``ClientPlanState._VICTIM_MEMO_LIMIT``, sized for full PlanOutcomes).
_PLAN_MEMO_LIMIT = 1 << 16

#: Chunk size: how many clients' traces, planning states and stats are
#: resident at once.  Bounds kernel memory at O(chunk × requests) while the
#: cohort memos persist across chunks.
_CHUNK_CLIENTS = 4096

#: Past this many total requests the kernel stops materialising per-client
#: ``AccessStats`` (python lists) and aggregates from pooled numpy arrays
#: instead — same formulas, same floats, no per-request boxing.
_FULL_STATS_LIMIT = 2_000_000

#: Mean-field validity cap: an offered load above this fraction of the slot
#: count is reported as ``saturated`` and the M/G/c wait is evaluated at the
#: cap (the open-queue formula diverges at ρ = 1, but a closed fleet just
#: stretches its makespan).
_SATURATION_CAP = 0.98


class _CohortMemos:
    """Shared solve caches for one cohort (one distinct probability provider).

    Clients whose planner sees the same probability row face identical
    planning problems whenever their (cache, pending, window) fingerprints
    coincide — the solves are pure functions of the key, so both the
    zero-window demand-victim memo and the full viewing-period plan memo can
    be shared across every client of the cohort.
    """

    __slots__ = ("victim_memo", "plan_memo", "static_row", "solves", "hits")

    def __init__(self, static_row: bool) -> None:
        self.victim_memo: dict = {}
        self.plan_memo: dict = {}
        #: Static rows (Zipf planner views) are item-independent, so the
        #: plan key drops the item; Markov/trace rows condition on it.
        self.static_row = static_row
        self.solves = 0
        self.hits = 0

    def plan(self, state: ClientPlanState, item: int, window: float):
        key = (
            -1 if self.static_row else item,
            state.cache_key(),
            state.pending_key(),
            window,
        )
        outcome = self.plan_memo.get(key)
        if outcome is not None:
            self.hits += 1
            for victim in outcome.eject:
                state.cache_discard(victim)
            return outcome
        self.solves += 1
        outcome = state.plan_view(item, window)  # applies eject itself
        if len(self.plan_memo) >= _PLAN_MEMO_LIMIT:
            self.plan_memo.clear()
        self.plan_memo[key] = outcome
        return outcome


def _cohort_key(workload) -> object:
    """Which cohort a client belongs to: the identity of its provider rows.

    Zipf-style clients are grouped by row *value* (equal planner views share
    solves even across distinct arrays); Markov/trace clients by transition
    identity (hashing an n² matrix per client would cost more than it
    saves — :func:`~repro.workload.population.trace_population` shares one
    matrix object fleet-wide, which is the case that matters).
    """
    if workload.probabilities is not None:
        return workload.probabilities.tobytes()
    return ("transition", id(workload.transition))


@dataclass(frozen=True)
class CohortFleetResult(FleetResult):
    """A :class:`FleetResult` plus cohort-kernel diagnostics.

    ``contention_wait`` is the mean-field per-transfer queueing delay added
    to every uplink-visible access (0.0 when the uplink is unbounded —
    the bit-exact regime); ``saturated`` flags runs whose extrapolated
    offered load hit the mean-field validity cap.
    """

    n_cohorts: int = 0
    plan_solves: int = 0
    plan_memo_hits: int = 0
    contention_wait: float = 0.0
    saturated: bool = False


class CohortFleet:
    """Cohort kernel over an unbounded-uplink fleet.

    See the module docstring for semantics.  ``stats`` selects the output
    shape: ``"full"`` materialises per-client :class:`AccessStats`
    (bit-exact comparisons, windowed drift metrics), ``"pooled"``
    aggregates from numpy pools (mega runs), ``"auto"`` switches on
    :data:`_FULL_STATS_LIMIT`.
    """

    def __init__(
        self,
        population: Population,
        config: FleetConfig = FleetConfig(),
        *,
        server_cache=None,
        stats: str = "auto",
    ) -> None:
        if server_cache is not None:
            raise ValueError(
                "the cohort engine factorises the fleet into independent "
                "clients; a shared server cache couples them — use the "
                "event engine, or the hybrid engine's analytic closure"
            )
        if stats not in ("auto", "full", "pooled"):
            raise ValueError(f"stats must be auto/full/pooled, got {stats!r}")
        self.population = population
        self.config = config
        self.link = Link(latency=config.latency, bandwidth=config.bandwidth)
        self.retrievals = self.link.retrieval_times(population.sizes)
        self.prefetcher = Prefetcher(
            strategy=config.strategy,
            variant=config.skp_variant,
            sub_arbitration=config.sub_arbitration,
            # Same guard as the event engine: learned rows may carry tied
            # probabilities that defeat bound pruning (see core.planner).
            node_budget=ONLINE_NODE_BUDGET if config.model_source == "online" else None,
        )
        #: Cohort-level memoization is sound only when provider rows never
        #: change (oracle model) and plans ignore the per-client frequency
        #: vectors (no LFU/DS sub-arbitration).  Otherwise the kernel still
        #: folds exactly — it just solves per client, like the event engine.
        self.memoize = (
            config.model_source == "oracle" and config.sub_arbitration is None
        )
        self._memos: dict[object, _CohortMemos] = {}
        total = sum(len(c.trace) for c in population.clients)
        if stats == "auto":
            stats = "full" if total <= _FULL_STATS_LIMIT else "pooled"
        self.stats_mode = stats

    # ------------------------------------------------------------------
    def _memos_for(self, workload) -> _CohortMemos | None:
        if not self.memoize:
            return None
        key = _cohort_key(workload)
        memos = self._memos.get(key)
        if memos is None:
            memos = self._memos[key] = _CohortMemos(
                static_row=workload.probabilities is not None
            )
        return memos

    def run(self) -> CohortFleetResult:
        config = self.config
        population = self.population
        n_items = population.n_items
        capacity = int(config.cache_capacity)
        penalty = float(config.miss_penalty)
        transfer = self.retrievals.tolist()
        effective = config.planning_window == "effective"
        full_stats = self.stats_mode == "full"
        # One accumulator for every channel: the service sums fold in the
        # step-major order the mean-field wait below depends on.
        sums = ServiceSums()

        clients = population.clients
        n_clients = len(clients)

        # -- fleet-level accumulators ----------------------------------
        all_stats: list[AccessStats] = []
        pooled_access: list[np.ndarray] = []
        pooled_kinds: list[np.ndarray] = []
        per_client_mean: list[float] = []
        total_hits = total_waits = total_misses = 0
        total_sched = total_used = 0
        net_prefetch = net_demand = 0.0
        makespan = 0.0

        for lo in range(0, n_clients, _CHUNK_CLIENTS):
            chunk = clients[lo:lo + _CHUNK_CLIENTS]
            b = len(chunk)
            # Trace tables as plain Python lists, one row per client:
            # per-element numpy access boxes a scalar per read, which costs
            # more than the step itself.
            items_rows = [[int(x) for x in w.trace.items] for w in chunk]
            views_rows = [w.trace.viewing_times.tolist() for w in chunk]
            lens = [len(r) for r in items_rows]
            steps = max(lens)
            states: list[ClientPlanState] = []
            memos: list[_CohortMemos | None] = []
            channels: list[Channel] = []
            stats_rows: list[AccessStats] = []
            t_next: list[float] = []

            # -- warm start (the event engine's _begin) -----------------
            for w in chunk:
                model = build_client_model(config, n_items)
                state = ClientPlanState(
                    self.prefetcher,
                    model.conditional_row if model is not None else w.provider(),
                    self.retrievals,
                    capacity,
                    n_items,
                    model=model,
                )
                memo = self._memos_for(w)
                if memo is not None and state._victim_memo is not None:
                    # Share the zero-window victim memo across the cohort —
                    # same key space, same soundness condition.
                    state._victim_memo = memo.victim_memo
                channel = Channel(penalty, sums)
                stats = AccessStats()
                now = float(w.start_time)
                viewing = float(w.initial_viewing_time)
                warm_start(
                    state, stats, int(w.initial_item), viewing, now, transfer,
                    channel, memo,
                )
                states.append(state)
                memos.append(memo)
                channels.append(channel)
                stats_rows.append(stats)
                t_next.append(now + viewing)

            # -- step-major sweep: one trace column per pass ------------
            # All clients advance through request k before any sees k+1, so
            # the cohort plan memo warms on the hot early states before the
            # long tail of each trace replays them.
            for k in range(steps):
                for i in range(b):
                    if k < lens[i]:
                        viewing = views_rows[i][k]
                        t_serve, _ = step(
                            states[i], stats_rows[i], items_rows[i][k], viewing,
                            t_next[i], transfer, channels[i], effective, memos[i],
                        )
                        t_next[i] = t_serve + viewing

            # -- fold the chunk into the fleet accumulators -------------
            makespan = max(
                makespan, max(t_next), max(c.busy_until for c in channels)
            )
            total_hits += sum(s.cache_hits for s in stats_rows)
            total_waits += sum(s.pending_waits for s in stats_rows)
            total_misses += sum(s.misses for s in stats_rows)
            total_sched += sum(s.prefetches_scheduled for s in stats_rows)
            total_used += sum(s.prefetches_used for s in stats_rows)
            net_prefetch += sum(s.network_prefetch_time for s in stats_rows)
            net_demand += sum(s.network_demand_time for s in stats_rows)
            if full_stats:
                all_stats.extend(stats_rows)
            else:
                for stats in stats_rows:
                    row = np.asarray(stats.access_times, dtype=np.float64)
                    pooled_access.append(row)
                    pooled_kinds.append(np.asarray(stats.serve_kinds, dtype=np.int8))
                    per_client_mean.append(float(row.mean()) if row.size else float("nan"))

        transfers = total_misses + total_sched  # one transfer per miss or prefetch
        total_service = sums.total
        # -- contention: mean-field M/G/c correction --------------------
        wait, saturated = 0.0, False
        if config.concurrency is not None and transfers and makespan > 0:
            mean_service = total_service / transfers
            var = max(0.0, sums.squares / transfers - mean_service * mean_service)
            scv = var / (mean_service * mean_service) if mean_service > 0 else 0.0
            uplink_visible = total_waits + total_misses
            base = makespan
            # Fixed point between the queueing delay and the stretched
            # makespan it implies: the delay slows every client's request
            # cycle down, which lowers the arrival rate, which lowers the
            # delay.  The map is monotone decreasing in the delay, so the
            # half-step damping cannot 2-cycle between the clamped and
            # unclamped branches of the saturation cap.
            for _ in range(200):
                wait, saturated = _contention_wait(
                    transfers / makespan, int(config.concurrency), mean_service, scv
                )
                stretched = base + wait * uplink_visible / n_clients
                done = abs(stretched - makespan) <= 1e-9 * max(1.0, makespan)
                makespan = 0.5 * (makespan + stretched)
                if done:
                    makespan = stretched
                    break
            if wait > 0.0:
                if full_stats:
                    for stats in all_stats:
                        times = stats.access_times
                        for j, kind in enumerate(stats.serve_kinds):
                            if kind != AccessStats.KIND_HIT:
                                times[j] += wait
                else:
                    for acc, knd in zip(pooled_access, pooled_kinds):
                        acc[knd != AccessStats.KIND_HIT] += wait

        # -- aggregate ---------------------------------------------------
        if full_stats:
            aggregate = aggregate_access_stats(all_stats)
            client_stats = tuple(all_stats)
        else:
            aggregate = self._pooled_aggregate(
                pooled_access, per_client_mean,
                total_hits, total_waits, total_misses,
                total_sched, total_used, net_prefetch, net_demand,
            )
            client_stats = ()

        offered = total_service / makespan if makespan > 0 else 0.0
        slots = config.concurrency
        # What the event engine would have popped: one _begin per client, one
        # _request per trace entry, one completion per granted transfer.
        events = n_clients + population.total_requests + transfers
        solves = sum(m.solves for m in self._memos.values())
        hits_memo = sum(m.hits for m in self._memos.values())
        return CohortFleetResult(
            config=config,
            client_stats=client_stats,
            aggregate=aggregate,
            makespan=makespan,
            events=events,
            offered_load=offered,
            server_utilization=offered / slots if slots else float("nan"),
            prefetch_load_frac=(
                sums.prefetch / total_service if total_service else 0.0
            ),
            server_cache_hit_rate=float("nan"),
            transfers_granted=transfers,
            n_cohorts=len(self._memos) if self.memoize else 0,
            plan_solves=solves,
            plan_memo_hits=hits_memo,
            contention_wait=wait,
            saturated=saturated,
        )

    @staticmethod
    def _pooled_aggregate(
        pooled_access, per_client_mean,
        hits, waits, misses, scheduled, used, net_prefetch, net_demand,
    ) -> FleetAggregate:
        """The :func:`aggregate_access_stats` arithmetic over numpy pools."""
        pooled = (
            np.concatenate(pooled_access) if pooled_access else np.empty(0)
        )
        requests = hits + waits + misses
        per_client = np.asarray(per_client_mean, dtype=np.float64)
        if per_client.size and float((per_client**2).sum()) > 0.0:
            fairness = float(per_client.sum()) ** 2 / (
                per_client.size * float((per_client**2).sum())
            )
        else:
            fairness = 1.0
        if pooled.size:
            p50, p95, p99 = (
                float(np.percentile(pooled, q)) for q in (50, 95, 99)
            )
            mean = float(pooled.mean())
        else:
            p50 = p95 = p99 = mean = float("nan")
        return FleetAggregate(
            n_clients=len(per_client_mean),
            requests=requests,
            mean_access_time=mean,
            p50_access_time=p50,
            p95_access_time=p95,
            p99_access_time=p99,
            hit_rate=hits / requests if requests else float("nan"),
            prefetch_precision=used / scheduled if scheduled else float("nan"),
            network_prefetch_time=net_prefetch,
            network_demand_time=net_demand,
            fairness=fairness,
            per_client_mean=per_client,
        )


def run_cohort_fleet(
    population: Population,
    config: FleetConfig = FleetConfig(),
    *,
    server_cache=None,
    stats: str = "auto",
) -> CohortFleetResult:
    """Build and run the cohort kernel in one call."""
    return CohortFleet(
        population, config, server_cache=server_cache, stats=stats
    ).run()


def _contention_wait(
    arrival_rate: float, servers: int, mean_service: float, scv: float
) -> tuple[float, bool]:
    """Mean M/G/c queueing delay, capped at the mean-field validity edge.

    A closed fleet never diverges the way the open-queue formula does at
    ρ = 1 (its makespan stretches instead), so at or beyond
    :data:`_SATURATION_CAP` the wait is evaluated at the cap and the run is
    flagged ``saturated`` — consumers should treat those numbers as a lower
    bound, not a prediction (see ``docs/scale.md``).
    """
    if mean_service <= 0.0:
        return 0.0, False
    offered = arrival_rate * mean_service
    cap = _SATURATION_CAP * servers
    saturated = offered >= cap
    if saturated:
        arrival_rate = cap / mean_service
    return mgc_waiting_time(arrival_rate, servers, mean_service, scv), saturated


# ---------------------------------------------------------------------------
# Hybrid analytic mode
# ---------------------------------------------------------------------------

def sample_client_ids(n_clients: int, sample_size: int) -> list[int]:
    """K deterministic, evenly spaced client ids out of ``n_clients``.

    Evenly spaced rather than a prefix so workloads whose structure varies
    with the id (trace slices, staggered starts) are sampled across the
    fleet, not from one end; deterministic so hybrid runs are reproducible
    and CRN-comparable against the full event run.
    """
    n = int(n_clients)
    k = min(int(sample_size), n)
    if k < 1:
        raise ValueError("sample_size must be positive")
    return [(j * n) // k for j in range(k)]


@dataclass(frozen=True)
class HybridFleetResult(FleetResult):
    """Fleet-scale metrics from a sampled simulation plus analytic closure.

    The :class:`FleetResult` fields describe the *modeled* fleet of
    ``n_modeled`` clients: ``aggregate`` / ``client_stats`` are the sampled
    clients' statistics with the fleet-vs-sample waiting-time correction
    ``delta_wait`` folded into every uplink-visible access, ``makespan`` /
    ``offered_load`` / ``server_utilization`` are the fixed-point
    extrapolations, and ``events`` / ``transfers_granted`` count what was
    actually simulated (the sample).  Extra fields carry the closure's
    diagnostics.
    """

    n_modeled: int = 0
    sample_size: int = 0
    wait_sample: float = 0.0
    wait_fleet: float = 0.0
    delta_wait: float = 0.0
    fixed_point_iterations: int = 0
    converged: bool = True
    saturated: bool = False
    che_client_hit_rate: float = 0.0
    che_server_hit_rate: float = 0.0

    @property
    def n_clients(self) -> int:  # modeled, not simulated
        return self.n_modeled


def run_hybrid_fleet(
    population_factory,
    n_clients: int,
    config: FleetConfig = FleetConfig(),
    *,
    sample_size: int | None = None,
    server_cache_size: int = 0,
    max_iterations: int = 50,
) -> HybridFleetResult:
    """Model ``n_clients`` clients from a simulated sample of K of them.

    ``population_factory(client_ids)`` must return the :class:`Population`
    holding exactly those members of the full fleet (the ``client_ids``
    parameter of the population builders).  ``server_cache_size > 0``
    replaces the shared server cache with its Che closure: the expected
    backing-store penalty ``miss_penalty × (1 − h_server)`` is folded into
    every transfer, where ``h_server`` comes from the client→server
    miss-stream cascade.  See ``docs/scale.md`` for the derivation and the
    validity envelope.
    """
    from repro.distsys.fleet import run_fleet

    n = int(n_clients)
    k_ids = sample_client_ids(
        n, config.hybrid_sample if sample_size is None else sample_size
    )
    k = len(k_ids)
    sample = population_factory(k_ids)
    if sample.n_clients != k:
        raise ValueError(
            f"population_factory returned {sample.n_clients} clients "
            f"for {k} requested ids"
        )

    # -- cache-tier closure (Che): client tier, then the shared server tier.
    pooled_pdf = empirical_pdf(
        np.concatenate([c.trace.items for c in sample.clients]), sample.n_items
    )
    che_client = (
        che_cache_hit_ratio(pooled_pdf, config.cache_capacity)
        if config.cache_capacity > 0
        else 0.0
    )
    (_, che_server), (miss_pdf, _) = miss_stream_cascade(
        pooled_pdf, [config.cache_capacity, int(server_cache_size)]
    )
    effective_penalty = config.miss_penalty * (1.0 - che_server)

    # -- simulate the sample at proportionally scaled concurrency ----------
    c_full = config.concurrency
    c_sample = (
        None if c_full is None else max(1, round(int(c_full) * k / n))
    )
    sample_config = replace(
        config,
        engine="event",
        concurrency=c_sample,
        miss_penalty=effective_penalty,
    )
    res = run_fleet(sample, sample_config)

    # -- uplink fixed point: extrapolate load, correct queueing ------------
    total_service = res.offered_load * res.makespan
    transfers = res.transfers_granted
    per_client_service = total_service / k
    transfers_per_client = transfers / k
    uplink_accesses = sum(s.pending_waits + s.misses for s in res.client_stats)
    uplink_per_client = uplink_accesses / k

    wait_sample = wait_fleet = 0.0
    saturated = False
    converged = True
    iterations = 0
    makespan = res.makespan
    if c_full is not None and transfers and res.makespan > 0:
        # Service-time moments from the analytic uplink mix (the client-tier
        # miss stream): deterministic per item, general over the mix.
        link = Link(latency=config.latency, bandwidth=config.bandwidth)
        per_item_service = link.retrieval_times(sample.sizes) + effective_penalty
        _, scv = service_moments(miss_pdf, per_item_service)
        mean_service = total_service / transfers
        wait_sample, sat_k = _contention_wait(
            transfers / res.makespan, int(c_sample), mean_service, scv
        )
        converged = False
        for iterations in range(1, max_iterations + 1):
            rate = transfers_per_client * n / makespan
            wait_fleet, saturated = _contention_wait(
                rate, int(c_full), mean_service, scv
            )
            delta = wait_fleet - wait_sample
            new_makespan = res.makespan + max(0.0, delta) * uplink_per_client
            if abs(new_makespan - makespan) <= 1e-9 * max(1.0, makespan):
                makespan = new_makespan
                converged = True
                break
            # Half-step damping: the wait-vs-makespan map is monotone
            # decreasing, so the undamped iteration can 2-cycle around the
            # saturation cap instead of settling on the fixed point.
            makespan = 0.5 * (makespan + new_makespan)
        saturated = saturated or sat_k

    delta_wait = wait_fleet - wait_sample

    # -- fold the correction into the sampled per-request records ----------
    client_stats = res.client_stats
    if delta_wait != 0.0:
        adjusted = []
        for s in client_stats:
            times = [
                max(0.0, t + delta_wait) if kind != AccessStats.KIND_HIT else t
                for t, kind in zip(s.access_times, s.serve_kinds)
            ]
            adjusted.append(
                AccessStats(
                    cache_hits=s.cache_hits,
                    pending_waits=s.pending_waits,
                    misses=s.misses,
                    prefetches_scheduled=s.prefetches_scheduled,
                    prefetches_used=s.prefetches_used,
                    network_prefetch_time=s.network_prefetch_time,
                    network_demand_time=s.network_demand_time,
                    access_times=times,
                    request_times=list(s.request_times),
                    serve_kinds=list(s.serve_kinds),
                )
            )
        client_stats = tuple(adjusted)
    aggregate = aggregate_access_stats(list(client_stats))

    offered = per_client_service * n / makespan if makespan > 0 else 0.0
    return HybridFleetResult(
        config=config,
        client_stats=client_stats,
        aggregate=aggregate,
        makespan=makespan,
        events=res.events,
        offered_load=offered,
        server_utilization=(
            offered / int(c_full) if c_full is not None else float("nan")
        ),
        prefetch_load_frac=res.prefetch_load_frac,
        server_cache_hit_rate=(
            che_server if server_cache_size > 0 else float("nan")
        ),
        transfers_granted=transfers,
        n_modeled=n,
        sample_size=k,
        wait_sample=wait_sample,
        wait_fleet=wait_fleet,
        delta_wait=delta_wait,
        fixed_point_iterations=iterations,
        converged=converged,
        saturated=saturated,
        che_client_hit_rate=che_client,
        che_server_hit_rate=che_server,
    )
