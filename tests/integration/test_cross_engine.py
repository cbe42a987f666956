"""Cross-engine integration test.

The lean §5.3 simulator (:func:`repro.simulation.prefetch_cache
.run_prefetch_cache`) folds each request synchronously over a private
channel; the fleet (:func:`repro.distsys.fleet.run_fleet`) learns every
transfer completion from its uplink through the event queue.  On an
equal-footing configuration — unit link, item sizes equal to the catalog
retrieval times, oracle probability provider, identical request sequence
and seed — a 1-client fleet over an unbounded uplink must reproduce the
lean engine *exactly*.

Both engines run the same request step (:mod:`repro.distsys.planning`), so
this pins the event plumbing around it: any divergence in carry-over
handling, promotion order or planning windows breaks it.  The golden
traces below pin the step itself.
"""

import numpy as np
import pytest

from repro.cache.policies import LRUCache
from repro.distsys import (
    FleetConfig,
    TopologyConfig,
    run_fleet,
    run_topology,
)
from repro.simulation import PrefetchCacheConfig, run_prefetch_cache
from repro.simulation.metrics import AccessStats
from repro.workload import generate_markov_source, record_markov_trace
from repro.workload.population import (
    ClientWorkload,
    Population,
    zipf_mixture_population,
)


@pytest.mark.parametrize(
    "strategy,sub",
    [("none", None), ("kp", None), ("skp", None), ("skp", "lfu"), ("skp", "ds")],
)
@pytest.mark.parametrize("window", ["nominal", "effective"])
def test_lean_matches_single_client_fleet(strategy, sub, window):
    """A 1-client fleet over an unbounded uplink IS the lean engine."""
    seed = 1234
    n_requests = 300
    source = generate_markov_source(30, out_degree=(3, 6), seed=8)

    lean = run_prefetch_cache(
        source,
        PrefetchCacheConfig(
            cache_size=6,
            n_requests=n_requests,
            strategy=strategy,
            sub_arbitration=sub,
            planning_window=window,
            seed=seed,
        ),
    )

    # Reconstruct the identical request sequence: the lean engine seeds its
    # initial state from rng.integers(n) and then walks with rng.random —
    # exactly what record_markov_trace does with the same seed.
    initial = int(np.random.default_rng(seed).integers(source.n))
    trace = record_markov_trace(source, n_requests, seed=seed)
    population = Population(
        sizes=source.retrieval_times,
        clients=(
            ClientWorkload(
                client_id=0,
                trace=trace,
                initial_item=initial,
                initial_viewing_time=float(source.viewing_times[initial]),
                transition=source.transition,
            ),
        ),
    )
    fleet = run_fleet(
        population,
        FleetConfig(
            cache_capacity=6,
            strategy=strategy,
            sub_arbitration=sub,
            planning_window=window,
            concurrency=None,  # unbounded uplink = a private link
        ),
    )

    stats = fleet.client_stats[0]
    assert stats.access_times == lean.access_times.tolist()
    assert {
        "cache-hit": stats.cache_hits,
        "pending-wait": stats.pending_waits,
        "miss": stats.misses,
    } == lean.hit_counts
    assert stats.prefetches_scheduled == lean.prefetches_scheduled
    assert stats.prefetches_used == lean.prefetches_used
    assert stats.network_prefetch_time == lean.network_prefetch_time
    assert stats.network_demand_time == lean.network_demand_time


# ---------------------------------------------------------------------------
# Golden-trace regression: the fast simulation kernel must be bit-exact.
#
# These fingerprints were recorded from the engines *before* the fast-kernel
# rewrite (tuple event heap, pure-Python SKP hot loop, validated-once problem
# construction, shared planning state).  Every optimisation since must fold
# the identical floats in the identical order: event counts, makespans and
# metric tables are compared with ``==``, not a tolerance.  If one of these
# fails, the kernel changed simulation *semantics*, not just speed.
# ---------------------------------------------------------------------------

GOLDEN_TRACES = {
    "fleet_zipf": {
        "events": 960,
        "makespan": 5107.584846736372,
        "mean_access_time": 11.499762010335825,
        "p95_access_time": 41.84788944410366,
        "hit_rate": 0.5458333333333333,
        "transfers_granted": 474,
        "offered_load": 1.6181604371761131,
        "prefetches_scheduled": 261,
        "prefetches_used": 38,
        "access_time_sum": 5519.885764961196,
    },
    "fleet_markov_fair_ds": {
        "events": 1013,
        "makespan": 4671.8281441228555,
        "mean_access_time": 19.283866731826553,
        "p95_access_time": 55.41202098077682,
        "hit_rate": 0.3875,
        "transfers_granted": 769,
        "offered_load": 2.835944277771909,
        "prefetches_scheduled": 637,
        "prefetches_used": 91,
        "access_time_sum": 4628.128015638373,
    },
    "topology_tree": {
        "events": 1268,
        "makespan": 4943.926909259423,
        "mean_access_time": 13.788325313523297,
        "p95_access_time": 57.89362897592416,
        "hit_rate": 0.5416666666666666,
        "transfers_granted": 290,
        "offered_load": 0.982967416273246,
        "prefetches_scheduled": 273,
        "prefetches_used": 51,
        "access_time_sum": 6618.396150491182,
        "edge_hits": 80,
        "edge_misses": 137,
        "edge_prefetches_issued": 136,
        "edge_prefetches_used": 25,
    },
    "topology_two_tier": {
        "events": 1213,
        "makespan": 4367.91206248045,
        "mean_access_time": 13.98239373590619,
        "p95_access_time": 55.820598730954316,
        "hit_rate": 0.4777777777777778,
        "transfers_granted": 120,
        "offered_load": 0.40146272726995885,
        "prefetches_scheduled": 240,
        "prefetches_used": 35,
        "access_time_sum": 5033.6617449262285,
        "edge_hits": 64,
        "mid_hits": 66,
        "edge_prefetches_issued": 130,
    },
    # Hierarchy coverage beyond the basic tree/two-tier shapes: fair origin
    # scheduling + DS sub-arbitration + effective planning windows on a
    # 3-edge tree, and a Markov population through edge + mid tiers — so
    # kernel work is pinned on every scheduling/planning combination the
    # hierarchies exercise, not just the FIFO/nominal defaults.
    "topology_tree_fair_effective": {
        "events": 878,
        "makespan": 4333.498009885602,
        "mean_access_time": 11.763589024116744,
        "p95_access_time": 50.70968522204751,
        "hit_rate": 0.5777777777777777,
        "transfers_granted": 177,
        "offered_load": 0.697722922892753,
        "prefetches_scheduled": 184,
        "prefetches_used": 26,
        "access_time_sum": 4234.892048682028,
        "edge_hits": 47,
        "edge_misses": 104,
        "edge_prefetches_issued": 43,
        "edge_prefetches_used": 6,
    },
    "topology_two_tier_markov": {
        "events": 2309,
        "makespan": 4256.656492851777,
        "mean_access_time": 18.22645073573416,
        "p95_access_time": 68.17080670683399,
        "hit_rate": 0.5277777777777778,
        "transfers_granted": 405,
        "offered_load": 1.5328387318690297,
        "prefetches_scheduled": 806,
        "prefetches_used": 257,
        "access_time_sum": 6561.5222648642975,
        "edge_hits": 14,
        "mid_hits": 21,
        "edge_prefetches_issued": 20,
    },
    # Paths with no cross-engine partner to keep them honest: an online
    # model with the node budget on, the cohort's mean-field wait (per-client
    # and pooled), a lean Figure 7 point and a gateway session replay.  Once
    # every engine runs the same request step, a drift that moves them all
    # together shows up only here.
    "fleet_online_ewma": {
        "events": 876,
        "makespan": 5025.572659175913,
        "mean_access_time": 9.38819456896341,
        "p95_access_time": 29.415345365716696,
        "hit_rate": 0.45625,
        "transfers_granted": 390,
        "offered_load": 1.2381101872151992,
        "prefetches_scheduled": 129,
        "prefetches_used": 7,
        "access_time_sum": 4506.333393102437,
    },
    "cohort_contended": {
        "events": 2522,
        "makespan": 4199.3985398378645,
        "mean_access_time": 9.008622186846573,
        "p95_access_time": 30.840403953265028,
        "hit_rate": 0.4975,
        "transfers_granted": 1302,
        "offered_load": 4.20816227825056,
        "prefetches_scheduled": 700,
        "prefetches_used": 154,
        "access_time_sum": 10810.346624215888,
        "contention_wait": 1.6545771407422172,
    },
    "cohort_contended_pooled": {
        "makespan": 4199.3985398378645,
        "events": 2522,
        "offered_load": 4.20816227825056,
        "contention_wait": 1.6545771407422172,
        "requests": 1200,
        "mean_access_time": 9.008622186846573,
        "p50_access_time": 5.408616029966479,
        "p95_access_time": 30.840403953265028,
        "p99_access_time": 32.06364251135818,
        "hit_rate": 0.4975,
        "prefetch_precision": 0.22,
        "network_prefetch_time": 6898.001637000611,
        "network_demand_time": 8820.748889685712,
        "fairness": 0.9637997188559908,
    },
    "lean_figure7": {
        "access_time_sum": 2372.785161916873,
        "hit_counts": {"cache-hit": 236, "pending-wait": 21, "miss": 143},
        "prefetches_scheduled": 996,
        "prefetches_used": 235,
        "network_prefetch_time": 12898.307067929358,
        "network_demand_time": 2310.361115594908,
    },
    "gateway_replay": {
        "access_time_sum": 1375.9641958790721,
        "hits": 44,
        "waits": 1,
        "misses": 75,
        "prefetches_scheduled": 33,
        "clock": 2158.582446315391,
    },
}


def _fingerprint(res) -> dict:
    """The exact quantities pinned by GOLDEN_TRACES, from any fleet-like result."""
    pooled = np.concatenate(
        [np.asarray(s.access_times, dtype=np.float64) for s in res.client_stats]
    )
    return {
        "events": res.events,
        "makespan": res.makespan,
        "mean_access_time": res.aggregate.mean_access_time,
        "p95_access_time": res.aggregate.p95_access_time,
        "hit_rate": res.aggregate.hit_rate,
        "transfers_granted": res.transfers_granted,
        "offered_load": res.offered_load,
        "prefetches_scheduled": sum(s.prefetches_scheduled for s in res.client_stats),
        "prefetches_used": sum(s.prefetches_used for s in res.client_stats),
        "access_time_sum": float(np.sum(pooled)),
    }


def test_golden_fleet_zipf_bit_exact():
    population = zipf_mixture_population(6, 40, 80, overlap=0.5, stagger=20.0, seed=7)
    res = run_fleet(
        population,
        FleetConfig(cache_capacity=6, strategy="skp", concurrency=2, miss_penalty=2.0),
        server_cache=LRUCache(10),
    )
    assert _fingerprint(res) == GOLDEN_TRACES["fleet_zipf"]


def test_golden_fleet_markov_fair_ds_bit_exact():
    from repro.workload.population import markov_population

    population = markov_population(4, 30, 60, seed=11)
    res = run_fleet(
        population,
        FleetConfig(
            cache_capacity=6,
            strategy="skp",
            sub_arbitration="ds",
            concurrency=3,
            discipline="fair",
        ),
    )
    assert _fingerprint(res) == GOLDEN_TRACES["fleet_markov_fair_ds"]


def test_golden_fleet_online_ewma_bit_exact():
    population = zipf_mixture_population(6, 40, 80, overlap=0.5, stagger=20.0, seed=17)
    res = run_fleet(
        population,
        FleetConfig(
            cache_capacity=6,
            strategy="skp",
            concurrency=2,
            model_source="online",
            online_predictor="frequency:ewma",
        ),
    )
    assert _fingerprint(res) == GOLDEN_TRACES["fleet_online_ewma"]


def _contended_cohort(stats):
    from repro.distsys.megafleet import run_cohort_fleet

    population = zipf_mixture_population(
        20, 60, 60, overlap=0.8, v_quantum=5.0, stagger=20.0, seed=11
    )
    config = FleetConfig(
        cache_capacity=6, strategy="skp", concurrency=6, miss_penalty=1.5, engine="cohort"
    )
    return run_cohort_fleet(population, config, stats=stats)


def test_golden_cohort_contended_bit_exact():
    res = _contended_cohort("full")
    assert not res.saturated
    fp = _fingerprint(res)
    fp["contention_wait"] = res.contention_wait
    assert fp == GOLDEN_TRACES["cohort_contended"]


def test_golden_cohort_contended_pooled_bit_exact():
    res = _contended_cohort("pooled")
    agg = res.aggregate
    fp = {
        "makespan": res.makespan,
        "events": res.events,
        "offered_load": res.offered_load,
        "contention_wait": res.contention_wait,
    }
    for name in GOLDEN_TRACES["cohort_contended_pooled"]:
        if name not in fp:
            fp[name] = getattr(agg, name)
    assert fp == GOLDEN_TRACES["cohort_contended_pooled"]


def test_golden_lean_figure7_bit_exact():
    source = generate_markov_source(40, out_degree=(3, 8), seed=3)
    res = run_prefetch_cache(
        source,
        PrefetchCacheConfig(
            cache_size=5,
            n_requests=400,
            strategy="skp",
            sub_arbitration="ds",
            planning_window="effective",
            seed=21,
        ),
    )
    assert {
        "access_time_sum": float(res.access_times.sum()),
        "hit_counts": res.hit_counts,
        "prefetches_scheduled": res.prefetches_scheduled,
        "prefetches_used": res.prefetches_used,
        "network_prefetch_time": res.network_prefetch_time,
        "network_demand_time": res.network_demand_time,
    } == GOLDEN_TRACES["lean_figure7"]


def test_golden_gateway_replay_bit_exact():
    from repro.gateway.sessions import SessionConfig, SessionStore

    population = zipf_mixture_population(
        1, 30, 120, overlap=0.5, v_range=(1.0, 12.0), seed=23
    )
    store = SessionStore(
        SessionConfig(predictor="markov:ewma", cache_capacity=5),
        np.ascontiguousarray(population.sizes),
        clock=lambda: 0.0,
    )
    workload = population.clients[0]
    session = store.get_or_create("golden")
    session.report(workload.initial_item, workload.initial_viewing_time)
    for item, view in zip(workload.trace.items, workload.trace.viewing_times):
        session.report(int(item), float(view))
    kinds = session.stats.serve_kinds
    assert {
        "access_time_sum": float(np.sum(session.stats.access_times)),
        "hits": kinds.count(AccessStats.KIND_HIT),
        "waits": kinds.count(AccessStats.KIND_WAIT),
        "misses": kinds.count(AccessStats.KIND_MISS),
        "prefetches_scheduled": session.stats.prefetches_scheduled,
        "clock": session.clock,
    } == GOLDEN_TRACES["gateway_replay"]


def test_golden_topology_tree_bit_exact():
    population = zipf_mixture_population(8, 40, 60, overlap=0.6, stagger=20.0, seed=9)
    res = run_topology(
        population,
        TopologyConfig(
            topology="tree",
            n_edges=2,
            edge_cache_size=12,
            placement="both",
            concurrency=2,
            cache_capacity=6,
        ),
        seed=3,
    )
    expected = GOLDEN_TRACES["topology_tree"]
    fp = _fingerprint(res)
    fp["edge_hits"] = res.tiers[0].hits
    fp["edge_misses"] = res.tiers[0].misses
    fp["edge_prefetches_issued"] = res.tiers[0].prefetches_issued
    fp["edge_prefetches_used"] = res.tiers[0].prefetches_used
    assert fp == expected


def test_golden_topology_two_tier_bit_exact():
    population = zipf_mixture_population(6, 40, 60, overlap=0.6, stagger=20.0, seed=13)
    res = run_topology(
        population,
        TopologyConfig(
            topology="two-tier",
            n_edges=2,
            edge_cache_size=10,
            mid_cache_size=20,
            placement="both",
            concurrency=2,
            cache_capacity=6,
            miss_penalty=1.5,
        ),
        seed=5,
    )
    expected = GOLDEN_TRACES["topology_two_tier"]
    fp = _fingerprint(res)
    fp["edge_hits"] = res.tiers[0].hits
    fp["mid_hits"] = res.tier("mid").hits
    fp["edge_prefetches_issued"] = res.tiers[0].prefetches_issued
    assert fp == expected


def test_golden_topology_tree_fair_effective_bit_exact():
    population = zipf_mixture_population(6, 40, 60, overlap=0.7, stagger=15.0, seed=21)
    res = run_topology(
        population,
        TopologyConfig(
            topology="tree",
            n_edges=3,
            edge_cache_size=10,
            placement="both",
            concurrency=2,
            discipline="fair",
            cache_capacity=6,
            sub_arbitration="ds",
            planning_window="effective",
            miss_penalty=2.0,
        ),
        seed=4,
    )
    expected = GOLDEN_TRACES["topology_tree_fair_effective"]
    fp = _fingerprint(res)
    fp["edge_hits"] = res.tiers[0].hits
    fp["edge_misses"] = res.tiers[0].misses
    fp["edge_prefetches_issued"] = res.tiers[0].prefetches_issued
    fp["edge_prefetches_used"] = res.tiers[0].prefetches_used
    assert fp == expected


def test_golden_topology_two_tier_markov_bit_exact():
    from repro.workload.population import markov_population

    population = markov_population(6, 30, 60, out_degree=(3, 6), seed=19)
    res = run_topology(
        population,
        TopologyConfig(
            topology="two-tier",
            n_edges=2,
            edge_cache_size=8,
            mid_cache_size=16,
            placement="both",
            concurrency=3,
            cache_capacity=5,
        ),
        seed=6,
    )
    expected = GOLDEN_TRACES["topology_two_tier_markov"]
    fp = _fingerprint(res)
    fp["edge_hits"] = res.tiers[0].hits
    fp["mid_hits"] = res.tier("mid").hits
    fp["edge_prefetches_issued"] = res.tiers[0].prefetches_issued
    assert fp == expected


# ---------------------------------------------------------------------------
# Zero-drift is the stationary special case — bit-exactly.
#
# The dynamics subsystem must be invisible when switched off: a dynamic
# population with kind="none" plus model_source="oracle" routes through the
# new plumbing (dynamic builders, ClientPlanState.observe, per-request
# recording) yet must reproduce the pre-dynamics golden fingerprints with
# ``==``, not a tolerance.
# ---------------------------------------------------------------------------

def test_zero_drift_population_is_bitwise_stationary():
    from repro.workload.dynamics import DynamicsConfig, dynamic_zipf_population

    dynamic = dynamic_zipf_population(
        6, 40, 80, dynamics=DynamicsConfig(kind="none"),
        overlap=0.5, stagger=20.0, seed=7,
    )
    static = zipf_mixture_population(6, 40, 80, overlap=0.5, stagger=20.0, seed=7)
    np.testing.assert_array_equal(dynamic.population.sizes, static.sizes)
    for dyn_client, static_client in zip(dynamic.population.clients, static.clients):
        np.testing.assert_array_equal(dyn_client.trace.items, static_client.trace.items)
        np.testing.assert_array_equal(
            dyn_client.trace.viewing_times, static_client.trace.viewing_times
        )
        np.testing.assert_array_equal(
            dyn_client.probabilities, static_client.probabilities
        )
        assert dyn_client.start_time == static_client.start_time
        assert dyn_client.initial_item == static_client.initial_item


def test_golden_fleet_zero_drift_oracle_bit_exact():
    from repro.workload.dynamics import DynamicsConfig, dynamic_zipf_population

    dynamic = dynamic_zipf_population(
        6, 40, 80, dynamics=DynamicsConfig(kind="none"),
        overlap=0.5, stagger=20.0, seed=7,
    )
    res = run_fleet(
        dynamic.population,
        FleetConfig(
            cache_capacity=6, strategy="skp", concurrency=2, miss_penalty=2.0,
            model_source="oracle",
        ),
        server_cache=LRUCache(10),
    )
    assert _fingerprint(res) == GOLDEN_TRACES["fleet_zipf"]


def test_golden_topology_zero_drift_oracle_bit_exact():
    from repro.workload.dynamics import DynamicsConfig, dynamic_zipf_population

    dynamic = dynamic_zipf_population(
        8, 40, 60, dynamics=DynamicsConfig(kind="none"),
        overlap=0.6, stagger=20.0, seed=9,
    )
    res = run_topology(
        dynamic.population,
        TopologyConfig(
            topology="tree",
            n_edges=2,
            edge_cache_size=12,
            placement="both",
            concurrency=2,
            cache_capacity=6,
            model_source="oracle",
        ),
        seed=3,
    )
    expected = GOLDEN_TRACES["topology_tree"]
    fp = _fingerprint(res)
    fp["edge_hits"] = res.tiers[0].hits
    fp["edge_misses"] = res.tiers[0].misses
    fp["edge_prefetches_issued"] = res.tiers[0].prefetches_issued
    fp["edge_prefetches_used"] = res.tiers[0].prefetches_used
    assert fp == expected


@pytest.mark.parametrize("topology", ["star", "tree"])
@pytest.mark.parametrize("discipline", ["fifo", "fair"])
@pytest.mark.parametrize("window", ["nominal", "effective"])
def test_passthrough_topology_matches_fleet(topology, discipline, window):
    """A hierarchy of pass-through proxies IS the flat fleet.

    ``star`` routes every client through one cache-less, predictor-less
    proxy; ``tree`` with ``edge_cache_size=0`` through two.  Pass-through
    proxies relay each submission verbatim (same flow id, same duration,
    synchronously), so the origin uplink sees the identical submission
    sequence and the whole timeline — access times, makespan, even the
    event count — must match ``run_fleet`` *bit-exactly*, under contention
    (2-slot uplink), a shared origin cache and a backing-store penalty.
    """
    population = zipf_mixture_population(
        6, 40, 80, overlap=0.8, stagger=20.0, seed=5
    )
    shared = dict(
        cache_capacity=6,
        strategy="skp",
        sub_arbitration="ds",
        planning_window=window,
        concurrency=2,
        discipline=discipline,
        miss_penalty=4.0,
    )
    fleet = run_fleet(
        population, FleetConfig(**shared), server_cache=LRUCache(10)
    )
    hierarchy = run_topology(
        population,
        TopologyConfig(
            topology=topology,
            n_edges=2,
            placement="client",  # client-side speculation only, like the fleet
            edge_cache_size=0,  # pass-through proxies
            **shared,
        ),
        server_cache=LRUCache(10),
    )

    assert hierarchy.makespan == fleet.makespan
    assert hierarchy.events == fleet.events
    assert hierarchy.transfers_granted == fleet.transfers_granted
    assert hierarchy.offered_load == fleet.offered_load
    assert hierarchy.server_cache_hit_rate == fleet.server_cache_hit_rate
    for topo_stats, fleet_stats in zip(hierarchy.client_stats, fleet.client_stats):
        np.testing.assert_array_equal(
            np.asarray(topo_stats.access_times), np.asarray(fleet_stats.access_times)
        )
        assert topo_stats.cache_hits == fleet_stats.cache_hits
        assert topo_stats.pending_waits == fleet_stats.pending_waits
        assert topo_stats.misses == fleet_stats.misses
        assert topo_stats.prefetches_scheduled == fleet_stats.prefetches_scheduled
        assert topo_stats.prefetches_used == fleet_stats.prefetches_used
        assert topo_stats.network_prefetch_time == fleet_stats.network_prefetch_time
        assert topo_stats.network_demand_time == fleet_stats.network_demand_time
