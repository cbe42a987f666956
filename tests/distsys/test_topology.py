"""Cache-hierarchy simulator: configs, miss propagation, per-tier speculation.

The bit-exact pass-through equivalence with ``run_fleet`` lives in
``tests/integration/test_cross_engine.py``; this module covers the caching
paths — conservation invariants between tiers, shared-cache warming across
clients, speculation placement and budgets, and determinism.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.distsys import (
    CacheNetwork,
    FleetConfig,
    TopologyConfig,
    run_topology,
    topology_names,
)
from repro.workload.population import ClientWorkload, Population, zipf_mixture_population
from repro.workload.trace import Trace


def small_population(n_clients=4, n_items=40, requests=60, seed=3, **kwargs):
    kwargs.setdefault("overlap", 0.8)
    kwargs.setdefault("stagger", 20.0)
    return zipf_mixture_population(n_clients, n_items, requests, seed=seed, **kwargs)


class TestConfigValidation:
    def test_registry_lists_builtin_topologies(self):
        assert topology_names() == ("star", "tree", "two-tier")

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            TopologyConfig(topology="ring")

    def test_bad_placement(self):
        with pytest.raises(ValueError, match="placement"):
            TopologyConfig(placement="everywhere")

    def test_bad_n_edges(self):
        with pytest.raises(ValueError, match="n_edges"):
            TopologyConfig(n_edges=0)

    def test_negative_budget(self):
        with pytest.raises(ValueError, match="budget"):
            TopologyConfig(edge_prefetch_budget=-1)

    def test_bad_edge_strategy(self):
        with pytest.raises(ValueError, match="edge_strategy"):
            TopologyConfig(edge_strategy="perfect")

    def test_bad_uplink_streams(self):
        with pytest.raises(ValueError, match="uplink_streams"):
            TopologyConfig(edge_uplink_streams=0)


class TestMissPropagation:
    FLEET = FleetConfig(cache_capacity=6, concurrency=2, miss_penalty=3.0)
    CONFIG = dict(
        topology="tree",
        n_edges=2,
        fleet=FLEET,
        placement="client",
        edge_cache_size=12,
    )

    def test_tier_conservation(self):
        """Edge demand = client demand misses; edge fetches = misses - hits - coalesced."""
        result = run_topology(small_population(), TopologyConfig(**self.CONFIG))
        edge = result.tier("edge")
        client_misses = sum(s.misses for s in result.client_stats)
        assert edge.requests == client_misses
        assert edge.hits + edge.misses == edge.requests
        assert edge.upstream_demand_fetches + edge.coalesced_waits == edge.misses

    def test_two_tier_conservation(self):
        """The mid tier's demand stream is exactly the edge tier's demand misses."""
        config = TopologyConfig(**dict(self.CONFIG, topology="two-tier", mid_cache_size=20))
        result = run_topology(small_population(), config)
        edge, mid = result.tier("edge"), result.tier("mid")
        assert mid.requests == edge.upstream_demand_fetches
        assert mid.hits + mid.misses == mid.requests

    def test_deterministic_across_runs(self):
        population = small_population()
        config = TopologyConfig(**self.CONFIG)
        a = run_topology(population, config, seed=11)
        b = run_topology(population, config, seed=11)
        np.testing.assert_array_equal(
            np.concatenate([s.access_times for s in a.client_stats]),
            np.concatenate([s.access_times for s in b.client_stats]),
        )
        assert a.makespan == b.makespan
        assert a.events == b.events
        assert a.tier("edge").hits == b.tier("edge").hits

    def test_shared_edge_cache_warms_across_clients(self):
        """With cache-less clients and a catalog-sized edge, every item is
        fetched upstream exactly once — client A's miss is client B's hit."""
        items = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], dtype=np.intp)
        viewing = np.full(items.shape[0], 5.0)
        clients = tuple(
            ClientWorkload(
                client_id=cid,
                trace=Trace(items, viewing),
                initial_item=0,
                initial_viewing_time=5.0,
                start_time=float(cid) * 200.0,  # strictly sequential clients
                probabilities=np.zeros(10),
            )
            for cid in range(2)
        )
        population = Population(sizes=np.full(10, 2.0), clients=clients)
        config = TopologyConfig(
            topology="tree",
            n_edges=1,
            # clients forward every request
            fleet=FleetConfig(cache_capacity=0, concurrency=None),
            placement="none",
            edge_cache_size=10,  # edge holds the whole catalog
        )
        result = run_topology(population, config)
        edge = result.tier("edge")
        distinct = len(set(items.tolist()))
        assert edge.requests == 2 * items.shape[0]
        assert edge.misses == distinct  # second client hits everything
        assert edge.upstream_demand_fetches == distinct

    def test_edge_hit_shortens_access_time(self):
        """A warmed edge must serve faster than the origin behind a penalty."""
        population = small_population(n_clients=6, requests=80)
        fleet = replace(self.FLEET, miss_penalty=15.0)
        slow = run_topology(
            population,
            TopologyConfig(**dict(self.CONFIG, edge_cache_size=0, fleet=fleet)),
        )
        cached = run_topology(
            population,
            TopologyConfig(**dict(self.CONFIG, edge_cache_size=30, fleet=fleet)),
        )
        assert cached.mean_access_time < slow.mean_access_time


class TestSpeculationPlacement:
    def run(self, placement, budget=3):
        return run_topology(
            small_population(n_clients=4, requests=50),
            TopologyConfig(
                topology="tree",
                n_edges=2,
                fleet=FleetConfig(cache_capacity=6, concurrency=2),
                placement=placement,
                edge_cache_size=12,
                edge_prefetch_budget=budget,
            ),
        )

    def test_placement_gates_edge_speculation(self):
        assert self.run("none").tier("edge").prefetches_issued == 0
        assert self.run("client").tier("edge").prefetches_issued == 0
        assert self.run("edge").tier("edge").prefetches_issued > 0
        assert self.run("both").tier("edge").prefetches_issued > 0

    def test_placement_gates_client_speculation(self):
        for placement, expect in (("none", 0), ("edge", 0)):
            result = self.run(placement)
            assert sum(s.prefetches_scheduled for s in result.client_stats) == expect
        assert sum(s.prefetches_scheduled for s in self.run("client").client_stats) > 0

    def test_zero_budget_disables_edge_speculation(self):
        assert self.run("edge", budget=0).tier("edge").prefetches_issued == 0

    def test_used_prefetches_bounded_by_issued(self):
        edge = self.run("both").tier("edge")
        assert 0 <= edge.prefetches_used <= edge.prefetches_issued


class TestNetworkSurface:
    def test_proxies_and_tier_lookup(self):
        network = CacheNetwork(
            small_population(),
            TopologyConfig(topology="two-tier", n_edges=3, edge_cache_size=5,
                           mid_cache_size=10),
        )
        assert len(network.proxies("edge")) == 3
        assert len(network.proxies("mid")) == 1
        assert network.edge_of_client == [0, 1, 2, 0]
        with pytest.raises(KeyError):
            network.proxies("core")

    def test_result_tier_lookup_raises_on_unknown(self):
        result = run_topology(small_population(), TopologyConfig(topology="tree"))
        with pytest.raises(KeyError):
            result.tier("core")

    def test_star_edge_hit_rate_is_nan(self):
        result = run_topology(small_population(), TopologyConfig(topology="star"))
        assert np.isnan(result.edge_hit_rate)
