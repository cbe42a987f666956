"""Tests for the fleet simulator: shared uplink, fleet clients, aggregation."""

import numpy as np
import pytest

from repro.cache import LRUCache
from repro.distsys import (
    Channel,
    EventQueue,
    FleetConfig,
    ItemServer,
    ServerUplink,
    run_fleet,
)
from repro.distsys.fleet import Fleet
from repro.simulation.metrics import AccessStats, aggregate_access_stats
from repro.workload.population import markov_population, zipf_mixture_population


def make_uplink(concurrency, discipline="fifo", *, server=None):
    queue = EventQueue()
    return queue, ServerUplink(
        queue, server or ItemServer.uniform(8), concurrency=concurrency, discipline=discipline
    )


class TestServerUplink:
    def test_unbounded_grants_immediately_per_client(self):
        queue, uplink = make_uplink(None)
        done = []
        for cid in (0, 1, 2):
            uplink.submit(cid, cid, 5.0, 0.0, lambda t, cid=cid: done.append((cid, t)))
        queue.run()
        assert done == [(0, 5.0), (1, 5.0), (2, 5.0)]
        assert uplink.peak_in_flight == 3

    def test_client_transfers_serialize(self):
        # One client's transfers run one at a time even on an unbounded uplink.
        queue, uplink = make_uplink(None)
        done = []
        uplink.submit(0, 1, 4.0, 0.0, lambda t: done.append(t))
        uplink.submit(0, 2, 3.0, 0.0, lambda t: done.append(t))
        queue.run()
        assert done == [4.0, 7.0]
        assert uplink.peak_in_flight == 1

    def test_concurrency_bounds_parallelism(self):
        queue, uplink = make_uplink(2)
        done = []
        for cid in range(4):
            uplink.submit(cid, cid, 10.0, 0.0, lambda t, cid=cid: done.append((cid, t)))
        queue.run()
        # Two waves of two: clients 0/1 finish at 10, then 2/3 at 20.
        assert done == [(0, 10.0), (1, 10.0), (2, 20.0), (3, 20.0)]
        assert uplink.peak_in_flight == 2

    def test_fifo_orders_by_submission(self):
        queue, uplink = make_uplink(1)
        done = []
        uplink.submit(3, 0, 1.0, 0.0, lambda t: done.append(("c3", t)))
        uplink.submit(1, 0, 1.0, 0.0, lambda t: done.append(("c1", t)))
        uplink.submit(3, 0, 1.0, 0.0, lambda t: done.append(("c3b", t)))
        queue.run()
        assert done == [("c3", 1.0), ("c1", 2.0), ("c3b", 3.0)]

    def test_fair_round_robins_over_clients(self):
        # Client 0 floods first; fair scheduling still alternates with client 1,
        # while FIFO would drain client 0's queue before serving client 1.
        order_by_discipline = {}
        for discipline in ("fifo", "fair"):
            queue, uplink = make_uplink(1, discipline)
            order = []
            for k in range(3):
                uplink.submit(0, k, 1.0, 0.0, lambda t, k=k: order.append((0, k)))
            uplink.submit(1, 0, 1.0, 0.0, lambda t: order.append((1, 0)))
            queue.run()
            order_by_discipline[discipline] = order
        assert order_by_discipline["fifo"] == [(0, 0), (0, 1), (0, 2), (1, 0)]
        assert order_by_discipline["fair"] == [(0, 0), (1, 0), (0, 1), (0, 2)]

    def test_backlog_chains_like_channel(self):
        queue, uplink = make_uplink(None)
        uplink.submit(0, 0, 4.0, 0.0, lambda t: None)
        uplink.submit(0, 1, 3.0, 0.0, lambda t: None)
        assert uplink.backlog(0, 0.0) == pytest.approx(7.0)
        mid_run = []
        queue.schedule(5.0, lambda: mid_run.append(uplink.backlog(0, queue.now)))
        queue.run()
        assert mid_run == [pytest.approx(2.0)]
        assert uplink.backlog(0, queue.now) == 0.0
        assert uplink.idle()

    def test_backlog_folds_like_a_penalised_channel(self):
        # An unbounded uplink is a private channel per flow: the same
        # submissions give bit-identical backlogs, server penalty included.
        server = ItemServer.uniform(8)
        server.miss_penalty = 1.5
        queue, uplink = make_uplink(None, server=server)
        channel = Channel(penalty=1.5)
        for item, duration in enumerate((4.0, 3.0, 2.5)):
            uplink.submit(0, item, duration, 0.0, lambda t: None)
            channel.enqueue(0.0, duration, True)
        seen = []
        for at in (0.0, 5.4, 5.5, 9.0, 12.0):
            queue.schedule(at, lambda: seen.append(
                (uplink.backlog(0, queue.now), channel.backlog(queue.now))
            ))
        queue.run()
        assert [u for u, _ in seen] == [c for _, c in seen]
        assert seen[0][0] == 5.5 + 3.0 + 2.5

    def test_server_cache_penalty_applies_on_miss(self):
        server = ItemServer.uniform(4, 2.0)
        server.cache = LRUCache(2)
        server.miss_penalty = 5.0
        queue, uplink = make_uplink(None, server=server)
        done = []
        uplink.submit(0, 1, 2.0, 0.0, lambda t: done.append(t))
        queue.run()
        uplink.submit(0, 1, 2.0, queue.now, lambda t: done.append(t))
        queue.run()
        assert done[0] == pytest.approx(7.0)  # cold miss pays the penalty
        assert done[1] == pytest.approx(done[0] + 2.0)  # warm hit does not

    def test_rejects_bad_arguments(self):
        queue, uplink = make_uplink(2)
        with pytest.raises(ValueError):
            ServerUplink(queue, ItemServer.uniform(2), concurrency=0)
        with pytest.raises(ValueError):
            ServerUplink(queue, ItemServer.uniform(2), discipline="lifo")
        with pytest.raises(ValueError):
            uplink.submit(0, 0, 0.0, 0.0, lambda t: None)
        with pytest.raises(ValueError):
            uplink.submit(0, 0, 1.0, 0.0, lambda t: None, kind="bulk")


class TestFleet:
    def make_population(self, n_clients=6, requests=120, **kwargs):
        kwargs.setdefault("overlap", 0.8)
        kwargs.setdefault("top_k", 10)
        kwargs.setdefault("stagger", 25.0)
        kwargs.setdefault("seed", 5)
        return zipf_mixture_population(n_clients, 50, requests, **kwargs)

    def test_all_clients_finish_their_traces(self):
        pop = self.make_population()
        res = run_fleet(pop, FleetConfig(cache_capacity=6, concurrency=2))
        assert res.n_clients == 6
        for stats, workload in zip(res.client_stats, pop.clients):
            assert stats.requests == len(workload.trace)
        assert res.aggregate.requests == pop.total_requests
        assert res.events > 0 and res.makespan > 0

    def test_prefetching_beats_no_prefetch(self):
        pop = self.make_population()
        skp = run_fleet(pop, FleetConfig(cache_capacity=6, strategy="skp", concurrency=4))
        none = run_fleet(pop, FleetConfig(cache_capacity=6, strategy="none", concurrency=4))
        assert skp.mean_access_time < none.mean_access_time

    def test_contention_slows_the_fleet(self):
        pop = self.make_population()
        wide = run_fleet(pop, FleetConfig(cache_capacity=6, concurrency=None))
        narrow = run_fleet(pop, FleetConfig(cache_capacity=6, concurrency=1))
        assert narrow.mean_access_time > wide.mean_access_time
        assert 0.5 < narrow.server_utilization <= 1.0
        assert 0.0 < wide.prefetch_load_frac < 1.0
        # Unbounded uplink: utilization is undefined, offered load is not.
        assert wide.server_utilization != wide.server_utilization
        assert wide.offered_load > 0.0
        assert narrow.offered_load == pytest.approx(narrow.server_utilization)

    def test_deterministic_across_runs(self):
        pop = self.make_population(n_clients=4, requests=60)
        config = FleetConfig(cache_capacity=6, concurrency=2, discipline="fair")
        a, b = run_fleet(pop, config), run_fleet(pop, config)
        assert [s.access_times for s in a.client_stats] == [
            s.access_times for s in b.client_stats
        ]
        assert a.events == b.events and a.makespan == b.makespan

    def test_server_cache_absorbs_backing_penalty(self):
        pop = self.make_population(overlap=1.0)
        config = FleetConfig(cache_capacity=6, concurrency=4, miss_penalty=10.0)
        bare = run_fleet(pop, config)
        cached = run_fleet(pop, config, server_cache=LRUCache(25))
        assert cached.mean_access_time < bare.mean_access_time
        assert 0.0 < cached.server_cache_hit_rate <= 1.0
        assert bare.server_cache_hit_rate != bare.server_cache_hit_rate  # NaN: no cache

    def test_markov_population_fleet_runs(self):
        pop = markov_population(4, 30, 80, out_degree=(3, 6), seed=9)
        res = run_fleet(pop, FleetConfig(cache_capacity=6, concurrency=2))
        assert res.aggregate.requests == 4 * 80
        assert res.aggregate.hit_rate > 0.0

    def test_staggered_starts_respected(self):
        pop = self.make_population(stagger=40.0)
        fleet = Fleet(pop, FleetConfig(cache_capacity=6, concurrency=2))
        result = fleet.run()
        starts = [c.start_time for c in pop.clients]
        assert max(starts) > 0.0
        assert result.makespan >= max(c.finished_at for c in fleet.clients)


class TestAggregation:
    def stats(self, times, **kwargs):
        return AccessStats(access_times=list(times), **kwargs)

    def test_pooled_percentiles_and_mean(self):
        a = self.stats([0.0, 2.0], cache_hits=1, misses=1)
        b = self.stats([4.0, 6.0], misses=2)
        agg = aggregate_access_stats([a, b])
        assert agg.n_clients == 2 and agg.requests == 4
        assert agg.mean_access_time == pytest.approx(3.0)
        assert agg.p50_access_time == pytest.approx(3.0)
        assert agg.hit_rate == pytest.approx(0.25)
        np.testing.assert_allclose(agg.per_client_mean, [1.0, 5.0])

    def test_fairness_even_vs_skewed(self):
        even = aggregate_access_stats(
            [self.stats([5.0], misses=1), self.stats([5.0], misses=1)]
        )
        skewed = aggregate_access_stats(
            [self.stats([0.5], misses=1), self.stats([20.0], misses=1)]
        )
        assert even.fairness == pytest.approx(1.0)
        assert skewed.fairness < even.fairness

    def test_all_zero_access_times_are_fair(self):
        agg = aggregate_access_stats([self.stats([0.0], cache_hits=1)] * 3)
        assert agg.fairness == 1.0
        assert agg.mean_access_time == 0.0

    def test_prefetch_precision_pools_counts(self):
        a = AccessStats(prefetches_scheduled=4, prefetches_used=1)
        b = AccessStats(prefetches_scheduled=0, prefetches_used=0)
        agg = aggregate_access_stats([a, b])
        assert agg.prefetch_precision == pytest.approx(0.25)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate_access_stats([])
