"""A single prefetching client: a 1-client fleet over an unbounded uplink.

This is the single-session entry point of :mod:`repro.distsys` — one
:class:`~repro.workload.population.ClientWorkload` replaying a trace over a
private link, with the oracle transition rows or an online model.
"""

import math

import numpy as np
import pytest

from repro.distsys import FleetConfig, run_fleet
from repro.distsys.fleet import Fleet
from repro.workload import Trace, generate_markov_source, record_markov_trace
from repro.workload.population import ClientWorkload, Population


def one_client(sizes, transition, trace, *, initial_item=0, initial_viewing=0.0):
    return Population(
        sizes=np.asarray(sizes, dtype=np.float64),
        clients=(
            ClientWorkload(
                client_id=0,
                trace=trace,
                initial_item=initial_item,
                initial_viewing_time=initial_viewing,
                transition=transition,
            ),
        ),
    )


def session(source, trace, capacity, **config):
    """Replay ``trace`` over a unit link; sizes equal the retrieval times."""
    population = one_client(source.retrieval_times, source.transition, trace)
    return run_fleet(
        population, FleetConfig(cache_capacity=capacity, concurrency=None, **config)
    )


class TestRequests:
    def test_cold_miss_costs_retrieval(self):
        src = generate_markov_source(10, out_degree=(2, 4), seed=0)
        fleet = Fleet(
            one_client(src.retrieval_times, src.transition, Trace([3], [0.0])),
            FleetConfig(cache_capacity=4, concurrency=None, strategy="none"),
        )
        stats = fleet.run().client_stats[0]
        assert stats.serve_kinds == [stats.KIND_MISS]
        assert stats.access_times == [float(src.retrieval_times[3])]
        assert 3 in fleet.clients[0].state.cache

    def test_repeat_request_hits(self):
        src = generate_markov_source(10, out_degree=(2, 4), seed=0)
        stats = session(src, Trace([3, 3], [50.0, 0.0]), 4).client_stats[0]
        assert stats.access_times[1] == 0.0
        assert stats.cache_hits == 1

    def test_prefetched_item_arrives_during_viewing(self):
        src = generate_markov_source(10, out_degree=(2, 4), seed=0)
        fleet = Fleet(
            one_client(
                src.retrieval_times, src.transition, Trace([3], [200.0]),
                initial_item=0,
            ),
            FleetConfig(cache_capacity=5, concurrency=None),
        )
        fleet.run()
        state = fleet.clients[0].state
        # After a long viewing period every scheduled transfer has landed
        # (the fleet drains them); something useful was prefetched.
        assert all(math.isfinite(arrival) for arrival in state.pending.values())
        successors = set(int(i) for i in src.successors(3))
        assert (state.cache | set(state.pending)) & successors

    def test_invalid_planning_window(self):
        with pytest.raises(ValueError):
            FleetConfig(planning_window="x")

    def test_sized_items_respect_link(self):
        # Non-uniform sizes and a slow link: retrieval times scale with size.
        population = one_client(
            [1.0, 10.0, 4.0], np.zeros((3, 3)), Trace([1], [0.0])
        )
        res = run_fleet(
            population,
            FleetConfig(
                cache_capacity=2, strategy="none", latency=1.0, bandwidth=2.0,
                concurrency=None,
            ),
        )
        assert res.client_stats[0].access_times == [1.0 + 10.0 / 2.0]


class TestSession:
    def test_oracle_prefetching_improves_on_no_prefetch(self):
        src = generate_markov_source(25, out_degree=(3, 6), seed=7)
        trace = record_markov_trace(src, 400, seed=3)
        with_prefetch = session(src, trace, 6)
        without = session(src, trace, 6, strategy="none")
        assert with_prefetch.mean_access_time < without.mean_access_time

    def test_learned_model_improves_over_time(self):
        src = generate_markov_source(15, out_degree=(2, 4), seed=9)
        trace = record_markov_trace(src, 1200, seed=4)
        res = session(src, trace, 5, model_source="online", online_predictor="markov")
        times = np.asarray(res.client_stats[0].access_times)
        assert times[-300:].mean() < times[:300].mean()  # the model warms up

    def test_duration_accounts_for_viewing_and_access(self):
        src = generate_markov_source(8, out_degree=(2, 3), seed=1)
        trace = Trace(np.array([2, 5]), np.array([10.0, 20.0]))
        fleet = Fleet(
            one_client(src.retrieval_times, src.transition, trace),
            FleetConfig(cache_capacity=3, concurrency=None),
        )
        stats = fleet.run().client_stats[0]
        expected = sum(stats.access_times) + float(trace.viewing_times.sum())
        assert fleet.clients[0].finished_at == pytest.approx(expected)
