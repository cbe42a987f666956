"""Tests for the end-to-end Prefetcher facade."""

import numpy as np
import pytest

from repro import PrefetchProblem, Prefetcher
from repro.core.improvement import access_improvement_with_cache


def problem(p, r, v):
    return PrefetchProblem(np.asarray(p, float), np.asarray(r, float), v)


class TestPrefetcher:
    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            Prefetcher(strategy="magic")

    def test_invalid_sub_arbitration_rejected(self):
        with pytest.raises(ValueError, match="sub_arbitration"):
            Prefetcher(sub_arbitration="mru")

    @pytest.mark.parametrize("strategy", ["skp", "kp", "none"])
    def test_invalid_variant_and_node_budget_rejected_at_construction(self, strategy):
        # Not deferred to the first SKP solve with candidates, which a
        # "kp" or "none" planner never reaches.
        with pytest.raises(ValueError, match="variant"):
            Prefetcher(strategy=strategy, variant="bogus")
        with pytest.raises(ValueError, match="node_budget"):
            Prefetcher(strategy=strategy, node_budget=0)

    def test_none_strategy_plans_nothing(self):
        prob = problem([0.5, 0.5], [5.0, 5.0], 20.0)
        outcome = Prefetcher(strategy="none").plan(prob)
        assert outcome.prefetch.is_empty and outcome.eject == ()

    def test_skp_empty_cache_equals_solver(self):
        prob = problem([0.5, 0.3, 0.2], [8.0, 12.0, 3.0], 10.0)
        from repro import solve_skp

        outcome = Prefetcher(strategy="skp").plan(prob, cache=(), cache_capacity=3)
        assert set(outcome.prefetch.items) == set(solve_skp(prob).plan.items)

    def test_kp_strategy_never_stretches(self):
        prob = problem([0.5, 0.3, 0.2], [8.0, 12.0, 3.0], 10.0)
        outcome = Prefetcher(strategy="kp").plan(prob, cache=(), cache_capacity=3)
        assert outcome.prefetch.total_retrieval(prob) <= prob.viewing_time

    def test_cached_items_not_candidates(self):
        prob = problem([0.6, 0.4], [5.0, 5.0], 20.0)
        outcome = Prefetcher().plan(prob, cache=[0], cache_capacity=2)
        assert 0 not in outcome.prefetch

    def test_expected_improvement_matches_equation9(self):
        prob = problem([0.4, 0.3, 0.2, 0.1], [10.0, 8.0, 6.0, 4.0], 15.0)
        outcome = Prefetcher().plan(prob, cache=[3], cache_capacity=1)
        direct = access_improvement_with_cache(
            prob, outcome.prefetch, [3], outcome.eject
        )
        assert outcome.expected_improvement == pytest.approx(direct)

    def test_full_cache_requires_arbitration_win(self):
        # Cached item is the most valuable: nothing should be prefetched.
        prob = problem([0.7, 0.2, 0.1], [10.0, 10.0, 10.0], 30.0)
        outcome = Prefetcher().plan(prob, cache=[0], cache_capacity=1)
        assert outcome.prefetch.is_empty

    def test_capacity_below_occupancy_rejected(self):
        prob = problem([0.5, 0.5], [5.0, 5.0], 20.0)
        with pytest.raises(ValueError, match="capacity"):
            Prefetcher().plan(prob, cache=[0, 1], cache_capacity=1)

    def test_sub_arbitration_requires_frequencies(self):
        prob = problem([0.5, 0.5], [5.0, 5.0], 20.0)
        with pytest.raises(ValueError, match="frequencies"):
            Prefetcher(sub_arbitration="ds").plan(prob, cache=[1])

    def test_demand_victim_none_with_free_capacity(self):
        prob = problem([0.5, 0.5], [5.0, 5.0], 20.0)
        assert (
            Prefetcher().demand_victim(prob, 0, cache=[1], cache_capacity=2) is None
        )

    def test_demand_victim_selected_when_full(self):
        prob = problem([0.5, 0.3, 0.2], [5.0, 5.0, 5.0], 20.0)
        victim = Prefetcher().demand_victim(prob, 0, cache=[1, 2], cache_capacity=2)
        assert victim == 2
