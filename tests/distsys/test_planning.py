"""Tests for the shared per-client planning state (`repro.distsys.planning`).

The golden-trace and cross-engine suites prove the *engines* agree; these
tests pin the state container's own contracts: fingerprint coherence under
mutation, the demand-admission semantics shared by every engine, that the victim
memo never changes what the planner would have answered, and that the
request step's occupancy invariant fails loudly.
"""

import math

import numpy as np
import pytest

from repro.core.planner import PlanOutcome, Prefetcher
from repro.core.types import PrefetchPlan, PrefetchProblem
from repro.distsys.network import Channel
from repro.distsys.planning import ClientPlanState, arrive, plan, step
from repro.simulation.metrics import AccessStats


class SilentModel:
    """An online model that learns nothing: its presence alone marks the
    provider rows as changing, which switches the static fast paths off."""

    def update(self, item):
        pass


def make_state(capacity=4, *, static=True, sub=None, n=12, prefetcher=None):
    rng = np.random.default_rng(7)
    p = rng.random(n)
    p /= p.sum() * 1.5  # partial mass, like a top-k planner view
    row = p.copy()
    row.setflags(write=False)
    retrievals = rng.uniform(1.0, 20.0, n)
    state = ClientPlanState(
        prefetcher or Prefetcher(strategy="skp", sub_arbitration=sub),
        lambda item: row,
        retrievals,
        capacity,
        n,
        model=None if static else SilentModel(),
    )
    return state, row, retrievals


class TestFingerprints:
    def test_cache_key_tracks_membership(self):
        state, _, _ = make_state()
        assert state.cache_key() == ()
        state.cache_add(5, "demand")
        state.cache_add(2, "demand")
        assert state.cache_key() == (2, 5)
        state.cache_discard(5)
        assert state.cache_key() == (2,)
        assert state.origin == {2: "demand"}

    def test_pending_key_tracks_membership(self):
        state, _, _ = make_state()
        state.pending_add(9, math.inf)
        state.pending_add(1, 4.0)
        assert state.pending_key() == (1, 9)
        assert state.pending_pop(9) == math.inf
        assert state.pending_key() == (1,)

    def test_promote_moves_pending_into_cache(self):
        state, _, _ = make_state()
        state.pending_add(3, 7.5)
        state.promote(3)
        assert state.pending == {}
        assert 3 in state.cache
        assert state.origin[3] == "prefetch"
        assert state.cache_key() == (3,)

    def test_value_update_keeps_fingerprint(self):
        state, _, _ = make_state()
        state.pending_add(3, math.inf)
        key = state.pending_key()
        state.pending[3] = 12.0  # membership-neutral write is allowed
        assert state.pending_key() is key


class TestAdmitDemand:
    def test_zero_capacity_stores_nothing(self):
        state, _, _ = make_state(capacity=0)
        state.admit_demand(1)
        assert state.cache == set()

    def test_free_slot_admits_without_eviction(self):
        state, _, _ = make_state(capacity=4)
        state.admit_demand(1)
        assert state.cache == {1}
        assert state.origin[1] == "demand"

    def test_full_cache_evicts_planner_victim(self):
        state, row, retrievals = make_state(capacity=2)
        state.admit_demand(0)
        state.admit_demand(1)
        state.admit_demand(2)
        assert len(state.cache) == 2
        assert 2 in state.cache
        # The evicted item is the planner's §5.2 victim, not an arbitrary one.
        fresh, _, _ = make_state(capacity=2)
        problem = PrefetchProblem.from_validated(row, fresh.retrievals, 0.0)
        victim = fresh.prefetcher.demand_victim(
            problem, 2, (0, 1), cache_capacity=2, frequencies=fresh.frequencies
        )
        assert victim not in state.cache


class TestVictimMemo:
    def test_memo_matches_unmemoized_planner(self):
        memo_state, row, retrievals = make_state(capacity=3, static=True)
        raw_state, _, _ = make_state(capacity=3, static=False)
        for item in (4, 5, 6, 7, 4, 5):  # repeats exercise the memo path
            memo_state.admit_demand(item)
            raw_state.admit_demand(item)
            assert memo_state.cache == raw_state.cache
            assert memo_state.origin == raw_state.origin

    def test_memo_disabled_for_frequency_sub_arbitration(self):
        state, _, _ = make_state(sub="lfu")
        assert state._victim_memo is None

    def test_memo_enabled_only_for_static_providers(self):
        static_state, _, _ = make_state(static=True)
        online_state, _, _ = make_state(static=False)
        assert static_state._victim_memo is not None
        assert online_state._victim_memo is None


class TestPlanView:
    def test_plan_view_applies_ejects_and_respects_occupancy(self):
        state, _, _ = make_state(capacity=3)
        for item in (0, 1, 2):
            state.admit_demand(item)
        outcome = state.plan_view(0, window=50.0)
        for victim in outcome.eject:
            assert victim not in state.cache
        for f in outcome.prefetch:
            state.pending_add(f, math.inf)
        assert len(state.cache) + len(state.pending) <= 3

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            make_state(capacity=-1)


class OverAdmittingPrefetcher(Prefetcher):
    """A broken planner: admits every candidate and evicts nothing."""

    def plan(self, problem, **kwargs):
        items = PrefetchPlan.from_trusted(tuple(range(problem.n)))
        return PlanOutcome(items, (), 0.0, items)


class TestOccupancyInvariant:
    def test_over_admission_raises(self):
        # An explicit error, not an assert (which would raise AssertionError,
        # and not at all under ``python -O``).
        state, _, _ = make_state(capacity=3, prefetcher=OverAdmittingPrefetcher())
        with pytest.raises(RuntimeError, match="exceed the cache capacity 3"):
            plan(state, AccessStats(), 0, 10.0, 0.0, [1.0] * 12, Channel())


class TestRequestStep:
    def test_hit_on_landed_prefetch_counts_it_used(self):
        state, _, _ = make_state(capacity=4)
        stats = AccessStats()
        state.pending_add(5, 2.0)
        assert arrive(state, stats, 5, 3.0) == AccessStats.KIND_HIT  # landed at 2
        assert stats.cache_hits == 1 and stats.prefetches_used == 1
        assert state.origin[5] == "prefetch-used"

    def test_miss_queues_behind_the_backlog_and_promotes_it(self):
        state, _, _ = make_state(capacity=4, prefetcher=Prefetcher(strategy="none"))
        stats = AccessStats()
        channel = Channel()
        transfer = [3.0] * 12
        state.pending_add(1, channel.enqueue(0.0, 3.0, True))  # lands at 3
        t_serve, _ = step(state, stats, 7, 10.0, 1.0, transfer, channel, False)
        assert t_serve == 6.0  # starts when the prefetch lands, never aborts it
        assert stats.access_times == [5.0] and stats.misses == 1
        assert state.pending == {} and {1, 7} <= state.cache
