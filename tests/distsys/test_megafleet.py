"""Mega-fleet engines: cohort kernel exactness, hybrid closure accuracy.

The cohort kernel (``repro.distsys.megafleet``) re-derives the event
engine's per-client timeline by direct folding — on an *unbounded* uplink
the two engines must agree **bit-exactly**: same per-client access times,
serve kinds and request times, same makespan, same event count.  Under a
finite uplink the cohort engine substitutes a mean-field waiting-time
correction for the event-level interleaving; there it is a documented
approximation and only a tolerance band applies.  The hybrid engine
simulates K sampled clients and closes the rest analytically; the
``fleet-hybrid-validate`` preset pins its error at ≤ 5 % of the event
engine, which is the acceptance bar from the issue.

The property test at the bottom checks the *assumption* the cohort
kernel's plan memo rests on: the (item, cache fingerprint, pending
fingerprint, window) key fully determines the planner outcome, so a memo
hit may replay a cached decision for a different client of the same
cohort.
"""

from __future__ import annotations

import math

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsys.fleet import FleetConfig, run_fleet
from repro.distsys.megafleet import (
    CohortFleetResult,
    HybridFleetResult,
    run_cohort_fleet,
    run_hybrid_fleet,
    sample_client_ids,
)
from repro.workload.population import (
    markov_population,
    subset_population,
    zipf_mixture_population,
)


def _zipf_pop(n_clients=20, requests=60, **kw):
    kw.setdefault("overlap", 0.8)
    kw.setdefault("v_quantum", 5.0)
    kw.setdefault("stagger", 20.0)
    return zipf_mixture_population(n_clients, 60, requests, seed=11, **kw)


def _assert_bit_exact(event_res, cohort_res):
    """Every per-client observable and the global accounting must match."""
    assert cohort_res.makespan == event_res.makespan
    assert cohort_res.events == event_res.events
    assert cohort_res.transfers_granted == event_res.transfers_granted
    for ev, co in zip(event_res.client_stats, cohort_res.client_stats):
        assert list(co.access_times) == list(ev.access_times)
        assert list(co.serve_kinds) == list(ev.serve_kinds)
        assert list(co.request_times) == list(ev.request_times)
        assert co.prefetches_scheduled == ev.prefetches_scheduled
        assert co.prefetches_used == ev.prefetches_used
        assert (co.cache_hits, co.pending_waits, co.misses) == (
            ev.cache_hits, ev.pending_waits, ev.misses)
        assert co.network_prefetch_time == ev.network_prefetch_time
        assert co.network_demand_time == ev.network_demand_time
    # Grant-order vs client-order summation: equal to float round-off only.
    assert math.isclose(cohort_res.offered_load, event_res.offered_load,
                        rel_tol=1e-12)
    assert math.isclose(cohort_res.prefetch_load_frac,
                        event_res.prefetch_load_frac, rel_tol=1e-12)


class TestCohortExact:
    """Unbounded uplink: the cohort fold replays the event timeline exactly."""

    def test_zipf_nominal(self):
        pop = _zipf_pop()
        cfg = FleetConfig(cache_capacity=6, strategy="skp", concurrency=None)
        _assert_bit_exact(run_fleet(pop, cfg), run_cohort_fleet(pop, cfg))

    def test_effective_window_with_penalty_and_latency(self):
        # The regime where backlog accounting matters: queued transfers
        # shrink the planning window, and the in-flight head carries the
        # server penalty while queued entries do not.
        pop = _zipf_pop(requests=80)
        cfg = FleetConfig(
            cache_capacity=6, strategy="skp", planning_window="effective",
            miss_penalty=7.5, latency=2.0, bandwidth=0.5, concurrency=None,
        )
        _assert_bit_exact(run_fleet(pop, cfg), run_cohort_fleet(pop, cfg))

    def test_markov_population(self):
        pop = markov_population(15, 50, 60, stagger=20.0, seed=7)
        cfg = FleetConfig(cache_capacity=5, strategy="skp", concurrency=None)
        _assert_bit_exact(run_fleet(pop, cfg), run_cohort_fleet(pop, cfg))

    def test_sub_arbitration_disables_memo_but_stays_exact(self):
        pop = _zipf_pop()
        cfg = FleetConfig(cache_capacity=6, strategy="skp",
                          concurrency=None, sub_arbitration="lfu")
        res = run_cohort_fleet(pop, cfg)
        _assert_bit_exact(run_fleet(pop, cfg), res)
        assert res.plan_memo_hits == 0  # memo must not engage

    def test_online_model_source(self):
        pop = _zipf_pop()
        cfg = FleetConfig(cache_capacity=6, strategy="skp",
                          concurrency=None, model_source="online",
                          online_predictor="frequency:ewma")
        res = run_cohort_fleet(pop, cfg)
        _assert_bit_exact(run_fleet(pop, cfg), res)
        assert res.plan_memo_hits == 0

    def test_memoization_carries_the_load(self):
        # Coarse viewing-time grid + shared catalog: most plan states
        # recur, so solves must be a small fraction of requests.
        pop = _zipf_pop(n_clients=50, requests=100, v_quantum=20.0)
        cfg = FleetConfig(cache_capacity=6, strategy="skp", concurrency=None)
        res = run_cohort_fleet(pop, cfg)
        assert isinstance(res, CohortFleetResult)
        assert res.plan_solves + res.plan_memo_hits > 0
        assert res.plan_memo_hits > res.plan_solves


class TestCohortContended:
    """Finite uplink: mean-field correction, documented tolerance only."""

    def test_moderate_load_band(self):
        pop = _zipf_pop(n_clients=40, requests=80)
        cfg = FleetConfig(cache_capacity=6, strategy="skp", concurrency=48)
        ev = run_fleet(pop, cfg)
        co = run_cohort_fleet(pop, cfg)
        assert ev.server_utilization < 0.6  # the envelope this band is for
        assert not co.saturated
        assert co.contention_wait > 0.0
        rel = abs(co.aggregate.mean_access_time - ev.aggregate.mean_access_time)
        rel /= ev.aggregate.mean_access_time
        assert rel < 0.20
        # Serve kinds are decided pre-contention: hit rate is the
        # unbounded one, exactly.
        unbounded = run_cohort_fleet(pop, replace(cfg, concurrency=None))
        assert co.aggregate.hit_rate == unbounded.aggregate.hit_rate
        assert (co.aggregate.mean_access_time
                >= unbounded.aggregate.mean_access_time)

    def test_saturation_is_flagged(self):
        pop = _zipf_pop(n_clients=40, requests=80)
        cfg = FleetConfig(cache_capacity=6, strategy="skp", concurrency=1)
        assert run_cohort_fleet(pop, cfg).saturated

    def test_server_cache_rejected(self):
        pop = _zipf_pop(n_clients=4, requests=10)
        from repro.cache import LRUCache

        with pytest.raises(ValueError, match="server cache"):
            run_cohort_fleet(pop, FleetConfig(), server_cache=LRUCache(5))


class TestHybrid:
    def test_validation_preset_within_5pct(self):
        # The acceptance bar: on the fleet-hybrid-validate operating point
        # the hybrid column must sit within 5 % of the event column for
        # both mean access time and hit rate.
        from repro.experiments import run
        from repro.experiments.presets import preset

        spec = preset("fleet-hybrid-validate")
        rows = {c.params["engine"]: c.metrics
                for c in run(spec, workers=1).cells}
        ev, hy = rows["event"], rows["hybrid"]
        t_rel = abs(hy["mean_access_time"] - ev["mean_access_time"])
        t_rel /= ev["mean_access_time"]
        h_rel = abs(hy["hit_rate"] - ev["hit_rate"]) / ev["hit_rate"]
        assert t_rel <= 0.05, f"hybrid mean T off by {t_rel:.1%}"
        assert h_rel <= 0.05, f"hybrid hit rate off by {h_rel:.1%}"

    def test_direct_api_and_diagnostics(self):
        n = 100
        cfg = FleetConfig(cache_capacity=6, strategy="skp", concurrency=24,
                          engine="hybrid", hybrid_sample=32)

        def factory(ids):
            return subset_population(_zipf_pop(n_clients=n, requests=60), ids)

        res = run_hybrid_fleet(factory, n, cfg)
        assert isinstance(res, HybridFleetResult)
        assert res.n_modeled == n
        assert res.n_clients == n  # modeled count, not sample size
        assert res.sample_size == 32
        assert res.converged
        assert len(res.client_stats) == 32

    def test_full_sample_degenerates_to_event(self):
        # K >= N: every client is simulated, the closure has nothing to
        # extrapolate, and the metrics are the event engine's.
        pop = _zipf_pop(n_clients=12, requests=40)
        cfg = FleetConfig(cache_capacity=6, strategy="skp", concurrency=8)
        ev = run_fleet(pop, cfg)
        hy = run_hybrid_fleet(
            lambda ids: subset_population(pop, ids), 12,
            replace(cfg, engine="hybrid"), sample_size=64,
        )
        assert hy.sample_size == 12
        assert math.isclose(hy.aggregate.mean_access_time,
                            ev.aggregate.mean_access_time, rel_tol=1e-9)
        assert hy.aggregate.hit_rate == ev.aggregate.hit_rate

    def test_sample_client_ids(self):
        ids = sample_client_ids(1_000_000, 64)
        assert len(ids) == 64
        assert len(set(ids)) == 64
        assert ids == sorted(ids)
        gaps = np.diff(ids)
        assert gaps.min() >= (1_000_000 // 64) - 1  # evenly spaced
        assert sample_client_ids(5, 64) == [0, 1, 2, 3, 4]  # clamped
        with pytest.raises(ValueError):
            sample_client_ids(5, 0)


class TestDispatch:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="engine"):
            FleetConfig(engine="warp")
        with pytest.raises(ValueError, match="hybrid_sample"):
            FleetConfig(hybrid_sample=0)

    def test_run_fleet_dispatches_cohort(self):
        pop = _zipf_pop(n_clients=6, requests=20)
        res = run_fleet(pop, FleetConfig(cache_capacity=4, strategy="skp",
                                         engine="cohort"))
        assert isinstance(res, CohortFleetResult)

    def test_run_fleet_dispatches_hybrid(self):
        pop = _zipf_pop(n_clients=30, requests=20)
        res = run_fleet(pop, FleetConfig(cache_capacity=4, strategy="skp",
                                         concurrency=8, engine="hybrid",
                                         hybrid_sample=8))
        assert isinstance(res, HybridFleetResult)
        assert res.sample_size == 8
        assert res.n_clients == 30


# ---------------------------------------------------------------------------
# Memo-key soundness: equal fingerprints imply equal planner outcomes
# ---------------------------------------------------------------------------

N_ITEMS = 6

_rng = np.random.default_rng(99)
_P = _rng.random((N_ITEMS, N_ITEMS))
_P /= _P.sum(axis=1, keepdims=True) * 1.1
_P.setflags(write=False)
_RETRIEVALS = _rng.uniform(1.0, 30.0, N_ITEMS)
_RETRIEVALS.setflags(write=False)


def _fresh_state():
    from repro.core.planner import Prefetcher
    from repro.distsys.planning import ClientPlanState

    return ClientPlanState(
        Prefetcher(strategy="skp"),
        lambda item: _P[int(item)],
        _RETRIEVALS,
        3,
        N_ITEMS,
    )


operations = st.lists(
    st.tuples(
        st.sampled_from(("admit", "discard", "pend", "pop", "promote", "plan")),
        st.integers(0, N_ITEMS - 1),
        st.sampled_from((0.0, 10.0, 25.0, 50.0)),  # a v_quantum-like grid
    ),
    min_size=1,
    max_size=60,
)


@given(operations)
@settings(max_examples=60, deadline=None)
def test_plan_memo_key_determines_outcome(ops):
    """The cohort memo's contract, brute-forced.

    Drive one planner state through an arbitrary op sequence and record
    every ``plan_view`` decision under the memo key the cohort kernel
    would use — ``(item, cache_key, pending_key, window)``.  Whenever a
    key recurs, the fresh solve must reproduce the recorded decision:
    that is precisely what licenses the kernel to replay a cached outcome
    for a *different* client of the same cohort.
    """
    state = _fresh_state()
    seen: dict[tuple, tuple] = {}
    for op, item, window in ops:
        # Invalid ops degrade to no-ops the way the engines' guards would
        # skip them (same conventions as test_planning_property.py).
        if op == "admit":
            if item in state.cache or item in state.pending:
                continue
            for pending_item in list(state.pending):
                state.promote(pending_item)
            state.admit_demand(item)
        elif op == "discard":
            state.cache_discard(item)
        elif op == "pend":
            if (
                item not in state.pending
                and item not in state.cache
                and len(state.cache) + len(state.pending) < state.capacity
            ):
                state.pending_add(item, math.inf)
        elif op == "pop":
            if item in state.pending:
                state.pending_pop(item)
        elif op == "promote":
            if item in state.pending:
                state.promote(item)
        else:  # plan
            key = (item, state.cache_key(), state.pending_key(), window)
            outcome = state.plan_view(item, window)
            decision = (tuple(outcome.prefetch), tuple(outcome.eject))
            if key in seen:
                assert seen[key] == decision
            else:
                seen[key] = decision
            for f in outcome.prefetch:
                state.pending_add(f, math.inf)
