"""Tests for gateway sessions: virtual-time planning state + TTL/LRU store."""

import numpy as np
import pytest

from repro.distsys.fleet import FleetConfig, run_fleet
from repro.gateway.sessions import GatewaySession, SessionConfig, SessionStore
from repro.workload.population import zipf_mixture_population


def _store(config=None, *, now=None):
    """A SessionStore over a 20-item unit catalog with an injectable clock."""
    clock_value = [0.0] if now is None else now
    config = config or SessionConfig()
    retrievals = np.ones(20)
    return (
        SessionStore(config, retrievals, clock=lambda: clock_value[0]),
        clock_value,
    )


class TestSessionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(cache_capacity=-1)
        with pytest.raises(ValueError):
            SessionConfig(ttl=0.0)
        with pytest.raises(ValueError):
            SessionConfig(max_sessions=0)


class TestGatewaySession:
    def test_requires_exactly_one_model_source(self):
        config = SessionConfig()
        retrievals = np.ones(4)
        prefetcher = config.build_prefetcher()
        with pytest.raises(ValueError):
            GatewaySession("s", config, retrievals, prefetcher)
        with pytest.raises(ValueError):
            GatewaySession(
                "s", config, retrievals, prefetcher,
                model=object(), provider=lambda i: np.ones(4) / 4,
            )

    def test_first_report_is_unscored_warm_start(self):
        store, _ = _store()
        session = store.get_or_create("alice")
        advice = session.report(3, 5.0)
        assert advice.served == "warm"
        assert advice.access_time == 0.0
        assert session.stats.requests == 0  # warm start is not scored
        assert 3 in session.state.cache

    def test_validates_item_and_viewing_time(self):
        store, _ = _store()
        session = store.get_or_create("alice")
        with pytest.raises(ValueError):
            session.report(20, 1.0)  # outside the catalog
        with pytest.raises(ValueError):
            session.report(-1, 1.0)
        with pytest.raises(ValueError):
            session.report(0, -0.5)
        with pytest.raises(ValueError):
            session.report(0, float("nan"))

    def test_state_survives_across_requests(self):
        # The same session keeps cache/pending/clock between reports; a
        # re-request of a cached item is a hit with zero access time.
        store, _ = _store()
        session = store.get_or_create("alice")
        session.report(3, 5.0)
        advice = session.report(3, 5.0)
        assert advice.served == "hit"
        assert advice.access_time == 0.0
        assert session.stats.cache_hits == 1
        assert store.get_or_create("alice") is session

    def test_miss_queues_behind_prefetch_backlog(self):
        # Short viewing, slow link: the prefetches planned during viewing
        # are still in flight at the next request, so a demand miss waits
        # for the whole backlog (the §2 non-preemptive downlink).
        row = np.zeros(20)
        row[1], row[2] = 0.6, 0.3
        config = SessionConfig()
        store = SessionStore(
            config, np.full(20, 4.0), clock=lambda: 0.0  # 4s per transfer
        )
        session = store.get_or_create("alice", provider=lambda i: row)
        session.report(0, 3.0)
        assert session.state.pending == {1: 4.0}  # still in flight at t=3
        advice = session.report(5, 1.0)
        assert advice.served == "miss"
        # t_req = 3; the channel drains the prefetch (until 4) then fetches.
        assert advice.access_time == pytest.approx(4.0 - 3.0 + 4.0)

    def test_wait_serves_at_prefetch_arrival(self):
        row = np.zeros(20)
        row[1], row[2] = 0.6, 0.3
        store = SessionStore(
            SessionConfig(), np.full(20, 4.0), clock=lambda: 0.0
        )
        session = store.get_or_create("alice", provider=lambda i: row)
        session.report(0, 3.0)
        advice = session.report(1, 1.0)  # the in-flight prefetch itself
        assert advice.served == "wait"
        assert advice.access_time == pytest.approx(1.0)  # 4.0 arrival - 3.0 req
        assert session.stats.prefetches_used == 1

    def test_snapshot_is_json_friendly(self):
        import json

        store, _ = _store()
        session = store.get_or_create("alice")
        session.report(0, 1.0)
        session.report(1, 1.0)
        snap = session.snapshot()
        json.dumps(snap)
        assert snap["session"] == "alice"
        assert snap["reports"] == 2
        assert snap["requests"] == 1


class TestSessionStore:
    def test_ttl_expiry(self):
        store, now = _store(SessionConfig(ttl=10.0))
        store.get_or_create("alice")
        now[0] = 5.0
        store.get_or_create("bob")
        assert len(store) == 2
        now[0] = 11.0  # alice idle 11s > ttl, bob idle 6s
        store.sweep()
        assert "alice" not in store
        assert "bob" in store
        assert store.counters.evicted_ttl == 1

    def test_touch_resets_ttl(self):
        store, now = _store(SessionConfig(ttl=10.0))
        store.get_or_create("alice")
        now[0] = 8.0
        store.get_or_create("alice")  # touch
        now[0] = 16.0  # idle 8s since touch
        store.sweep()
        assert "alice" in store

    def test_lru_cap_evicts_least_recently_used(self):
        store, _ = _store(SessionConfig(max_sessions=2))
        store.get_or_create("a")
        store.get_or_create("b")
        store.get_or_create("a")  # refresh a; b is now LRU
        store.get_or_create("c")
        assert len(store) == 2
        assert "b" not in store
        assert store.ids() == ("a", "c")
        assert store.counters.evicted_lru == 1

    def test_drop_and_get(self):
        store, _ = _store()
        store.get_or_create("alice")
        assert store.get("alice") is not None
        assert store.drop("alice")
        assert not store.drop("alice")
        assert store.get("alice") is None

    def test_eviction_discards_session_state(self):
        # After a TTL eviction, the same id starts a fresh session: no
        # cache carry-over, warm start again.
        store, now = _store(SessionConfig(ttl=1.0))
        session = store.get_or_create("alice")
        session.report(3, 5.0)
        now[0] = 100.0
        fresh = store.get_or_create("alice")
        assert fresh is not session
        assert fresh.report(3, 5.0).served == "warm"
        assert store.counters.created == 2


class TestClosedLoopEquivalence:
    """A gateway session replays the unbounded fleet exactly."""

    @pytest.mark.parametrize("predictor", ["frequency:ewma", "markov:ewma"])
    def test_replay_matches_unbounded_fleet(self, predictor):
        population = zipf_mixture_population(
            4, 30, 60, overlap=0.5, stagger=0.0, seed=11
        )
        config = FleetConfig(
            concurrency=None, model_source="online", online_predictor=predictor
        )
        fleet = run_fleet(population, config)

        session_config = SessionConfig(predictor=predictor)
        store = SessionStore(
            session_config, np.ascontiguousarray(population.sizes), clock=lambda: 0.0
        )
        for workload, stats in zip(population.clients, fleet.client_stats):
            session = store.get_or_create(f"c{workload.client_id}")
            session.report(workload.initial_item, workload.initial_viewing_time)
            for item, view in zip(
                workload.trace.items, workload.trace.viewing_times
            ):
                session.report(int(item), float(view))
            assert session.stats.serve_kinds == stats.serve_kinds
            assert session.stats.access_times == stats.access_times
