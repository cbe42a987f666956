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


class _CountingDict(dict):
    """A dict that counts the values read from it, by key or by iteration."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def items(self):
        for entry in super().items():
            self.reads += 1
            yield entry


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


class TestNonFiniteClock:
    """A report that would make the virtual clock infinite is rejected
    before it changes anything; from an infinite clock every later access
    time would be NaN."""

    @staticmethod
    def _state(session):
        return (
            session.clock, session.snapshot(), list(session.stats.access_times),
            session.stats.serve_kinds[:],
        )

    @pytest.mark.parametrize("viewing", [float("inf"), 10**400], ids=["inf", "int"])
    def test_non_finite_viewing_time_rejected(self, viewing):
        store, _ = _store()
        session = store.get_or_create("alice")
        session.report(0, 1.0)
        before = self._state(session)
        with pytest.raises(ValueError, match="viewing_time"):
            session.report(1, viewing)
        assert self._state(session) == before
        assert session.report(1, 1.0).access_time == 1.0  # a miss on a unit link

    def test_overflowing_clock_rejected_and_session_recovers(self):
        store, _ = _store()
        session = store.get_or_create("alice")
        session.report(0, 1e308)
        before = self._state(session)
        with pytest.raises(ValueError, match="clock finite"):
            session.report(1, 1e308)
        assert self._state(session) == before
        advice = session.report(0, 0.0)
        assert advice.served == "hit"
        assert np.isfinite([advice.t_request, advice.t_serve, advice.access_time]).all()

    def test_rates_null_until_a_request_is_scored(self):
        import json

        store, _ = _store()
        session = store.get_or_create("alice")
        session.report(0, 1.0)  # the warm start is not scored
        snap = session.snapshot()
        assert snap["hit_rate"] is None and snap["mean_access_time"] is None
        assert "NaN" not in json.dumps(snap)
        session.report(0, 1.0)
        snap = session.snapshot()
        assert (snap["hit_rate"], snap["mean_access_time"]) == (1.0, 0.0)


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

    def test_lookup_reads_the_expired_sessions_and_one_live(self):
        # 10,000 live sessions (the default max_sessions) touched 1 ms
        # apart; the three oldest are idle past the TTL at the lookup.
        store, now = _store(SessionConfig(ttl=10.0))
        row = np.full(20, 0.05)
        for k in range(10_000):
            now[0] = k * 0.001
            store.get_or_create(f"s{k}", provider=lambda i: row)
        now[0] = 10.0025
        store._last_seen = last_seen = _CountingDict(store._last_seen)
        store.get_or_create("s5000")
        assert last_seen.reads == 4
        assert store.counters.evicted_ttl == 3
        assert len(store) == 9_997
        assert store.ids()[:2] == ("s3", "s4") and store.ids()[-1] == "s5000"

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
