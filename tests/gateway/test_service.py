"""Tests for the gateway's route dispatch and decision surface (no sockets).

:meth:`GatewayService.handle` is a pure function of ``(method, path,
body)``, so the whole HTTP API contract is testable without opening a
socket; ``test_e2e.py`` covers the asyncio framing on top.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gateway import GatewayConfig, GatewayService, SessionConfig, TierSpec


@pytest.fixture()
def service():
    config = GatewayConfig.uniform(
        20,
        session=SessionConfig(cache_capacity=4),
        tiers=(TierSpec("edge", "lru", 8),),
    )
    return GatewayService(config, clock=lambda: 0.0)


def _post_access(service, payload):
    return service.handle("POST", "/v1/access", json.dumps(payload).encode())


class TestRouting:
    def test_healthz(self, service):
        status, ctype, body = service.handle("GET", "/healthz", b"")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["catalog"] == 20

    def test_metrics(self, service):
        _post_access(service, {"session": "a", "item": 1, "viewing_time": 2.0})
        status, ctype, body = service.handle("GET", "/metrics", b"")
        assert status == 200
        assert ctype.startswith("text/plain")
        text = body.decode()
        assert "gateway_reports_total 1" in text
        assert "gateway_decision_latency_seconds" in text
        assert 'gateway_tier_hits_total{tier="edge"}' in text

    def test_unknown_route_404(self, service):
        status, _, body = service.handle("GET", "/nope", b"")
        assert status == 404
        assert "error" in json.loads(body)

    def test_wrong_method_405(self, service):
        for method, path in [
            ("POST", "/healthz"),
            ("POST", "/metrics"),
            ("GET", "/v1/access"),
            ("PUT", "/v1/session/a"),
        ]:
            status, _, _ = service.handle(method, path, b"")
            assert status == 405, (method, path)

    def test_session_lifecycle_over_routes(self, service):
        _post_access(service, {"session": "a", "item": 1, "viewing_time": 2.0})
        status, _, body = service.handle("GET", "/v1/session/a", b"")
        assert status == 200
        assert json.loads(body)["session"] == "a"
        status, _, _ = service.handle("DELETE", "/v1/session/a", b"")
        assert status == 200
        status, _, _ = service.handle("GET", "/v1/session/a", b"")
        assert status == 404
        status, _, _ = service.handle("DELETE", "/v1/session/a", b"")
        assert status == 404


class TestAccessValidation:
    def test_invalid_json_400(self, service):
        status, _, body = service.handle("POST", "/v1/access", b"{not json")
        assert status == 400

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"session": "", "item": 1},
            {"session": "a"},
            {"session": "a", "item": "1"},
            {"session": "a", "item": True},
            {"session": "a", "item": 1, "viewing_time": "x"},
            {"session": "a", "item": 1, "viewing_time": True},
            {"session": "a", "item": 99},
            {"session": "a", "item": -1},
            {"session": "a", "item": 1, "viewing_time": -1.0},
        ],
    )
    def test_bad_payloads_400(self, service, payload):
        status, _, body = _post_access(service, payload)
        assert status == 400
        assert "error" in json.loads(body)

    def test_bad_skp_variant_fails_at_construction(self):
        # A server misconfiguration must stop the service from starting,
        # not surface later as a 400 blamed on some client's report.
        config = GatewayConfig.uniform(20, session=SessionConfig(skp_variant="bogus"))
        with pytest.raises(ValueError, match="variant"):
            GatewayService(config, clock=lambda: 0.0)

    def test_bad_request_does_not_create_session(self, service):
        _post_access(service, {"session": "a", "item": 99})
        assert service.store.get("a") is None
        assert service.store.counters.created == 0

    def test_rejected_reports_do_not_evict_a_live_session(self):
        service = GatewayService(
            GatewayConfig.uniform(10, session=SessionConfig(max_sessions=2)),
            clock=lambda: 0.0,
        )
        for item in (1, 2, 3):
            assert _post_access(service, {"session": "live", "item": item})[0] == 200
        model = service.store.get("live").state.model
        for i, payload in enumerate(
            [{"item": 99}, {"item": 99}, {"item": 1, "viewing_time": -1}]
        ):
            assert _post_access(service, {"session": f"new-{i}", **payload})[0] == 400
        assert service.store.get("live").state.model is model
        assert len(service.store) == 1
        assert service.store.counters.created == 1
        assert service.store.counters.evicted_lru == 0


def _strict_json(body: bytes):
    """``json.loads`` that refuses NaN and Infinity, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(body, parse_constant=refuse)


_REPORT_FIELDS = st.fixed_dictionaries(
    {
        "session": st.sampled_from(["a", "b"]) | st.text(max_size=4),
        "item": st.integers(-2, 22) | st.floats() | st.booleans() | st.none(),
        "viewing_time": st.floats(min_value=0.0) | st.floats()
        | st.integers(-1, 10**400) | st.text(max_size=2),
    }
)
_REQUESTS = st.tuples(
    st.sampled_from(["GET", "POST", "DELETE", "PUT"]) | st.text(max_size=4),
    st.sampled_from(["/v1/access", "/v1/session/a", "/v1/session/b", "/healthz", "/metrics"])
    | st.text(max_size=12),
    st.binary(max_size=24)
    | _REPORT_FIELDS.map(lambda fields: json.dumps(fields).encode())
    | st.integers(1, 20_000).map(lambda depth: b"[" * depth),
)


class TestGarbageInput:
    """Whatever a client sends, ``handle`` answers with a status and JSON."""

    @pytest.mark.parametrize(
        "body", [b"\xff", b"[" * 100_000, b"{\"a\": \xfe}"], ids=["ff", "deep", "fe"]
    )
    def test_undecodable_or_too_deep_body_400(self, service, body):
        status, _, out = service.handle("POST", "/v1/access", body)
        assert status == 400
        assert _strict_json(out)["error"].startswith("invalid JSON body")

    @pytest.mark.parametrize(
        "viewing", [b"Infinity", b"1e999", b"1" + b"0" * 400], ids=["inf", "1e999", "int"]
    )
    def test_non_finite_viewing_time_400(self, service, viewing):
        _post_access(service, {"session": "a", "item": 1, "viewing_time": 2.0})
        before = service.handle("GET", "/v1/session/a", b"")
        body = b'{"session": "a", "item": 2, "viewing_time": ' + viewing + b"}"
        status, _, out = service.handle("POST", "/v1/access", body)
        assert status == 400
        assert "viewing_time" in _strict_json(out)["error"]
        assert service.handle("GET", "/v1/session/a", b"") == before

    def test_clock_overflow_400_and_later_reports_stay_json(self, service):
        report = {"session": "a", "item": 1, "viewing_time": 1e308}
        assert _post_access(service, report)[0] == 200
        assert _post_access(service, report)[0] == 400
        status, _, body = _post_access(service, {"session": "a", "item": 1, "viewing_time": 0})
        assert status == 200
        assert _strict_json(body)["served"] == "hit"
        _strict_json(service.handle("GET", "/v1/session/a", b"")[2])

    def test_unscored_session_rates_are_null(self, service):
        _post_access(service, {"session": "a", "item": 1, "viewing_time": 2.0})
        snap = _strict_json(service.handle("GET", "/v1/session/a", b"")[2])
        assert snap["hit_rate"] is None
        assert snap["mean_access_time"] is None

    @given(st.lists(_REQUESTS, min_size=1, max_size=6))
    def test_handle_never_raises_and_answers_json(self, requests):
        service = GatewayService(
            GatewayConfig.uniform(
                20, session=SessionConfig(cache_capacity=4), tiers=(TierSpec("edge", "lru", 8),)
            ),
            clock=lambda: 0.0,
        )
        for method, path, body in requests:
            status, ctype, out = service.handle(method, path, body)
            assert status in (200, 400, 404, 405)
            if ctype == "application/json":
                _strict_json(out)
            else:
                assert (method, path) == ("GET", "/metrics")


class TestAdvicePayload:
    def test_warm_then_hit_payloads(self, service):
        status, _, body = _post_access(
            service, {"session": "a", "item": 1, "viewing_time": 2.0}
        )
        warm = json.loads(body)
        assert status == 200
        assert warm["served"] == "warm"
        assert warm["index"] == 0
        status, _, body = _post_access(
            service, {"session": "a", "item": 1, "viewing_time": 2.0}
        )
        hit = json.loads(body)
        assert hit["served"] == "hit"
        assert hit["access_time"] == 0.0
        assert hit["index"] == 1

    def test_advice_is_tier_annotated(self, service):
        status, _, body = _post_access(
            service, {"session": "a", "item": 1, "viewing_time": 2.0}
        )
        advice = json.loads(body)
        assert advice["demand_source"] == "origin"
        assert set(advice["sources"]) == {str(i) for i in advice["prefetch"]}
        assert "decision_seconds" in advice

    def test_metrics_count_serve_kinds(self, service):
        _post_access(service, {"session": "a", "item": 1, "viewing_time": 2.0})
        _post_access(service, {"session": "a", "item": 1, "viewing_time": 2.0})
        m = service.metrics
        assert m.counter("gateway_reports_total") == 2
        assert m.counter("gateway_served_warm_total") == 1
        assert m.counter("gateway_served_hit_total") == 1

    def test_snapshot_shape(self, service):
        _post_access(service, {"session": "a", "item": 1, "viewing_time": 2.0})
        snap = service.snapshot()
        assert snap["sessions"] == 1
        assert snap["sessions_created"] == 1
        assert snap["catalog"] == 20
        assert snap["tiers"][0]["tier"] == "edge"
        json.dumps(snap)


class TestNoTierConfig:
    def test_mirror_disabled(self):
        config = GatewayConfig.uniform(10, tiers=())
        service = GatewayService(config, clock=lambda: 0.0)
        status, _, body = _post_access(
            service, {"session": "a", "item": 1, "viewing_time": 1.0}
        )
        advice = json.loads(body)
        assert status == 200
        assert "demand_source" not in advice
        assert "tiers" not in service.snapshot()


class TestGatewayConfig:
    def test_sizes_validation(self):
        import numpy as np

        with pytest.raises(ValueError):
            GatewayConfig(sizes=np.array([]))
        with pytest.raises(ValueError):
            GatewayConfig(sizes=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            GatewayConfig(sizes=np.array([[1.0]]))

    def test_uniform(self):
        config = GatewayConfig.uniform(7)
        assert config.n_items == 7
        assert (config.sizes == 1.0).all()
