"""The speculation gateway: an asyncio HTTP sidecar serving prefetch advice.

This is the ROADMAP's "ship it as a real service" item: the planner and the
online predictors, packaged behind four endpoints a client (or an edge
proxy) can call between accesses:

* ``POST /v1/access`` — report one access (``{"session", "item",
  "viewing_time"}``); the response is the prefetch advice for the viewing
  period that just began, annotated with where each advised item would be
  served from in the mirrored tier hierarchy;
* ``GET /v1/session/<id>`` — live session state (virtual clock, cache,
  pending, serve accounting); ``DELETE`` drops the session;
* ``GET /metrics`` — Prometheus text: decision-latency quantiles, serve-kind
  counters, session-store lifecycle counts, mirrored-tier hit rates;
* ``GET /healthz`` — liveness plus basic occupancy.

Everything is stdlib ``asyncio`` + ``json`` over a hand-rolled HTTP/1.1
reader (request line, headers, ``Content-Length`` body, keep-alive) — the
gateway adds **zero** runtime dependencies beyond the numpy the library
already requires.  Route dispatch lives in :meth:`GatewayService.handle`,
a plain function of ``(method, path, body)``, so the protocol layer is unit
testable without sockets; the asyncio layer only frames bytes around it.

Decision latency is measured around the full decision (session lookup,
planning, tier annotation) and recorded into a seeded reservoir
(:mod:`repro.gateway.metrics`), which is what the p50/p99 SLO in
``benchmarks/bench_gateway.py`` reads back.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.distsys.network import Link
from repro.gateway.cache import GatewayCacheHierarchy, TierSpec
from repro.gateway.metrics import GatewayMetrics
from repro.gateway.sessions import SessionConfig, SessionStore

__all__ = ["GatewayConfig", "GatewayService", "serve"]

#: Reject report bodies larger than this (a decision request is ~100 bytes).
_MAX_BODY = 1 << 20

_JSON = "application/json"
_TEXT = "text/plain; version=0.0.4"  # Prometheus exposition content type


@dataclass(frozen=True)
class GatewayConfig:
    """One gateway deployment: the catalog it advises on plus all knobs.

    ``sizes`` is the shared item catalog (retrieval times derive from it
    over the ``latency``/``bandwidth`` link, exactly as the simulators
    derive theirs), ``session`` the per-session planning configuration, and
    ``tiers`` the mirrored cache hierarchy (client-nearest first; empty
    tuple disables the mirror).
    """

    sizes: np.ndarray
    session: SessionConfig = field(default_factory=SessionConfig)
    tiers: tuple[TierSpec, ...] = (TierSpec("edge", "lru", 64),)
    latency: float = 0.0
    bandwidth: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes, dtype=np.float64)
        if sizes.ndim != 1 or sizes.shape[0] < 1:
            raise ValueError("sizes must be a non-empty 1-D array")
        if np.any(sizes <= 0) or not np.all(np.isfinite(sizes)):
            raise ValueError("sizes must be finite and positive")
        object.__setattr__(self, "sizes", sizes)

    @classmethod
    def uniform(cls, n_items: int, **kwargs) -> "GatewayConfig":
        """Equal-size catalog — the paper's §5 assumption, the serve default."""
        return cls(sizes=np.ones(int(n_items)), **kwargs)

    @property
    def n_items(self) -> int:
        return int(self.sizes.shape[0])


class _HTTPError(Exception):
    """A client error with an HTTP status to report."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class GatewayService:
    """Session store + tier mirror + metrics behind an HTTP front door."""

    def __init__(
        self,
        config: GatewayConfig,
        *,
        clock=time.monotonic,
    ) -> None:
        self.config = config
        self.link = Link(latency=config.latency, bandwidth=config.bandwidth)
        self.retrievals = self.link.retrieval_times(config.sizes)
        self.store = SessionStore(config.session, self.retrievals, clock=clock)
        self.hierarchy = (
            GatewayCacheHierarchy(
                config.tiers,
                config.sizes,
                latency=config.latency,
                bandwidth=config.bandwidth,
                seed=config.seed,
            )
            if config.tiers
            else None
        )
        self.metrics = GatewayMetrics(seed=config.seed)

    # -- the decision ----------------------------------------------------
    def report_access(
        self, payload: dict, *, provider=None
    ) -> dict:
        """One access report → one advice payload (the POST /v1/access core).

        ``provider`` pins a *newly created* session to an oracle probability
        provider — the in-process replay path used by tests and the
        closed-loop comparison; HTTP callers cannot reach it.
        """
        if not isinstance(payload, dict):
            raise _HTTPError(400, "body must be a JSON object")
        session_id = payload.get("session")
        if not isinstance(session_id, str) or not session_id:
            raise _HTTPError(400, "field 'session' must be a non-empty string")
        item = payload.get("item")
        if not isinstance(item, int) or isinstance(item, bool):
            raise _HTTPError(400, "field 'item' must be an integer")
        viewing = payload.get("viewing_time", 0.0)
        if isinstance(viewing, bool) or not isinstance(viewing, (int, float)):
            raise _HTTPError(400, "field 'viewing_time' must be a number")

        started = time.perf_counter()
        session = self.store.get_or_create(session_id, provider=provider)
        try:
            advice = session.report(item, viewing)
        except ValueError as exc:
            raise _HTTPError(400, str(exc)) from None
        out = advice.to_payload()
        if self.hierarchy is not None:
            out["demand_source"] = self.hierarchy.observe_access(item)
            out["sources"] = {
                str(i): tier
                for i, tier in self.hierarchy.annotate(advice.prefetch).items()
            }
        elapsed = time.perf_counter() - started
        out["decision_seconds"] = elapsed

        metrics = self.metrics
        metrics.observe("gateway_decision_latency_seconds", elapsed)
        metrics.inc("gateway_reports_total")
        metrics.inc(f"gateway_served_{advice.served}_total")
        metrics.inc("gateway_prefetch_advised_total", len(advice.prefetch))
        return out

    # -- observability ---------------------------------------------------
    def snapshot(self) -> dict:
        snap = {
            "sessions": len(self.store),
            "sessions_created": self.store.counters.created,
            "sessions_evicted_ttl": self.store.counters.evicted_ttl,
            "sessions_evicted_lru": self.store.counters.evicted_lru,
            "catalog": self.config.n_items,
            "metrics": self.metrics.snapshot(),
        }
        if self.hierarchy is not None:
            snap["tiers"] = self.hierarchy.tier_stats()
        return snap

    def metrics_text(self) -> str:
        """The /metrics payload: recorded metrics plus live gauges."""
        lines = [self.metrics.render().rstrip("\n")]
        counters = self.store.counters
        lines.append("# TYPE gateway_sessions gauge")
        lines.append(f"gateway_sessions {len(self.store)}")
        lines.append("# TYPE gateway_sessions_created_total counter")
        lines.append(f"gateway_sessions_created_total {counters.created}")
        lines.append("# TYPE gateway_sessions_evicted_total counter")
        lines.append(
            f'gateway_sessions_evicted_total{{reason="ttl"}} {counters.evicted_ttl}'
        )
        lines.append(
            f'gateway_sessions_evicted_total{{reason="lru"}} {counters.evicted_lru}'
        )
        if self.hierarchy is not None:
            lines.append("# TYPE gateway_tier_hits_total counter")
            for row in self.hierarchy.tier_stats():
                lines.append(
                    f'gateway_tier_hits_total{{tier="{row["tier"]}"}} {row["hits"]}'
                )
                lines.append(
                    f'gateway_tier_misses_total{{tier="{row["tier"]}"}} {row["misses"]}'
                )
                lines.append(
                    f'gateway_tier_items{{tier="{row["tier"]}"}} {row["items"]}'
                )
        return "\n".join(lines) + "\n"

    # -- route dispatch (socket-free, unit-testable) ----------------------
    def handle(self, method: str, path: str, body: bytes) -> tuple[int, str, bytes]:
        """Dispatch one request; returns ``(status, content_type, body)``."""
        try:
            return self._dispatch(method, path, body)
        except _HTTPError as exc:
            return exc.status, _JSON, _json_bytes({"error": str(exc)})

    def _dispatch(self, method: str, path: str, body: bytes) -> tuple[int, str, bytes]:
        if path == "/healthz":
            if method != "GET":
                raise _HTTPError(405, "method not allowed")
            import repro

            return 200, _JSON, _json_bytes(
                {
                    "status": "ok",
                    "version": repro.__version__,
                    "sessions": len(self.store),
                    "catalog": self.config.n_items,
                }
            )
        if path == "/metrics":
            if method != "GET":
                raise _HTTPError(405, "method not allowed")
            return 200, _TEXT, self.metrics_text().encode()
        if path == "/v1/access":
            if method != "POST":
                raise _HTTPError(405, "method not allowed")
            try:
                payload = json.loads(body) if body else {}
            except json.JSONDecodeError as exc:
                raise _HTTPError(400, f"invalid JSON body: {exc}") from None
            return 200, _JSON, _json_bytes(self.report_access(payload))
        if path.startswith("/v1/session/"):
            session_id = path[len("/v1/session/"):]
            if method == "GET":
                session = self.store.get(session_id)
                if session is None:
                    raise _HTTPError(404, f"unknown session {session_id!r}")
                return 200, _JSON, _json_bytes(session.snapshot())
            if method == "DELETE":
                if not self.store.drop(session_id):
                    raise _HTTPError(404, f"unknown session {session_id!r}")
                return 200, _JSON, _json_bytes({"dropped": session_id})
            raise _HTTPError(405, "method not allowed")
        raise _HTTPError(404, f"no route for {path!r}")

    # -- asyncio HTTP layer ----------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await _read_request(reader)
                if request is None:
                    break
                method, path, version, headers, req_body = request
                status, ctype, resp_body = self.handle(method, path, req_body)
                keep_alive = _keep_alive(version, headers)
                writer.write(_response_bytes(status, ctype, resp_body, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            _BadRequest,
        ):
            pass  # peer went away or sent garbage; drop the connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.Server:
        """Bind and start serving; returns the running asyncio server."""
        return await asyncio.start_server(self._on_connection, host, port)


class _BadRequest(Exception):
    """Unparseable request framing; the connection is dropped."""


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
}


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload).encode()


def _keep_alive(version: str, headers: dict[str, str]) -> bool:
    connection = headers.get("connection", "").lower()
    if connection == "close":
        return False
    if version == "HTTP/1.0":
        return connection == "keep-alive"
    return True


def _response_bytes(status: int, ctype: str, body: bytes, keep_alive: bool) -> bytes:
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, str, dict[str, str], bytes] | None:
    """Read one HTTP/1.1 request; None on a cleanly closed connection."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest(f"malformed request line: {line!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n"):
            break
        if not header:
            return None
        name, sep, value = header.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(f"malformed header: {header!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _BadRequest("malformed Content-Length") from None
    if length < 0 or length > _MAX_BODY:
        raise _BadRequest(f"content length {length} out of bounds")
    body = await reader.readexactly(length) if length else b""
    # Query strings are not part of the API; strip them defensively.
    path = target.split("?", 1)[0]
    return method.upper(), path, version, headers, body


async def serve(
    config: GatewayConfig, *, host: str = "127.0.0.1", port: int = 8273
) -> None:
    """Run a gateway until cancelled (the ``repro gateway serve`` core)."""
    service = GatewayService(config)
    server = await service.start(host, port)
    addr = server.sockets[0].getsockname()
    print(
        f"speculation gateway listening on http://{addr[0]}:{addr[1]}", flush=True
    )
    print(
        f"  catalog {config.n_items} items, predictor {config.session.predictor}, "
        f"cache capacity {config.session.cache_capacity}, "
        f"ttl {config.session.ttl:g}s, max sessions {config.session.max_sessions}",
        flush=True,
    )
    async with server:
        await server.serve_forever()
