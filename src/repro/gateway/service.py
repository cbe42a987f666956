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
framing layer (request line, headers, ``Content-Length`` body, keep-alive,
pipelining) — the gateway adds **zero** runtime dependencies beyond the
numpy the library already requires.  Route dispatch lives in
:meth:`GatewayService.handle`, a plain function of ``(method, path, body)``,
so the routes are unit testable without sockets; the asyncio layer, one
:class:`asyncio.Protocol` per connection, only frames bytes around it and
answers every complete request of a read with one write.

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
from repro.gateway.sessions import SessionConfig, SessionStore, check_report

__all__ = ["GatewayConfig", "GatewayService", "serve"]

#: Reject report bodies larger than this (a decision request is ~100 bytes).
_MAX_BODY = 1 << 20
#: Drop a connection whose request head (request line + headers) is larger.
_MAX_HEAD = 1 << 16

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
        # Checked before the store: a rejected report must not create a
        # session, nor evict a live one to make room for it.
        try:
            item, viewing = check_report(item, viewing, self.config.n_items)
        except ValueError as exc:
            raise _HTTPError(400, str(exc)) from None
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
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.Server:
        """Bind and start serving; returns the running asyncio server."""
        loop = asyncio.get_running_loop()
        return await loop.create_server(lambda: _HTTPProtocol(self), host, port)


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


class _HTTPProtocol(asyncio.Protocol):
    """One client connection: pipelined HTTP/1.1 requests, answered in order.

    Each read is appended to the connection's buffer.  Every complete
    request in it goes, in order, through the service's ``handle``, and
    their responses leave in one ``transport.write``.  Nothing after a
    request that does not keep the connection alive is dispatched.  Bad
    framing drops the connection after the responses already computed for
    that read are written.  At EOF every complete request is answered and
    an incomplete one discarded before the connection closes.  While the
    transport's write buffer is over its high-water mark, reading pauses
    and nothing is dispatched.
    """

    def __init__(self, service: GatewayService) -> None:
        self._service = service
        self._transport: asyncio.Transport | None = None
        self._buffer = bytearray()
        self._paused = False
        self._eof = False
        self._reset_request()

    def _reset_request(self) -> None:
        # What is framed of the request at the front of the buffer, so that
        # each of its lines is parsed once however it is cut into reads.
        # Offsets count from the request's first byte: ``_parsed`` is where
        # the next unparsed line starts, then the body; ``_body_end`` is -1
        # until the head is complete.
        self._parsed = 0
        self._request_line: list[str] | None = None
        self._headers: dict[str, str] = {}
        self._body_end = -1

    # -- asyncio callbacks -------------------------------------------------
    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if not self._paused:
            self._serve()

    def eof_received(self) -> bool:
        self._eof = True
        if not self._paused:
            self._serve()
        return True  # keep the transport: _serve closes it once answered

    def pause_writing(self) -> None:
        self._paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        if not self._transport.is_closing():
            self._transport.resume_reading()
            self._serve()

    # -- framing and dispatch ---------------------------------------------
    def _serve(self) -> None:
        """Answer every complete request in the buffer with one write."""
        transport = self._transport
        if transport.is_closing():
            return
        buffer = self._buffer
        responses = []
        start = 0
        close = self._eof
        error = None
        try:
            while True:
                request = self._frame(buffer, start)
                if request is None:
                    break
                method, path, version, headers, body, start = request
                status, ctype, payload = self._service.handle(method, path, body)
                keep_alive = _keep_alive(version, headers)
                responses.append(_response_bytes(status, ctype, payload, keep_alive))
                if not keep_alive:
                    close = True
                    break
        except _BadRequest:
            close = True
        except Exception as exc:  # a fault in handle: answer what is done, then drop
            close = True
            error = exc
        if responses:
            transport.write(b"".join(responses))
        if close:
            buffer.clear()
            transport.close()
        else:
            del buffer[:start]
        if error is not None:
            asyncio.get_running_loop().call_exception_handler({
                "message": "gateway request handler failed",
                "exception": error,
                "protocol": self,
                "transport": transport,
            })

    def _frame(
        self, buffer: bytearray, start: int
    ) -> tuple[str, str, str, dict[str, str], bytes, int] | None:
        """Frame the request at ``buffer[start:]``.

        Returns ``(method, path, version, headers, body, end)``, ``end``
        being the offset just past the request, or None while it is
        incomplete.  Raises :class:`_BadRequest` on framing that drops the
        connection.  Each line is checked once it is complete, so a bad one
        drops the connection before the rest of its request arrives.
        """
        if self._body_end < 0:
            limit = start + _MAX_HEAD
            pos = start + self._parsed
            headers = self._headers
            while True:
                eol = buffer.find(b"\n", pos, limit)
                if eol < 0:
                    if len(buffer) >= limit:
                        raise _BadRequest(f"request head over {_MAX_HEAD} bytes")
                    self._parsed = pos - start
                    return None
                line = buffer[pos:eol]
                pos = eol + 1
                if self._request_line is None:
                    parts = line.decode("latin-1").split()
                    if len(parts) != 3:
                        raise _BadRequest(f"malformed request line: {bytes(line)!r}")
                    self._request_line = parts
                elif not line or line == b"\r":
                    break
                else:
                    name, sep, value = line.decode("latin-1").partition(":")
                    if not sep:
                        raise _BadRequest(f"malformed header: {bytes(line)!r}")
                    headers[name.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                raise _BadRequest("malformed Content-Length") from None
            if length < 0 or length > _MAX_BODY:
                raise _BadRequest(f"content length {length} out of bounds")
            self._parsed = pos - start
            self._body_end = self._parsed + length
        end = start + self._body_end
        if len(buffer) < end:
            return None
        body = bytes(buffer[start + self._parsed:end])
        method, target, version = self._request_line
        headers = self._headers
        self._reset_request()
        # Query strings are not part of the API; strip them defensively.
        return method.upper(), target.split("?", 1)[0], version, headers, body, end


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
