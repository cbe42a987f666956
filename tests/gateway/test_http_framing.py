"""Differential fuzz test of the gateway's HTTP/1.1 framing.

The reference below is the StreamReader framing the gateway served with
first (``_read_request`` and ``_on_connection``, with the helpers they call),
copied unchanged.  Hypothesis draws byte streams of valid and garbage
frames, cuts them into chunks and sometimes ends them with EOF; the
gateway's own HTTP layer (``GatewayService.start``) must dispatch the same
requests, write the same response bytes and close the connection at the
same point as the reference, without reaching the loop's exception handler.

The streams run twice: over a loopback socket, and on one connection's
protocol with a fake transport, where the chunk boundaries are exact and
each read that completes requests must answer them with one write.  The
dispatcher is a :class:`GatewayService` subclass whose ``handle`` is a
deterministic function of the request that records its calls: real advice
carries ``decision_seconds``, which varies between runs.
"""

from __future__ import annotations

import asyncio
import json
import socket
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import GatewayConfig, GatewayService, SessionConfig
from repro.gateway import service as service_module

# ---------------------------------------------------------------------------
# The reference framing, copied unchanged
# ---------------------------------------------------------------------------

_MAX_BODY = 1 << 20


class _BadRequest(Exception):
    """Unparseable request framing; the connection is dropped."""


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
}


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


# ---------------------------------------------------------------------------
# The recording service and the two ways of running a stream
# ---------------------------------------------------------------------------

_STATUSES = (200, 400, 404, 405)


class RecordingService(GatewayService):
    """A gateway whose ``handle`` answers deterministically and records calls."""

    def __init__(self) -> None:
        super().__init__(GatewayConfig.uniform(4, tiers=()), clock=lambda: 0.0)
        self.calls: list[tuple[str, str, bytes]] = []

    def handle(self, method: str, path: str, body: bytes) -> tuple[int, str, bytes]:
        self.calls.append((method, path, body))
        n = len(self.calls)
        payload = {"call": n, "method": method, "path": path, "body": body.hex()}
        return _STATUSES[n % 4], "application/json", json.dumps(payload).encode()


class _MemoryWriter:
    """The StreamWriter surface the reference uses, writing to memory."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        assert not self.closed
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True

    async def wait_closed(self) -> None:
        pass


class Outcome:
    """What one connection did: calls dispatched, bytes written, closed or not.

    ``requests`` are the ``(method, path, version, headers, body)`` framed,
    where the run can see them.
    """

    def __init__(self, calls, data: bytes, closed: bool, requests=None) -> None:
        self.calls = list(calls)
        self.data = bytes(data)
        self.closed = closed
        self.requests = requests

    def __repr__(self) -> str:  # pragma: no cover - failure output only
        return f"Outcome(calls={self.calls!r}, data={self.data!r}, closed={self.closed})"


async def _reference_requests(reader: asyncio.StreamReader, into: list) -> None:
    """The requests ``_on_connection`` dispatches, framed by the reference."""
    try:
        while (request := await _read_request(reader)) is not None:
            into.append(request)
            if not _keep_alive(request[2], request[3]):
                break
    except (asyncio.IncompleteReadError, _BadRequest):
        pass


def reference_outcome(chunks: list[bytes], eof: bool) -> Outcome:
    """Run the reference on the whole stream in memory.

    Its answers do not depend on how the stream is chunked, so it is fed at
    once; it runs until it closes or waits for bytes that never come.
    """

    def stream_reader() -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        for chunk in chunks:
            reader.feed_data(chunk)
        if eof:
            reader.feed_eof()
        return reader

    async def main() -> Outcome:
        service = RecordingService()
        writer = _MemoryWriter()
        requests: list = []
        tasks = [
            asyncio.ensure_future(_on_connection(service, stream_reader(), writer)),
            asyncio.ensure_future(_reference_requests(stream_reader(), requests)),
        ]
        for _ in range(3):
            await asyncio.sleep(0)
        closed = writer.closed
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        return Outcome(service.calls, writer.data, closed, requests)

    return asyncio.run(main())


#: How long a live connection may take to produce the reference's answers.
_TIMEOUT_S = 5.0
#: How long a connection the reference keeps open is watched for extra bytes.
_GRACE_S = 0.01


async def _send_chunks(loop, sock: socket.socket, chunks: list[bytes], eof: bool) -> None:
    try:
        for chunk in chunks:
            await loop.sock_sendall(sock, chunk)
            await asyncio.sleep(0)  # let the server read this chunk on its own
        if eof:
            sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass  # the server dropped the connection first


async def _receive(loop, sock: socket.socket, into: bytearray) -> None:
    """Read until the server closes (a reset after its last bytes counts)."""
    while True:
        try:
            data = await loop.sock_recv(sock, 65536)
        except ConnectionResetError:
            return
        if not data:
            return
        into += data


async def _until(predicate, timeout: float) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.001)


def live_outcome(chunks: list[bytes], eof: bool, expected: Outcome) -> tuple[Outcome, list]:
    """Run the stream over loopback through ``GatewayService.start``.

    Waits for the reference's bytes (and its close, when it closed); a
    connection the reference keeps open is watched a little longer for
    bytes it should not send.  Returns the outcome and whatever reached the
    loop's exception handler.
    """

    async def main() -> tuple[Outcome, list]:
        loop = asyncio.get_running_loop()
        errors: list = []
        loop.set_exception_handler(lambda _loop, context: errors.append(context))
        service = RecordingService()
        server = await service.start("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        sock = socket.socket()
        sock.setblocking(False)
        received = bytearray()
        try:
            await loop.sock_connect(sock, ("127.0.0.1", port))
            reading = asyncio.ensure_future(_receive(loop, sock, received))
            await _send_chunks(loop, sock, chunks, eof)
            if expected.closed:
                await asyncio.wait_for(reading, _TIMEOUT_S)
            else:
                await _until(lambda: len(received) >= len(expected.data) or reading.done(),
                             _TIMEOUT_S)
                await asyncio.sleep(_GRACE_S)
            closed = reading.done()
            reading.cancel()
            await asyncio.gather(reading, return_exceptions=True)
        finally:
            sock.close()
            server.close()
            await asyncio.wait_for(server.wait_closed(), _TIMEOUT_S)
        # The server sees the client's close; let it finish its side.
        for _ in range(5):
            await asyncio.sleep(0)
        return Outcome(service.calls, received, closed), errors

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

_METHODS = ["GET", "get", "Get", "POST", "post", "pOsT", "DELETE", "delete", "Delete"]
_TOKEN = st.text("abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=8)


@st.composite
def valid_frames(draw, ends: bool | None = None) -> bytes:
    """One well-formed request in any of the shapes clients send.

    ``ends`` True draws only requests that end the connection, False only
    requests that keep it open.
    """
    method = draw(st.sampled_from(_METHODS))
    path = draw(
        st.sampled_from(["/v1/access", "/healthz", "/metrics"])
        | _TOKEN.map(lambda sid: "/v1/session/" + sid)
    )
    if draw(st.booleans()):
        path += "?" + draw(_TOKEN) + "=" + draw(_TOKEN)
    version = draw(st.sampled_from(["HTTP/1.1"] * 4 + ["HTTP/1.0"]))
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    body = draw(
        st.one_of(
            st.just(b""),
            st.binary(max_size=24),
            st.just(b'{"session": "a", "item": 1, "viewing_time": 2.5}'),
            st.just(b"\xff\xfe\x80 not utf-8"),
            st.integers(1, 3000).map(lambda depth: b"[" * depth),
        )
    )
    headers = [("Host", "gateway")]
    if body or draw(st.booleans()):
        headers.append(("Content-Length", str(len(body))))
    if ends is None:
        choices = [None] * 4 + ["keep-alive", "KEEP-ALIVE", "close", "Close"]
    elif ends:
        choices = ["close", "Close"] + ([None] if version == "HTTP/1.0" else [])
    else:
        choices = ["keep-alive", "KEEP-ALIVE"] + ([None] if version == "HTTP/1.1" else [])
    connection = draw(st.sampled_from(choices))
    if connection is not None:
        headers.append(("Connection", connection))
    headers += draw(st.lists(st.tuples(_TOKEN.map(lambda t: "X-" + t), _TOKEN), max_size=2))
    headers = draw(st.permutations(headers))
    lines = [f"{method} {path} {version}"] + [
        f"{name}:{draw(st.sampled_from(['', ' ', '  ']))}{value}" for name, value in headers
    ]
    return (eol.join(lines) + eol + eol).encode("latin-1") + body


_GARBAGE = st.one_of(
    st.binary(min_size=1, max_size=24),
    st.sampled_from(
        [
            b"GET /healthz\r\n\r\n",
            b"GET /healthz HTTP/1.1 extra\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nNoColonHere\r\n\r\n",
            b"POST /v1/access HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            b"POST /v1/access HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST /v1/access HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n",
            b"POST /v1/access HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"session\": ",
            b"\r\n",
            b"\xc3\xa9\x85 \xa0/\x1c HTTP/1.1\r\n\r\n",
        ]
    ),
)


@st.composite
def streams(draw) -> tuple[list[bytes], bool]:
    """A byte stream of frames, its chunks and its EOF flag.

    Requests that keep the connection open come first, so most streams
    pipeline several requests; then often a frame that ends the connection
    (a closing request or garbage), then anything, which must not be
    dispatched after it.
    """
    frames = draw(st.lists(valid_frames(ends=False), max_size=4))
    frames.append(draw(st.one_of(valid_frames(ends=True), _GARBAGE, valid_frames())))
    frames += draw(st.lists(st.one_of(valid_frames(), valid_frames(), _GARBAGE), max_size=3))
    data = b"".join(frames)
    cuts = draw(st.lists(st.integers(1, max(1, len(data) - 1)), max_size=5))
    bounds = [0, *sorted(set(cuts)), len(data)]
    chunks = [data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    return chunks, draw(st.booleans())


# ---------------------------------------------------------------------------
# The tests
# ---------------------------------------------------------------------------


class TestDifferentialOverSockets:
    @given(streams())
    def test_same_dispatch_bytes_and_close_as_the_reference(self, stream):
        chunks, eof = stream
        expected = reference_outcome(chunks, eof)
        live, errors = live_outcome(chunks, eof, expected)
        assert live.calls == expected.calls
        assert live.data == expected.data
        assert live.closed == expected.closed
        assert errors == []

    @pytest.mark.parametrize(
        "ender, paths",
        [
            (b"GET /metrics\r\n\r\n", ["/healthz"]),
            (b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n", ["/healthz", "/metrics"]),
        ],
        ids=["bad-frame", "close"],
    )
    def test_nothing_dispatched_after_a_frame_that_ends_the_connection(self, ender, paths):
        # Fixed examples of the contract the property compares against.
        stream = b"GET /healthz HTTP/1.1\r\n\r\n" + ender + b"GET /v1/access HTTP/1.1\r\n\r\n"
        expected = reference_outcome([stream], eof=False)
        assert [call[1] for call in expected.calls] == paths
        assert expected.closed
        live, errors = live_outcome([stream], False, expected)
        assert (live.calls, live.data, live.closed) == (
            expected.calls, expected.data, expected.closed,
        )
        assert errors == []


class FakeTransport:
    """The transport surface the protocol uses, recording each write."""

    def __init__(self) -> None:
        self.writes: list[bytes] = []
        self.closing = False
        self.reading_paused = False

    def write(self, data: bytes) -> None:
        assert not self.closing
        self.writes.append(bytes(data))

    def close(self) -> None:
        self.closing = True

    def is_closing(self) -> bool:
        return self.closing

    def pause_reading(self) -> None:
        self.reading_paused = True

    def resume_reading(self) -> None:
        self.reading_paused = False


def protocol_outcome(chunks: list[bytes], eof: bool, pause=None) -> Outcome:
    """Feed the chunks to one connection's protocol, exactly as cut.

    ``pause`` is ``(a, b)``: ``pause_writing`` before step ``a`` and
    ``resume_writing`` before step ``b``, the steps being the chunks, then
    EOF, then the end.  Checks on the way that each step writes once when
    it dispatches and not at all otherwise, and that nothing is dispatched
    while writing is paused.
    """
    service = RecordingService()
    transport = FakeTransport()
    requests = []
    frame = service_module._HTTPProtocol._frame

    def recording_frame(protocol, buffer, start):
        request = frame(protocol, buffer, start)
        if request is not None:
            requests.append(request[:5])
        return request

    def step(action) -> None:
        calls, writes = len(service.calls), len(transport.writes)
        action()
        dispatched = len(service.calls) - calls
        assert len(transport.writes) - writes == (1 if dispatched else 0)
        if paused:
            assert dispatched == 0 and transport.reading_paused

    paused = False
    with mock.patch.object(service_module._HTTPProtocol, "_frame", recording_frame):
        protocol = service_module._HTTPProtocol(service)
        protocol.connection_made(transport)
        actions = [lambda chunk=chunk: protocol.data_received(chunk) for chunk in chunks]
        if eof:
            actions.append(protocol.eof_received)
        for k in range(len(actions) + 1):
            if pause is not None and k == pause[0]:
                protocol.pause_writing()
                paused = True
            if pause is not None and k == pause[1]:
                paused = False
                step(protocol.resume_writing)
                assert not transport.reading_paused or transport.closing
            if k < len(actions) and not transport.closing:
                step(actions[k])
    return Outcome(service.calls, b"".join(transport.writes), transport.closing, requests)


@st.composite
def pauses(draw, chunks: list[bytes], eof: bool):
    """None, or when to pause and resume writing (see protocol_outcome)."""
    steps = len(chunks) + int(eof)
    if draw(st.booleans()):
        return None
    a = draw(st.integers(0, steps - 1))
    return a, draw(st.integers(a + 1, steps))


class TestDifferentialOnTheProtocol:
    @given(streams(), st.data())
    def test_same_requests_bytes_and_close_one_write_per_read(self, stream, data):
        chunks, eof = stream
        expected = reference_outcome(chunks, eof)
        got = protocol_outcome(chunks, eof, data.draw(pauses(chunks, eof)))
        assert got.requests == expected.requests
        assert got.calls == expected.calls
        assert got.data == expected.data
        assert got.closed == expected.closed

    def test_pause_holds_back_dispatch_until_resume(self):
        stream = b"GET /healthz HTTP/1.1\r\n\r\n" * 3
        expected = reference_outcome([stream], eof=False)
        got = protocol_outcome([stream[:30], stream[30:]], False, pause=(0, 2))
        assert len(got.calls) == 3
        assert (got.calls, got.data, got.closed) == (
            expected.calls, expected.data, expected.closed,
        )


@st.composite
def long_heads(draw) -> tuple[list[bytes], bytes]:
    """Requests, then a head over 64 KiB: one long line or many short ones."""
    before = draw(st.lists(valid_frames(ends=False), max_size=3))
    if draw(st.booleans()):
        head = b"GET /" + b"a" * draw(st.integers(1 << 16, 70_000)) + b" HTTP/1.1\r\n"
    else:
        line = b"X-Pad: " + b"b" * draw(st.integers(0, 60)) + b"\r\n"
        head = b"GET /healthz HTTP/1.1\r\n" + line * ((1 << 16) // len(line) + 1)
    tail = draw(st.sampled_from([b"", b"\r\n", b"\r\nGET /healthz HTTP/1.1\r\n\r\n"]))
    data = b"".join(before) + head + tail
    cuts = draw(st.lists(st.integers(1, len(data) - 1), max_size=4))
    bounds = [0, *sorted(set(cuts)), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a], b"".join(before)


class TestLongHeads:
    """A head over 64 KiB drops the connection once the earlier requests
    are answered (the reference raised ValueError on one long line, and
    set no bound on many short ones)."""

    @settings(max_examples=20)
    @given(long_heads(), st.booleans())
    def test_dropped_after_the_earlier_responses(self, case, eof):
        chunks, before = case
        earlier = reference_outcome([before], eof=False)
        expected = Outcome(earlier.calls, earlier.data, True)
        got = protocol_outcome(chunks, eof)
        assert (got.calls, got.data, got.closed) == (expected.calls, expected.data, True)
        live, errors = live_outcome(chunks, eof, expected)
        assert (live.calls, live.data, live.closed) == (expected.calls, expected.data, True)
        assert errors == []


class _FailingService(RecordingService):
    def handle(self, method: str, path: str, body: bytes) -> tuple[int, str, bytes]:
        if path == "/boom":
            raise RuntimeError("boom")
        return super().handle(method, path, body)


class TestHandlerFault:
    def test_earlier_responses_written_then_dropped_and_reported(self):
        stream = (
            b"GET /healthz HTTP/1.1\r\n\r\nGET /boom HTTP/1.1\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\n\r\n"
        )
        expected = reference_outcome([stream.split(b"GET /boom")[0]], eof=False)

        async def main():
            loop = asyncio.get_running_loop()
            errors: list = []
            loop.set_exception_handler(lambda _loop, context: errors.append(context))
            service = _FailingService()
            server = await service.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(stream)
                data = await asyncio.wait_for(reader.read(), _TIMEOUT_S)
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await asyncio.wait_for(server.wait_closed(), _TIMEOUT_S)
            return service.calls, data, errors

        calls, data, errors = asyncio.run(main())
        assert calls == expected.calls
        assert data == expected.data
        assert [str(context["exception"]) for context in errors] == ["boom"]


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """``(status, body)`` of the next response on a connection."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    length = next(
        int(line.split(b":", 1)[1]) for line in lines[1:]
        if line.lower().startswith(b"content-length:")
    )
    return int(lines[0].split()[1]), await reader.readexactly(length)


class TestPipelinedAdvice:
    def test_pipelined_posts_match_one_at_a_time(self):
        """40 POSTs of 5 sessions in one write advise as if sent one by one."""
        requests = []
        for k in range(40):
            body = json.dumps({
                "session": f"s{k % 5}",
                "item": k % 5 + (0, 7, 0, 9, 0, 7, 0, 11)[k // 5],
                "viewing_time": 1.0 + k % 7,
            }).encode()
            requests.append(
                b"POST /v1/access HTTP/1.1\r\nHost: gateway\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )

        async def exchange(pipelined: bool) -> list[tuple[str, str, float]]:
            service = GatewayService(
                GatewayConfig.uniform(20, session=SessionConfig(cache_capacity=4)),
                clock=lambda: 0.0,
            )
            server = await service.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                if pipelined:
                    writer.write(b"".join(requests))
                    responses = [await _read_response(reader) for _ in requests]
                else:
                    responses = []
                    for request in requests:
                        writer.write(request)
                        responses.append(await _read_response(reader))
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await asyncio.wait_for(server.wait_closed(), _TIMEOUT_S)
            assert [status for status, _ in responses] == [200] * len(requests)
            return [
                (advice["session"], advice["served"], advice["access_time"])
                for advice in (json.loads(body) for _, body in responses)
            ]

        pipelined = asyncio.run(exchange(pipelined=True))
        assert pipelined == asyncio.run(exchange(pipelined=False))
        assert {"warm", "hit", "miss"} <= {served for _, served, _ in pipelined}
