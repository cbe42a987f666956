"""Load generator and output check for the ``gateway-open`` workload.

The gateway runs in its own process (``gateway_server.py``); this module is
the other process.  It drives two keep-alive connections through two
phases:

* **open loop** — a fixed schedule of ``OPEN_RATE`` requests per second,
  alternating between the connections, sent whether or not earlier replies
  have arrived (HTTP/1.1 pipelining).  Each request is timed from its *due*
  time, so a stall is charged to every request queued behind it, and the
  generator's own lateness is recorded;
* **closed loop** — ``WINDOW`` requests outstanding per connection; the
  decisions per second it sustains is the saturation throughput.

The phases alternate in ``ROUNDS`` rounds, so a run yields several
latency chunks and throughput samples, spread over time.  Before them, the
gateway process times the calibration kernel (``calibrate.py``).

Sessions have finite lives: each makes ``SESSION_REPORTS`` reports, then the
generator sends ``DELETE /v1/session/<id>`` and a fresh session takes its
slot.  A session is owned by one connection, so its reports arrive in a
fixed order and its hit/wait/miss sequence is deterministic; the shared tier
annotations depend on how the connections interleave and are not checked.
Both phases send a fixed number of requests, so every per-session counter
repeats exactly between runs.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: Requests per second of the open-loop phase, well below saturation.
OPEN_RATE = 600.0
OPEN_SESSIONS = 60
CLOSED_SESSIONS = 150
ROUNDS = 4
SESSION_REPORTS = 40
#: Sessions interleaved on one connection at a time.
ACTIVE = 8
#: Outstanding requests per connection in the closed-loop phase.
WINDOW = 8
CONNECTIONS = 2
#: Generator lateness (p99, ms) beyond which a run is marked failed.
LATE_LIMIT_MS = 20.0
#: A socket read or write that blocks this long fails the repetition.
IO_TIMEOUT_S = 30.0


def _request(method: str, path: str, payload: dict | None = None) -> bytes:
    body = json.dumps(payload).encode() if payload is not None else b""
    head = f"{method} {path} HTTP/1.1\r\nHost: gateway\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


def _connection_ops(streams: dict[str, list]) -> list[tuple[str, int | None, bytes]]:
    """One connection's request sequence: ``(session, report index, bytes)``.

    ``ACTIVE`` sessions take turns, one report each; a finished session is
    deleted (index ``None``) and the next waiting session takes its turn.
    """
    waiting = list(streams)
    active = [[sid, 0] for sid in waiting[:ACTIVE]]
    waiting = waiting[ACTIVE:]
    ops = []
    while active:
        for slot in list(active):
            sid, k = slot
            stream = streams[sid]
            item, viewing = stream[k]
            ops.append((sid, k, _request(
                "POST", "/v1/access", {"session": sid, "item": item, "viewing_time": viewing}
            )))
            slot[1] = k + 1
            if k + 1 == len(stream):
                ops.append((sid, None, _request("DELETE", f"/v1/session/{sid}")))
                if waiting:
                    slot[:] = [waiting.pop(0), 0]
                else:
                    active.remove(slot)
    return ops


def _split(streams: dict[str, list]) -> list[dict[str, list]]:
    """Sessions dealt round-robin to the connections that will own them."""
    sids = list(streams)
    return [{sid: streams[sid] for sid in sids[c::CONNECTIONS]} for c in range(CONNECTIONS)]


def build_inputs(seed: int) -> dict:
    """Per-session report streams (warm start first), from the seed only."""
    from repro.workload.population import zipf_mixture_population

    from workloads import CATALOG

    population = zipf_mixture_population(
        OPEN_SESSIONS + CLOSED_SESSIONS, CATALOG, SESSION_REPORTS - 1,
        overlap=0.5, seed=seed,
    )
    streams = {}
    for client in population.clients:
        events = [(int(client.initial_item), float(client.initial_viewing_time))]
        events += zip(client.trace.items.tolist(), client.trace.viewing_times.tolist())
        phase = "open" if client.client_id < OPEN_SESSIONS else "closed"
        streams[f"{phase}-{seed}-{client.client_id}"] = events
    opened = {s: v for s, v in streams.items() if s.startswith("open")}
    closed = {s: v for s, v in streams.items() if s.startswith("closed")}
    return {
        "streams": streams,
        "open": _by_round([_connection_ops(part) for part in _split(opened)]),
        "closed": _by_round([_connection_ops(part) for part in _split(closed)]),
    }


def _by_round(per_connection: list[list]) -> list[list[list]]:
    """``[round][connection]`` slices: each connection's sequence cut into
    ``ROUNDS`` contiguous parts, so per-session order is kept."""
    return [
        [ops[r * len(ops) // ROUNDS:(r + 1) * len(ops) // ROUNDS] for ops in per_connection]
        for r in range(ROUNDS)
    ]


# ---------------------------------------------------------------------------
# HTTP over blocking sockets
# ---------------------------------------------------------------------------
#
# Threads with blocking sockets rather than asyncio: ``time.sleep`` wakes
# within tens of microseconds of a due time, where the asyncio selector
# rounds every timeout up to a whole millisecond — as large as the latency
# being measured.

class _Connection:
    """One keep-alive HTTP/1.1 connection to the gateway."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def response(self) -> tuple[int, bytes]:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("gateway closed the connection")
        status = int(line.split(None, 2)[1])
        length = 0
        while True:
            header = self.reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, (self.reader.read(length) if length else b"")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _get(port: int, path: str) -> tuple[int, bytes]:
    conn = _Connection(port)
    try:
        conn.send(f"GET {path} HTTP/1.1\r\nHost: gateway\r\nConnection: close\r\n\r\n".encode())
        return conn.response()
    finally:
        conn.close()


def _wait_healthy(port: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            if _get(port, "/healthz")[0] == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise TimeoutError("gateway never answered /healthz")
        time.sleep(0.01)


def _in_parallel(*jobs) -> None:
    """Run the callables on their own threads; re-raise the first error."""
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        for future in [pool.submit(job) for job in jobs]:
            future.result()


class _Phase:
    """Per-request timestamps and replies of one connection in one phase."""

    def __init__(self, ops) -> None:
        n = len(ops)
        self.ops = ops
        self.due = np.zeros(n)
        self.sent = np.zeros(n)
        self.received = np.zeros(n)
        self.status = np.zeros(n, dtype=np.int64)
        self.bodies: list[bytes] = [b""] * n

    def receive_all(self, conn: _Connection) -> None:
        for j in range(len(self.ops)):
            self.status[j], self.bodies[j] = conn.response()
            self.received[j] = time.perf_counter()

    def send_on_schedule(self, conn: _Connection) -> None:
        clock = time.perf_counter
        for j, (_, _, data) in enumerate(self.ops):
            delay = self.due[j] - clock()
            if delay > 0:
                time.sleep(delay)
            self.sent[j] = clock()
            conn.send(data)

    def closed_loop(self, conn: _Connection) -> None:
        """Keep ``WINDOW`` requests outstanding until the sequence is done."""
        clock = time.perf_counter
        n = len(self.ops)
        sent = 0
        for j in range(n):
            while sent < n and sent - j < WINDOW:
                self.sent[sent] = self.due[sent] = clock()
                conn.send(self.ops[sent][2])
                sent += 1
            self.status[j], self.bodies[j] = conn.response()
            self.received[j] = clock()


def _drive(port: int, inputs: dict, server: subprocess.Popen) -> dict:
    _wait_healthy(port)
    ready = time.monotonic()
    server.send_signal(signal.SIGUSR1)
    kernel_s = _server_line(server)["kernel_s"]
    conns = [_Connection(port) for _ in range(CONNECTIONS)]
    opened, closed, closed_s = [], [], []
    try:
        for open_ops, closed_ops in zip(inputs["open"], inputs["closed"]):
            phases = [_Phase(ops) for ops in open_ops]
            start = time.perf_counter() + 0.05
            for c, phase in enumerate(phases):
                n = len(phase.ops)
                phase.due[:] = start + (np.arange(n) * CONNECTIONS + c) / OPEN_RATE
            _in_parallel(*(
                job
                for conn, phase in zip(conns, phases)
                for job in (partial(phase.send_on_schedule, conn), partial(phase.receive_all, conn))
            ))
            opened.append(phases)
            phases = [_Phase(ops) for ops in closed_ops]
            t0 = time.perf_counter()
            _in_parallel(*(partial(p.closed_loop, conn) for conn, p in zip(conns, phases)))
            closed_s.append(time.perf_counter() - t0)
            closed.append(phases)
    finally:
        for conn in conns:
            conn.close()
    created = 0
    for line in _get(port, "/metrics")[1].decode().splitlines():
        if line.startswith("gateway_sessions_created_total "):
            created = int(line.split()[1])
    return {
        "ready": ready, "kernel_s": kernel_s, "open": opened, "closed": closed,
        "closed_s": closed_s, "created": created,
    }


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------

def _start_server(trace: bool) -> tuple[subprocess.Popen, int]:
    server = subprocess.Popen(
        [sys.executable, str(HERE / "gateway_server.py"), "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True,
    )
    line = server.stdout.readline()
    if "listening on http://" not in line:
        server.kill()
        server.wait()
        raise RuntimeError(f"gateway did not start: {line!r}")
    return server, int(line.rsplit(":", 1)[1].strip().rstrip("/"))


def _server_line(server: subprocess.Popen) -> dict:
    """The gateway's next JSON report line (its banner lines are skipped)."""
    for line in server.stdout:
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError(f"gateway exited {server.wait()} without a report")


def _stop_server(server: subprocess.Popen) -> dict:
    server.send_signal(signal.SIGTERM)
    try:
        report = _server_line(server)
        server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    if server.returncode != 0:
        raise RuntimeError(f"gateway exited {server.returncode}")
    return report


def _replay_check(inputs: dict, phases: list[_Phase]) -> tuple[int, list[str], dict]:
    """Compare every session's HTTP serve sequence with an in-process replay.

    Returns failed requests, messages, and the open-loop serve accounting.
    """
    from repro.gateway.service import GatewayService

    from workloads import gateway_config

    http: dict[str, list] = {}
    failed, messages = 0, []
    for phase in phases:
        for (sid, k, _), status, body in zip(phase.ops, phase.status, phase.bodies):
            if status != 200:
                failed += 1
                messages.append(f"{sid}: HTTP {status} {body[:80]!r}")
            elif k is not None:
                advice = json.loads(body)
                http.setdefault(sid, []).append((advice["served"], advice["access_time"]))
    service = GatewayService(gateway_config())
    stats = {"hits": 0, "scored": 0, "access_time": 0.0, "scheduled": 0, "used": 0}
    for sid, stream in inputs["streams"].items():
        replay = [
            service.report_access({"session": sid, "item": item, "viewing_time": viewing})
            for item, viewing in stream
        ]
        expected = [(r["served"], r["access_time"]) for r in replay]
        if http.get(sid) != expected:
            failed += len(stream)
            messages.append(f"{sid}: HTTP serve sequence differs from the in-process replay")
        if sid.startswith("open"):
            scored = [r for r in replay if r["served"] != "warm"]
            stats["hits"] += sum(r["served"] == "hit" for r in scored)
            stats["scored"] += len(scored)
            stats["access_time"] += sum(r["access_time"] for r in scored)
        session = service.store.get(sid)
        stats["scheduled"] += session.stats.prefetches_scheduled
        stats["used"] += session.stats.prefetches_used
    return failed, messages, stats


def _posts(phase: _Phase) -> np.ndarray:
    """Mask of the phase's ``POST /v1/access`` requests (not the deletes)."""
    return np.array([k is not None for _, k, _ in phase.ops], dtype=bool)


def _decision_seconds(phase: _Phase) -> np.ndarray:
    return np.array([
        json.loads(body)["decision_seconds"] if status == 200 else np.nan
        for (_, k, _), status, body in zip(phase.ops, phase.status, phase.bodies)
        if k is not None
    ])


def run_rep(seed: int, trace: bool, t0: float) -> dict:
    """One gateway repetition: start, open loop, closed loop, stop, check."""
    started = time.perf_counter()
    inputs = build_inputs(seed)
    build_s = time.perf_counter() - started
    server, port = _start_server(trace)
    try:
        driven = _drive(port, inputs, server)
    finally:
        report = _stop_server(server) if server.poll() is None else {}
    setup_s = driven["ready"] - t0
    opened = [p for phases in driven["open"] for p in phases]
    closed = [p for phases in driven["closed"] for p in phases]
    failed, messages, served = _replay_check(inputs, opened + closed)

    decisions = [
        (np.concatenate([(p.received - p.due)[_posts(p)] for p in phases]) * 1e3).tolist()
        for phases in driven["open"]
    ]
    saturation = [
        {"requests": int(sum(_posts(p).sum() for p in phases)), "run_s": run_s}
        for phases, run_s in zip(driven["closed"], driven["closed_s"])
    ]
    late_ms = np.concatenate([p.sent - p.due for p in opened]) * 1e3
    decision_s = np.concatenate([_decision_seconds(p) for p in opened])
    overhead_ms = (
        np.concatenate([(p.received - p.sent)[_posts(p)] for p in opened]) - decision_s
    ) * 1e3
    sent = sum(len(p.ops) for p in opened + closed)
    late_p99 = float(np.percentile(late_ms, 99))
    return {
        "setup_s": setup_s,
        "kernel_s": driven["kernel_s"],
        "build_s": build_s,
        "phases": saturation,
        "attempted": sent,
        "failed": failed,
        "fell_behind": late_p99 > LATE_LIMIT_MS,
        "messages": messages,
        "decisions": decisions,
        "peak_rss_mb": report.get("peak_rss_mb", 0.0),
        "outcome": {
            "hit_rate": served["hits"] / served["scored"],
            "mean_access_time": served["access_time"] / served["scored"],
            "sessions_created": driven["created"],
        },
        "facts": {
            "prefetches_scheduled": served["scheduled"],
            "prefetches_used": served["used"],
            "server_decision_p50_ms": float(np.nanmedian(decision_s)) * 1e3,
            "http_overhead_p50_ms": float(np.nanmedian(overhead_ms)),
            "loadgen_sent": sent,
            "loadgen_late_p99_ms": late_p99,
            "store_created": driven["created"],
        },
        "server": report,
    }
