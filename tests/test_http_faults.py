"""Fault injection against the HTTP front door, over real sockets.

Three failure families, each asserted from the *server's* side
effects, not just the client's view:

* **client disconnects** — a peer that vanishes mid-request must
  cancel its Ticket: no leaked admission slot, load gauges back to
  zero, the evaluation (queued or running) stopped cooperatively;
* **slow readers** — one connection that refuses to drain a large
  stream must stall only itself (per-connection backpressure), never
  other connections on the same loop;
* **malformed input** — bad JSON, bad regexes, protocol garbage and
  oversized bodies return *typed* 4xx bodies, and shutdown ordering
  (service closed under a live server) returns clean 503s instead of
  raising into the event loop.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time

import pytest

from repro.core.result import QueryResult, QueryStats
from repro.errors import ServiceClosedError
from tests.http_utils import (
    post_query,
    raw_connection,
    request,
    send_raw_query,
    served,
    stream_pairs,
    ndjson,
    wait_until,
)

pytestmark = pytest.mark.http


class BlockingEngine:
    """Evaluations block until released (or cancelled)."""

    name = "blocking"

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()

    def evaluate(self, query, timeout=None, limit=None, metrics=None,
                 cancel=None, query_id=None):
        self.started.set()
        while not self.release.wait(0.01):
            if cancel is not None and cancel.is_set():
                stats = QueryStats()
                stats.cancelled = True
                return QueryResult(stats=stats)
        return QueryResult(pairs={("a", "b")}, stats=QueryStats())


class SyntheticEngine:
    """Result size keyed on the query text: ``fat`` streams megabytes."""

    name = "synthetic"

    def __init__(self, fat_pairs: int = 400_000):
        self.fat = {
            (f"s{i:06d}", f"o{i:06d}") for i in range(fat_pairs)
        }

    def evaluate(self, query, timeout=None, limit=None, metrics=None,
                 cancel=None, query_id=None):
        pairs = self.fat if "fat" in str(query) else {("a", "b")}
        return QueryResult(pairs=set(pairs), stats=QueryStats())


def _gauges_zero(service, metrics):
    return (
        service.admission.pending == 0
        and service.admission.inflight == 0
        and metrics.gauges.get("serve.queue_depth", 0) == 0
        and metrics.gauges.get("serve.inflight", 0) == 0
    )


class TestClientDisconnect:
    def test_disconnect_cancels_running_query(self, small_index):
        engine = BlockingEngine()
        with served(small_index, engine=engine, workers=1) as (
            service, server, metrics,
        ):
            sock = raw_connection(server)
            send_raw_query(sock, {"query": "(?x, p0, ?y)"})
            assert engine.started.wait(5)
            assert service.admission.inflight == 1
            sock.close()  # the client vanishes mid-evaluation
            # Cooperative cancel stops the engine without release.
            wait_until(lambda: _gauges_zero(service, metrics))
            assert metrics.counters["serve.http.client_disconnects"] == 1
            assert metrics.counters["serve.cancelled"] == 1

    def test_disconnect_cancels_queued_query(self, small_index):
        engine = BlockingEngine()
        with served(small_index, engine=engine, workers=1) as (
            service, server, metrics,
        ):
            # Occupy the only worker, then queue a doomed request.
            _, _, raw = request(
                server, "POST", "/submit", {"query": "(?x, p0, ?y)"}
            )
            assert engine.started.wait(5)
            sock = raw_connection(server)
            send_raw_query(sock, {"query": "(?x, p1, ?y)"})
            wait_until(lambda: service.admission.pending == 2)
            sock.close()
            wait_until(
                lambda: metrics.counters.get(
                    "serve.http.client_disconnects", 0) == 1
            )
            # Unblock the worker: the ghost dequeues already-cancelled
            # and settles without ever reaching the engine.
            engine.release.set()
            wait_until(lambda: _gauges_zero(service, metrics))
            assert metrics.counters["serve.cancelled"] == 1

    def test_open_connection_gauge_returns_to_zero(self, small_index):
        with served(small_index) as (service, server, metrics):
            _, _, records = post_query(server, "(?x, p0, ?y)")
            assert records[-1]["kind"] == "trailer"
            wait_until(
                lambda: metrics.gauges.get(
                    "serve.http.open_connections", 0) == 0
            )


class TestSlowReader:
    def test_slow_reader_does_not_stall_other_connections(
        self, small_index,
    ):
        engine = SyntheticEngine()
        with served(small_index, engine=engine, workers=1) as (
            service, server, _,
        ):
            # A stalled reader: tiny receive buffer, never reads while
            # the server streams a ~10 MB answer at it.
            stalled = socket.socket()
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.settimeout(60)
            stalled.connect((server.host, server.port))
            send_raw_query(
                stalled, {"query": "(?x, fat, ?y)", "page_size": 500}
            )
            time.sleep(0.5)  # let the stream hit the write barrier
            try:
                # Meanwhile other connections must complete promptly.
                t0 = time.monotonic()
                for _ in range(5):
                    status, _, records = post_query(
                        server, "(?x, quick, ?y)", timeout=10
                    )
                    assert status == 200
                    assert stream_pairs(records) == [("a", "b")]
                assert time.monotonic() - t0 < 5.0
                # The stalled stream is intact once actually drained.
                chunks = []
                while True:
                    data = stalled.recv(1 << 16)
                    if not data:
                        break
                    chunks.append(data)
                    if b"0\r\n\r\n" in data[-8:]:
                        break
                payload = b"".join(chunks)
            finally:
                stalled.close()
            body = payload.split(b"\r\n\r\n", 1)[1]
            # De-chunk and reassemble: nothing was lost or reordered.
            lines = []
            at = 0
            while True:
                eol = body.index(b"\r\n", at)
                size = int(body[at:eol], 16)
                if size == 0:
                    break
                lines.append(body[eol + 2:eol + 2 + size])
                at = eol + 2 + size + 2
            records = ndjson(b"".join(lines))
            assert records[-1]["kind"] == "trailer"
            assert len(stream_pairs(records)) == len(engine.fat)


class TestMalformedInput:
    def test_invalid_json_typed_400(self, small_index):
        with served(small_index) as (_, server, _):
            code, _, raw = request(server, "POST", "/query", b"{nope")
            assert code == 400
            assert json.loads(raw)["error"] == "invalid_json"

    def test_regex_syntax_typed_400(self, small_index):
        with served(small_index) as (_, server, _):
            code, _, body = post_query(server, "(?x, ((p0, ?y)")
            assert code == 400
            assert body["error"] == "regex_syntax"
            assert "detail" in body

    def test_bad_request_shapes_typed_400(self, small_index):
        cases = [
            {"query": 7},
            {"query": ""},
            {"nope": "x"},
            [1, 2, 3],
            {"query": "(?x, p0, ?y)", "timeout_ms": -5},
            {"query": "(?x, p0, ?y)", "limit": "many"},
            {"query": "(?x, p0, ?y)", "page_size": 0},
        ]
        with served(small_index) as (_, server, _):
            for payload in cases:
                code, _, raw = request(server, "POST", "/query", payload)
                assert code == 400, payload
                assert json.loads(raw)["error"] == "bad_request", payload

    def test_oversized_body_413(self, small_index):
        # The server rejects on the declared Content-Length and closes
        # without draining the body, so the client may catch EPIPE
        # mid-send; a raw socket lets us keep reading the 413 that was
        # already written either way.
        with served(small_index) as (_, server, _):
            blob = b"x" * (2 * 1024 * 1024)
            sock = raw_connection(server)
            try:
                head = (
                    "POST /query HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(blob)}\r\n\r\n"
                ).encode("latin-1")
                with contextlib.suppress(BrokenPipeError,
                                         ConnectionResetError):
                    sock.sendall(head + blob)
                reply = b""
                with contextlib.suppress(ConnectionResetError):
                    while chunk := sock.recv(4096):
                        reply += chunk
                assert b" 413 " in reply.split(b"\r\n", 1)[0]
            finally:
                sock.close()

    def test_protocol_garbage_400_and_close(self, small_index):
        with served(small_index) as (_, server, _):
            sock = raw_connection(server)
            try:
                sock.sendall(b"GARBAGE\r\n\r\n")
                reply = sock.recv(4096)
                assert b"400" in reply.split(b"\r\n", 1)[0]
                # The server closes after a protocol error.
                assert sock.recv(4096) == b""
            finally:
                sock.close()

    def test_bad_content_length_400(self, small_index):
        with served(small_index) as (_, server, _):
            sock = raw_connection(server)
            try:
                sock.sendall(
                    b"POST /query HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: banana\r\n\r\n"
                )
                reply = sock.recv(4096)
                assert b"400" in reply.split(b"\r\n", 1)[0]
            finally:
                sock.close()


class TestShutdownOrdering:
    def test_submit_after_service_close_maps_to_503(self, small_index):
        with served(small_index) as (service, server, _):
            _, _, records = post_query(server, "(?x, p0, ?y)")
            assert records[-1]["kind"] == "trailer"
            service.close()
            # The socket stays up while the service drains: late
            # submissions get typed 503s, not an event-loop crash.
            for path in ("/query", "/submit"):
                code, _, raw = request(
                    server, "POST", path, {"query": "(?x, p0, ?y)"}
                )
                assert code == 503, path
                assert json.loads(raw)["error"] == "service_closed"
            code, _, raw = request(server, "GET", "/healthz")
            assert code == 503
            assert json.loads(raw)["status"] == "closed"

    def test_service_close_error_is_typed_runtimeerror(self, small_index):
        from repro.serve import QueryService

        service = QueryService(small_index, workers=1)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit("(?x, p0, ?y)")
        # Back-compat: it is still a RuntimeError for older callers.
        with pytest.raises(RuntimeError):
            service.submit("(?x, p0, ?y)")
