"""The async HTTP front door: a stdlib asyncio HTTP/1.1 JSON API.

Until now :class:`~repro.serve.service.QueryService` was in-process
only — the CLI REPL was its sole client, and the admission
controller's fast-reject path had never been exercised from outside
the process.  This module puts a real network tier in front of the
Ticket API, stdlib-only and built on :mod:`asyncio` streams, because a
front door must keep thousands of mostly-idle connections cheap and
must stream large answers with per-connection backpressure:

* ``POST /query`` — submit one RPQ and stream its answer back as
  chunked **NDJSON pages** (header record, bounded page records,
  trailer record carrying the budget tags), so a 10⁶-pair answer
  never materialises in one response buffer;
* ``POST /submit`` / ``GET /status/{id}`` / ``GET /result/{id}`` —
  the asynchronous shape of the same API: submit returns ``202`` with
  the ``query_id`` immediately, status polls, result streams pages
  with **cursor resume** (``?cursor=N&page_size=K``), so a client can
  re-fetch any suffix of a settled answer without re-running it;
* ``POST /cancel/{id}`` (also ``DELETE /query/{id}``) — cooperative
  cancellation mapped onto :meth:`Ticket.cancel`;
* ``GET /healthz``, ``/metrics``, ``/debug/vars``, ``/debug/flight``
  and ``/debug/space`` — the service's health, its Prometheus
  exposition, a JSON snapshot of its registry, the flight-recorder
  ring and the space audit, on the socket the queries use.  Each page
  is read when it is asked for (:mod:`repro.obs.export`), so one port
  and one shutdown path cover queries and telemetry alike.

Contract highlights (the parts a client must know):

* ``timeout_ms`` in the request body becomes an **absolute deadline**
  covering queueing (the service's degradation contract): an expired
  query settles as a partial tagged ``timed_out`` + ``truncated`` in
  the trailer, never as an error;
* admission-control rejections surface as **429** with a
  ``Retry-After`` header (integer seconds, RFC-shaped) plus the exact
  suggested backoff in the JSON body — the fast-reject path, finally
  observable end-to-end from outside the process;
* a client that disconnects mid-request **cancels its query**: the
  ticket settles, the admission slot is released, and the load gauges
  return to zero (``tests/test_http_faults.py`` pins this);
* after :meth:`QueryService.close` every late submission maps to a
  clean **503** (:class:`~repro.errors.ServiceClosedError`) instead
  of raising into the event loop;
* every query-bearing response echoes the audit plane:
  ``X-Query-Id`` and ``X-Query-Stages`` (the lifecycle stage
  decomposition, ``stage=seconds`` pairs) ride the response headers.

See ``docs/http.md`` for endpoint-by-endpoint documentation with curl
examples, and :mod:`repro.bench.loadgen` for the open-loop generator
that drives this tier into overload on purpose.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import threading
import time
from collections import OrderedDict
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import (
    OverloadedError,
    RegexSyntaxError,
    ReproError,
    ServiceClosedError,
    UnknownSymbolError,
)
from repro.obs.export import PROMETHEUS_CONTENT_TYPE, debug_vars, scrape_metrics
from repro.obs.space import space_report

#: Content type of the streamed page framing.
NDJSON_CONTENT_TYPE = "application/x-ndjson"
#: Content type of the plain JSON bodies.
JSON_CONTENT_TYPE = "application/json"

#: Default / maximum number of pairs per NDJSON page record.  The
#: bound is the whole point: the largest single write the server ever
#: performs is one page, regardless of answer size.
DEFAULT_PAGE_SIZE = 1_000
MAX_PAGE_SIZE = 10_000

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 1024 * 1024
# How much of an over-limit body the 413 path will drain before closing
# (keeps the rejection a clean FIN instead of an RST, without letting a
# hostile Content-Length hold the connection forever).
_MAX_DRAIN_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 411: "Length Required",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

#: The telemetry pages: path → renderer over the live service.
_TELEMETRY = {
    "/metrics": scrape_metrics,
    "/debug/vars": debug_vars,
    "/debug/space": space_report,
}


# ----------------------------------------------------------------------
# Page framing (pure, shared with the hypothesis property tests)
# ----------------------------------------------------------------------


def clamp_page_size(page_size: "int | None") -> int:
    """Resolve a requested page size against the default and the cap."""
    if page_size is None:
        return DEFAULT_PAGE_SIZE
    if page_size < 1:
        raise ValueError("page_size must be >= 1")
    return min(page_size, MAX_PAGE_SIZE)


def iter_pages(pairs: list, cursor: int, page_size: int):
    """Yield ``(cursor, page, next_cursor)`` over a sorted pair list.

    ``cursor`` is a plain offset into the sorted list — the resume
    token a client sends back to continue a partially-read answer.
    ``next_cursor`` is ``None`` on the final page.  An empty answer
    (or a cursor at/past the end) yields nothing; the trailer record
    still closes the stream, so a client can distinguish "no more
    pages" from a truncated connection.
    """
    n = len(pairs)
    at = max(0, cursor)
    while at < n:
        page = pairs[at:at + page_size]
        nxt = at + len(page)
        yield at, page, (nxt if nxt < n else None)
        at = nxt


def frame_records(query_id: str, query: str, pairs: list, stats_dict: dict,
                  cursor: int = 0,
                  page_size: int = DEFAULT_PAGE_SIZE) -> list[dict]:
    """The full NDJSON framing of one settled answer, as dicts.

    Exactly what the streaming endpoints emit, materialised — the
    conformance and hypothesis suites reassemble pages from this
    framing and from the socket and assert both match the oracle.
    """
    records: list[dict] = [{
        "kind": "header",
        "query_id": query_id,
        "query": query,
        "n_results": len(pairs),
        "cursor": cursor,
        "page_size": page_size,
    }]
    pages = 0
    for at, page, nxt in iter_pages(pairs, cursor, page_size):
        pages += 1
        records.append({
            "kind": "page",
            "cursor": at,
            "count": len(page),
            "pairs": [list(pair) for pair in page],
            "next_cursor": nxt,
        })
    records.append({
        "kind": "trailer",
        "query_id": query_id,
        "n_results": len(pairs),
        "pages": pages,
        "stats": stats_dict,
    })
    return records


def reassemble_pages(records: list[dict]) -> list:
    """Inverse of :func:`frame_records`: pages back to the pair list.

    Validates the framing invariants while reassembling: contiguous
    cursors, per-page counts, a trailing ``next_cursor`` of ``None``,
    and a trailer whose ``n_results`` matches what the pages carried
    (relative to the header's starting cursor).
    """
    header = records[0]
    trailer = records[-1]
    assert header["kind"] == "header", header
    assert trailer["kind"] == "trailer", trailer
    pairs: list = []
    expected_cursor = header["cursor"]
    last_next = None
    for record in records[1:-1]:
        assert record["kind"] == "page", record
        assert record["cursor"] == expected_cursor, (
            record["cursor"], expected_cursor,
        )
        assert record["count"] == len(record["pairs"]), record
        pairs.extend(tuple(pair) for pair in record["pairs"])
        expected_cursor += record["count"]
        last_next = record["next_cursor"]
    assert last_next is None, last_next
    assert trailer["pages"] == len(records) - 2, trailer
    assert trailer["n_results"] == header["n_results"], trailer
    assert len(pairs) == max(
        0, trailer["n_results"] - max(0, header["cursor"])
    ), (len(pairs), trailer["n_results"], header["cursor"])
    return pairs


def _stats_dict(stats) -> dict:
    """The budget/outcome view of one ``QueryStats`` for the trailer."""
    out = {
        "elapsed_seconds": stats.elapsed,
        "timed_out": stats.timed_out,
        "truncated": stats.truncated,
        "cancelled": stats.cancelled,
        "cached": stats.cached,
    }
    if stats.backend:
        out["backend"] = stats.backend
    return out


def _stages_header(lifecycle) -> str:
    """``X-Query-Stages``: the lifecycle decomposition as one header."""
    return ";".join(
        f"{name}={seconds:.6f}"
        for name, seconds in lifecycle.stage_durations().items()
    )


# ----------------------------------------------------------------------
# Connection plumbing
# ----------------------------------------------------------------------


class _ProtocolError(Exception):
    """The peer sent something that is not acceptable HTTP/1.1."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status
        self.detail = detail


class _Conn:
    """One client connection: buffered request reads + chunked writes.

    The pushback buffer exists because the disconnect watcher
    (:meth:`watch_eof`) must read one byte to learn the socket died;
    when that byte turns out to be the start of the next keep-alive
    request instead, it is pushed back and the request parser consumes
    it first.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.pushback = b""

    # -- reading -------------------------------------------------------

    async def _read_until(self, sep: bytes,
                          max_bytes: int) -> "bytes | None":
        buf = self.pushback
        self.pushback = b""
        while sep not in buf:
            if len(buf) > max_bytes:
                raise _ProtocolError(431, "header block too large")
            chunk = await self.reader.read(8192)
            if not chunk:
                if buf:
                    raise _ProtocolError(400, "truncated request")
                return None
            buf += chunk
        head, rest = buf.split(sep, 1)
        self.pushback = rest
        return head

    async def _read_exactly(self, n: int) -> bytes:
        take = self.pushback[:n]
        self.pushback = self.pushback[n:]
        missing = n - len(take)
        if missing:
            take += await self.reader.readexactly(missing)
        return take

    async def read_request(self) -> "dict | None":
        """Parse one request; ``None`` on a clean EOF between requests."""
        head = await self._read_until(b"\r\n\r\n", _MAX_HEADER_BYTES)
        if head is None:
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _ProtocolError(400, f"malformed request line {lines[0]!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding", "").lower() == "chunked":
            raise _ProtocolError(411, "chunked request bodies unsupported")
        length = headers.get("content-length", "0")
        try:
            n = int(length)
        except ValueError:
            raise _ProtocolError(400, f"bad Content-Length {length!r}")
        if n < 0 or n > _MAX_BODY_BYTES:
            # Drain (bounded) what the client is still sending before
            # rejecting: closing with unread bytes in the receive buffer
            # makes the kernel RST the connection, which can destroy the
            # 413 response sitting in the client's receive queue.
            await self._discard(min(n, _MAX_DRAIN_BYTES))
            raise _ProtocolError(413, "request body too large")
        body = await self._read_exactly(n) if n else b""
        split = urlsplit(target)
        return {
            "method": method.upper(),
            "path": unquote(split.path) or "/",
            "params": parse_qs(split.query),
            "headers": headers,
            "body": body,
        }

    async def _discard(self, n: int) -> None:
        """Best-effort read-and-drop of ``n`` pending body bytes."""
        buffered = min(n, len(self.pushback))
        self.pushback = self.pushback[buffered:]
        remaining = n - buffered
        while remaining > 0:
            chunk = await self.reader.read(min(remaining, 65536))
            if not chunk:
                return
            remaining -= len(chunk)

    async def watch_eof(self) -> bool:
        """Block until the peer disconnects (True) or sends data (False)."""
        if self.pushback:
            return False
        data = await self.reader.read(1)
        if data:
            self.pushback += data
            return False
        return True

    # -- writing -------------------------------------------------------

    def _head(self, status: int, headers: dict[str, str]) -> bytes:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def send_response(self, status: int, body: bytes,
                            content_type: str = JSON_CONTENT_TYPE,
                            extra: "dict[str, str] | None" = None,
                            keep_alive: bool = True) -> None:
        headers = {
            "Content-Type": content_type,
            "Content-Length": str(len(body)),
            "Connection": "keep-alive" if keep_alive else "close",
        }
        if extra:
            headers.update(extra)
        self.writer.write(self._head(status, headers) + body)
        await self.writer.drain()

    async def start_chunked(self, status: int, content_type: str,
                            extra: "dict[str, str] | None" = None,
                            keep_alive: bool = True) -> None:
        headers = {
            "Content-Type": content_type,
            "Transfer-Encoding": "chunked",
            "Connection": "keep-alive" if keep_alive else "close",
        }
        if extra:
            headers.update(extra)
        self.writer.write(self._head(status, headers))
        await self.writer.drain()

    async def send_chunk(self, data: bytes) -> None:
        """One chunk; ``drain()`` applies per-connection backpressure —
        a slow reader stalls only its own task, never the loop."""
        self.writer.write(b"%x\r\n" % len(data) + data + b"\r\n")
        await self.writer.drain()

    async def end_chunked(self) -> None:
        self.writer.write(b"0\r\n\r\n")
        await self.writer.drain()


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------


class HTTPQueryServer:
    """Asyncio HTTP/1.1 front door over one :class:`QueryService`.

    Works over either serving tier — the thread pool or the
    shared-memory process pool — because it speaks only the Ticket
    API.  The event loop runs on one daemon thread; every connection
    is one asyncio task, so slow readers and long streams cost a task,
    not a thread.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.service.QueryService` (or
        :class:`~repro.serve.pool.ProcessQueryService`) to front.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read the
        chosen one back from :attr:`port`).
    default_page_size / max_page_size:
        NDJSON page bounds; requests clamp to the max.
    retention:
        How many settled tickets stay addressable for ``/status`` /
        ``/result`` cursor resume after settlement.  Bounded LRU:
        oldest settled tickets fall out first.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        default_page_size: int = DEFAULT_PAGE_SIZE,
        max_page_size: int = MAX_PAGE_SIZE,
        retention: int = 256,
    ):
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self.service = service
        self._host = host
        self._port = port
        self.default_page_size = default_page_size
        self.max_page_size = max_page_size
        self.retention = retention
        self.started_at = time.monotonic()
        self.requests = 0
        self._tickets: "OrderedDict[str, object]" = OrderedDict()
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._shutdown: "asyncio.Event | None" = None
        self._conn_tasks: set = set()
        self._bound: "tuple[str, int] | None" = None
        self._started = threading.Event()
        self._startup_error: "BaseException | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._bound[0] if self._bound else self._host

    @property
    def port(self) -> int:
        """The actual bound port (resolves ``port=0`` ephemerals)."""
        return self._bound[1] if self._bound else self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HTTPQueryServer":
        """Bind and serve on a daemon thread (idempotent); raises the
        bind error synchronously when the port is unavailable."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-http-front-door",
            daemon=True,
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            self._thread = None
            self._startup_error = None
            raise error
        return self

    def stop(self) -> None:
        """Stop accepting, cancel open connections, join the thread."""
        thread = self._thread
        if thread is None:
            return
        loop = self._loop
        if loop is not None and not loop.is_closed():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self._shutdown.set)
        thread.join()
        self._thread = None
        self._loop = None
        self._gauge("serve.http.open_connections", 0)

    def __enter__(self) -> "HTTPQueryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def stats(self) -> dict:
        """Front-door statistics snapshot."""
        return {
            "url": self.url if self._bound else None,
            "requests": self.requests,
            "retained_tickets": len(self._tickets),
            "retention": self.retention,
            "uptime_seconds": time.monotonic() - self.started_at,
        }

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        self._shutdown = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._on_connection, self._host, self._port
            )
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._bound = server.sockets[0].getsockname()[:2]
        self._started.set()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *self._conn_tasks, return_exceptions=True
                )

    # ------------------------------------------------------------------
    # Telemetry helpers (the registry is guarded by the service's lock)
    # ------------------------------------------------------------------

    def _inc(self, name: str, n: int = 1) -> None:
        obs = self.service.metrics
        if obs.enabled:
            with self.service.obs_lock:
                obs.inc(name, n)

    def _gauge(self, name: str, value: float) -> None:
        obs = self.service.metrics
        if obs.enabled:
            with self.service.obs_lock:
                obs.set_gauge(name, value)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._gauge("serve.http.open_connections", len(self._conn_tasks))
        conn = _Conn(reader, writer)
        try:
            while True:
                try:
                    request = await conn.read_request()
                except _ProtocolError as err:
                    with contextlib.suppress(ConnectionError):
                        await conn.send_response(
                            err.status,
                            _json_body({"error": "protocol",
                                        "detail": err.detail}),
                            keep_alive=False,
                        )
                    break
                if request is None:
                    break
                self.requests += 1
                self._inc("serve.http.requests")
                keep_alive = (
                    request["headers"].get("connection", "").lower()
                    != "close"
                )
                proceed = await self._dispatch(conn, request, keep_alive)
                if not (proceed and keep_alive):
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            self._gauge("serve.http.open_connections",
                        len(self._conn_tasks))
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, conn: _Conn, request: dict,
                        keep_alive: bool) -> bool:
        """Route one request; returns False when the connection must
        close (client vanished mid-stream)."""
        method, path = request["method"], request["path"]
        try:
            if path == "/query" and method == "POST":
                return await self._handle_query(conn, request, keep_alive)
            if path == "/submit" and method == "POST":
                await self._handle_submit(conn, request, keep_alive)
                return True
            if path.startswith("/status/") and method == "GET":
                await self._handle_status(conn, path[len("/status/"):],
                                          keep_alive)
                return True
            if path.startswith("/result/") and method == "GET":
                return await self._handle_result(
                    conn, path[len("/result/"):], request, keep_alive
                )
            if path.startswith("/cancel/") and method == "POST":
                await self._handle_cancel(conn, path[len("/cancel/"):],
                                          keep_alive)
                return True
            if path.startswith("/query/") and method == "DELETE":
                await self._handle_cancel(conn, path[len("/query/"):],
                                          keep_alive)
                return True
            if path in _TELEMETRY and method == "GET":
                await self._handle_telemetry(conn, path, keep_alive)
                return True
            if path == "/healthz" and method == "GET":
                await self._handle_healthz(conn, keep_alive)
                return True
            if path == "/debug/flight" and method == "GET":
                await self._handle_flight(conn, keep_alive)
                return True
            if path == "/" and method == "GET":
                await conn.send_response(
                    200, _INDEX_BODY, content_type="text/plain; charset=utf-8",
                    keep_alive=keep_alive,
                )
                return True
            known = {"/query", "/submit", "/healthz", "/debug/flight",
                     *_TELEMETRY}
            status = 405 if path in known else 404
            await self._send_error(
                conn, status,
                {"error": "method_not_allowed" if status == 405
                 else "not_found", "detail": f"{method} {path}"},
                keep_alive,
            )
            return True
        except ConnectionError:
            self._inc("serve.http.client_disconnects")
            return False

    # ------------------------------------------------------------------
    # Request helpers
    # ------------------------------------------------------------------

    async def _send_error(self, conn: _Conn, status: int, body: dict,
                          keep_alive: bool,
                          extra: "dict[str, str] | None" = None) -> None:
        if status == 429:
            self._inc("serve.http.rejected")
        elif status == 400:
            self._inc("serve.http.bad_requests")
        elif status >= 500:
            self._inc("serve.http.errors")
        await conn.send_response(
            status, _json_body(body), extra=extra, keep_alive=keep_alive
        )

    def _parse_submit_body(self, request: dict) -> dict:
        try:
            body = json.loads(request["body"].decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise _BadRequest("invalid_json", str(err))
        if not isinstance(body, dict):
            raise _BadRequest("bad_request", "body must be a JSON object")
        query = body.get("query")
        if not isinstance(query, str) or not query.strip():
            raise _BadRequest(
                "bad_request", "'query' must be a non-empty string"
            )
        out = {"query": query}
        timeout_ms = body.get("timeout_ms")
        if timeout_ms is not None:
            if not isinstance(timeout_ms, (int, float)) \
                    or isinstance(timeout_ms, bool) or timeout_ms < 0:
                raise _BadRequest(
                    "bad_request", "'timeout_ms' must be a number >= 0"
                )
            out["deadline"] = time.monotonic() + timeout_ms / 1000.0
        limit = body.get("limit")
        if limit is not None:
            if not isinstance(limit, int) or isinstance(limit, bool) \
                    or limit < 0:
                raise _BadRequest(
                    "bad_request", "'limit' must be an integer >= 0"
                )
            out["limit"] = limit
        page_size = body.get("page_size")
        if page_size is not None:
            if not isinstance(page_size, int) \
                    or isinstance(page_size, bool) or page_size < 1:
                raise _BadRequest(
                    "bad_request", "'page_size' must be an integer >= 1"
                )
            out["page_size"] = min(page_size, self.max_page_size)
        return out

    def _submit(self, parsed: dict):
        """Map one parsed body onto ``service.submit``; typed errors
        travel as :class:`_HTTPFailure` to the dispatcher."""
        kwargs = {}
        if "deadline" in parsed:
            kwargs["deadline"] = parsed["deadline"]
        if "limit" in parsed:
            kwargs["limit"] = parsed["limit"]
        try:
            ticket = self.service.submit(parsed["query"], **kwargs)
        except OverloadedError as err:
            raise _HTTPFailure(
                429,
                {
                    "error": "overloaded",
                    "reason": err.reason,
                    "pending": err.pending,
                    "capacity": err.capacity,
                    "retry_after": err.retry_after,
                },
                extra={
                    "Retry-After": str(max(1, math.ceil(err.retry_after))),
                    "X-Retry-After-Seconds": f"{err.retry_after:.3f}",
                },
            )
        except ServiceClosedError as err:
            raise _HTTPFailure(
                503, {"error": "service_closed", "detail": str(err)}
            )
        except RegexSyntaxError as err:
            body = {"error": "regex_syntax", "detail": err.raw_message}
            if err.position is not None:
                body["position"] = err.position
            raise _BadRequest.from_body(body)
        except UnknownSymbolError as err:
            raise _BadRequest.from_body({
                "error": "unknown_symbol",
                "detail": str(err),
                "kind": err.kind,
                "symbol": str(err.symbol),
            })
        self._retain(ticket)
        return ticket

    def _retain(self, ticket) -> None:
        """Bounded LRU of addressable tickets (settled evict first)."""
        self._tickets[ticket.query_id] = ticket
        self._tickets.move_to_end(ticket.query_id)
        while len(self._tickets) > self.retention:
            evicted = False
            for query_id, old in self._tickets.items():
                if old.done():
                    del self._tickets[query_id]
                    evicted = True
                    break
            if not evicted:
                # Every retained ticket is still live (retention below
                # max_pending): drop the oldest anyway — bounded memory
                # beats addressability of the oldest in-flight query.
                self._tickets.popitem(last=False)

    async def _wait_settled(self, conn: _Conn, ticket) -> bool:
        """Await settlement while watching for client disconnect.

        Returns True when the ticket settled with the client still
        there; False when the client vanished first (the query is then
        cancelled, and we still wait for settlement so the admission
        slot is provably released before the handler returns).
        """
        loop = asyncio.get_running_loop()
        settled = loop.create_future()

        def _resolve() -> None:
            if not settled.done():
                settled.set_result(True)

        def _hook() -> None:
            # Fired from whichever service thread settles the ticket;
            # the loop may already be shutting down — a lost wakeup is
            # then fine, nobody awaits the future anymore.
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(_resolve)

        ticket._on_settle = _hook
        if ticket.done():
            _resolve()
        watcher = asyncio.ensure_future(conn.watch_eof())
        try:
            await asyncio.wait(
                {settled, watcher},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if settled.done():
                return True
            if watcher.result():  # EOF: the client is gone
                self._inc("serve.http.client_disconnects")
                ticket.cancel()
                await settled
                return False
            # Data arrived instead (an eager keep-alive client): not a
            # disconnect; just wait for settlement.
            await settled
            return True
        finally:
            ticket._on_settle = None
            if not watcher.done():
                watcher.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await watcher
            # The hook may have landed between done-check and reset;
            # nothing to do — _resolve on a done future is a no-op.

    def _ticket_failure(self, error: BaseException) -> "_HTTPFailure":
        """Map a settled ticket's error to a response."""
        if isinstance(error, ServiceClosedError):
            return _HTTPFailure(
                503, {"error": "service_closed", "detail": str(error)}
            )
        if isinstance(error, UnknownSymbolError):
            return _HTTPFailure(400, {
                "error": "unknown_symbol",
                "detail": str(error),
                "kind": error.kind,
                "symbol": str(error.symbol),
            })
        if isinstance(error, ReproError):
            return _HTTPFailure(500, {
                "error": type(error).__name__,
                "detail": str(error),
            })
        return _HTTPFailure(500, {
            "error": "internal",
            "detail": type(error).__name__,
        })

    # ------------------------------------------------------------------
    # Endpoint handlers
    # ------------------------------------------------------------------

    async def _handle_query(self, conn: _Conn, request: dict,
                            keep_alive: bool) -> bool:
        try:
            parsed = self._parse_submit_body(request)
            ticket = self._submit(parsed)
        except _HTTPFailure as fail:
            await self._send_error(conn, fail.status, fail.body,
                                   keep_alive, extra=fail.extra)
            return True
        if not await self._wait_settled(conn, ticket):
            return False  # client vanished; ticket settled + cancelled
        if ticket._error is not None:
            fail = self._ticket_failure(ticket._error)
            await self._send_error(conn, fail.status, fail.body,
                                   keep_alive, extra=fail.extra)
            return True
        result = ticket.result(timeout=0)
        page_size = parsed.get("page_size", self.default_page_size)
        await self._stream_result(conn, ticket, result, cursor=0,
                                  page_size=page_size,
                                  keep_alive=keep_alive)
        return True

    async def _handle_submit(self, conn: _Conn, request: dict,
                             keep_alive: bool) -> None:
        try:
            parsed = self._parse_submit_body(request)
            ticket = self._submit(parsed)
        except _HTTPFailure as fail:
            await self._send_error(conn, fail.status, fail.body,
                                   keep_alive, extra=fail.extra)
            return
        self._inc("serve.http.submitted")
        await conn.send_response(
            202,
            _json_body({
                "query_id": ticket.query_id,
                "query": str(ticket.query),
                "status_url": f"/status/{ticket.query_id}",
                "result_url": f"/result/{ticket.query_id}",
            }),
            extra={"X-Query-Id": ticket.query_id},
            keep_alive=keep_alive,
        )

    async def _handle_status(self, conn: _Conn, query_id: str,
                             keep_alive: bool) -> None:
        ticket = self._tickets.get(query_id)
        if ticket is None:
            await self._send_error(
                conn, 404,
                {"error": "unknown_query_id", "query_id": query_id},
                keep_alive,
            )
            return
        body: dict = {
            "query_id": query_id,
            "query": str(ticket.query),
            "done": ticket.done(),
            "cancel_requested": ticket.cancelled,
        }
        extra = {"X-Query-Id": query_id}
        if ticket.done():
            if ticket._error is not None:
                body["error"] = type(ticket._error).__name__
            else:
                result = ticket.result(timeout=0)
                body["n_results"] = len(result.pairs)
                body["stats"] = _stats_dict(result.stats)
            extra["X-Query-Stages"] = _stages_header(ticket.lifecycle)
        await conn.send_response(200, _json_body(body), extra=extra,
                                 keep_alive=keep_alive)

    async def _handle_result(self, conn: _Conn, query_id: str,
                             request: dict, keep_alive: bool) -> bool:
        ticket = self._tickets.get(query_id)
        if ticket is None:
            await self._send_error(
                conn, 404,
                {"error": "unknown_query_id", "query_id": query_id},
                keep_alive,
            )
            return True
        if not ticket.done():
            await conn.send_response(
                202,
                _json_body({"query_id": query_id, "done": False}),
                extra={"X-Query-Id": query_id},
                keep_alive=keep_alive,
            )
            return True
        if ticket._error is not None:
            fail = self._ticket_failure(ticket._error)
            await self._send_error(conn, fail.status, fail.body,
                                   keep_alive, extra=fail.extra)
            return True
        params = request["params"]
        try:
            cursor = int(params.get("cursor", ["0"])[0])
            page_size = params.get("page_size")
            page_size = (min(int(page_size[0]), self.max_page_size)
                         if page_size else self.default_page_size)
            if cursor < 0 or page_size < 1:
                raise ValueError
        except (ValueError, IndexError):
            await self._send_error(
                conn, 400,
                {"error": "bad_request",
                 "detail": "cursor/page_size must be non-negative ints"},
                keep_alive,
            )
            return True
        result = ticket.result(timeout=0)
        await self._stream_result(conn, ticket, result, cursor=cursor,
                                  page_size=page_size,
                                  keep_alive=keep_alive)
        return True

    async def _stream_result(self, conn: _Conn, ticket, result,
                             cursor: int, page_size: int,
                             keep_alive: bool) -> None:
        """The streaming core: chunked NDJSON, one page per chunk."""
        pairs = sorted(result.pairs)
        extra = {
            "X-Query-Id": ticket.query_id,
            "X-Query-Stages": _stages_header(ticket.lifecycle),
        }
        await conn.start_chunked(200, NDJSON_CONTENT_TYPE, extra=extra,
                                 keep_alive=keep_alive)
        header = {
            "kind": "header",
            "query_id": ticket.query_id,
            "query": str(ticket.query),
            "n_results": len(pairs),
            "cursor": cursor,
            "page_size": page_size,
        }
        await conn.send_chunk(_ndjson_line(header))
        pages = 0
        for at, page, nxt in iter_pages(pairs, cursor, page_size):
            pages += 1
            await conn.send_chunk(_ndjson_line({
                "kind": "page",
                "cursor": at,
                "count": len(page),
                "pairs": [list(pair) for pair in page],
                "next_cursor": nxt,
            }))
        trailer = {
            "kind": "trailer",
            "query_id": ticket.query_id,
            "n_results": len(pairs),
            "pages": pages,
            "stats": _stats_dict(result.stats),
        }
        await conn.send_chunk(_ndjson_line(trailer))
        await conn.end_chunked()
        self._inc("serve.http.streamed", 1)
        self._inc("serve.http.pages", pages)

    async def _handle_cancel(self, conn: _Conn, query_id: str,
                             keep_alive: bool) -> None:
        ticket = self._tickets.get(query_id)
        if ticket is None:
            await self._send_error(
                conn, 404,
                {"error": "unknown_query_id", "query_id": query_id},
                keep_alive,
            )
            return
        was_live = not ticket.done()
        if was_live:
            ticket.cancel()
            self._inc("serve.http.cancelled")
        await conn.send_response(
            200,
            _json_body({"query_id": query_id, "cancelled": was_live,
                        "done": ticket.done()}),
            extra={"X-Query-Id": query_id},
            keep_alive=keep_alive,
        )

    async def _handle_healthz(self, conn: _Conn,
                              keep_alive: bool) -> None:
        body = {"status": "ok", "front_door": self.stats()}
        body.update(self.service.healthz())
        if body.get("closed"):
            body["status"] = "closed"
        status = 200 if body["status"] == "ok" else 503
        await conn.send_response(status, _json_body(body),
                                 keep_alive=keep_alive)

    async def _handle_flight(self, conn: _Conn,
                             keep_alive: bool) -> None:
        flight = getattr(self.service, "flight", None)
        if flight is None:
            await self._send_error(
                conn, 404,
                {"error": "not_found",
                 "detail": "no flight recorder attached"},
                keep_alive,
            )
            return
        await conn.send_response(200, _json_body(flight.snapshot()),
                                 keep_alive=keep_alive)

    async def _handle_telemetry(self, conn: _Conn, path: str,
                                keep_alive: bool) -> None:
        # Rendered in a worker thread: a space audit walks every cached
        # answer under the registry lock, and the answers streaming on
        # this loop must not wait for it.
        body = await asyncio.to_thread(_TELEMETRY[path], self.service)
        if path == "/metrics":
            await conn.send_response(
                200, body.encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE, keep_alive=keep_alive,
            )
        else:
            await conn.send_response(200, _json_body(body),
                                     keep_alive=keep_alive)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self._thread is not None
        return f"HTTPQueryServer({self.url}, running={running})"


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------


class _HTTPFailure(Exception):
    """A typed, ready-to-send error response."""

    def __init__(self, status: int, body: dict,
                 extra: "dict[str, str] | None" = None):
        super().__init__(body.get("detail", body.get("error", "")))
        self.status = status
        self.body = body
        self.extra = extra


class _BadRequest(_HTTPFailure):
    """A 400 with a typed JSON body."""

    def __init__(self, kind: str, detail: str):
        super().__init__(400, {"error": kind, "detail": detail})

    @classmethod
    def from_body(cls, body: dict) -> "_BadRequest":
        out = cls(body.get("error", "bad_request"),
                  body.get("detail", ""))
        out.body = body
        return out


def _json_body(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _ndjson_line(record: dict) -> bytes:
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")


_INDEX_BODY = ("\n".join((
    "repro query front door:",
    "  POST /query         submit + stream NDJSON pages",
    "  POST /submit        submit, returns 202 + query_id",
    "  GET  /status/{id}   poll one submission",
    "  GET  /result/{id}   stream pages (?cursor=N&page_size=K)",
    "  POST /cancel/{id}   cooperative cancellation",
    "  GET  /healthz       service health + load",
    "  GET  /metrics       Prometheus exposition, read at scrape time",
    "  GET  /debug/vars    registry + slow-log snapshot (JSON)",
    "  GET  /debug/flight  last-N settled-query audit ring",
    "  GET  /debug/space   space-audit tree (bytes, bits/triple)",
)) + "\n").encode("utf-8")
