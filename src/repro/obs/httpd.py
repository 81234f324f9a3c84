"""The live telemetry endpoint: a stdlib-only background HTTP server.

Everything PRs 1 and 3 collect — counters, gauges, histograms, the
slow log — was until now only visible at process exit.  This module
exposes it *while the service runs*, over plain
:mod:`http.server` (no third-party dependency, per the repo's rules):

* ``GET /metrics`` — Prometheus text exposition
  (:func:`repro.obs.export.prometheus_text` over the shared registry,
  including the sampler's ``repro_process_*`` gauges);
* ``GET /healthz`` — liveness JSON: service status, queue depth,
  in-flight count, worker count, uptime;
* ``GET /debug/vars`` — one JSON snapshot of counters, gauges,
  histogram percentile summaries, slow-log entries (query ids, no span
  trees), resource time series and profiler hot phases;
* ``GET /debug/profile`` — the sampling profiler's collapsed stacks
  (flamegraph format, ``text/plain``);
* ``GET /debug/flight`` — the flight recorder's ring of the last N
  settled queries' audit records (lifecycle stage decomposition,
  outcome flags, backend, cache verdict, span digest), each carrying
  the ``query_id`` the histogram exemplars and query log join on;
* ``GET /debug/space`` — the space-audit tree
  (:func:`repro.obs.space.audit_service` over the live service):
  bytes, share-of-parent and bits-per-triple for every storage
  component, the same numbers the ``repro_space_bytes`` gauges carry.

The server runs ``ThreadingHTTPServer.serve_forever`` on one daemon
thread; request handlers take the shared registry lock only long
enough to render, so a scrape costs the serving path one short lock
hold.  Bind to port 0 for an ephemeral port (tests, CI) and read the
chosen one back from :attr:`TelemetryServer.port`.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.export import prometheus_text

#: Content type mandated by the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class TelemetryServer:
    """Background HTTP server over one shared telemetry registry.

    Parameters
    ----------
    metrics:
        The shared :class:`~repro.obs.metrics.Metrics` registry.
    lock:
        The lock guarding it (e.g.
        :attr:`repro.serve.QueryService.obs_lock`); a private lock is
        created when omitted.
    service / sampler / profiler / slow_log / flight:
        Optional live components; endpoints degrade gracefully (the
        corresponding sections are simply absent, ``/debug/flight``
        answers 404) when missing.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port.
    """

    def __init__(
        self,
        metrics,
        lock: "threading.Lock | None" = None,
        service=None,
        sampler=None,
        profiler=None,
        slow_log=None,
        flight=None,
        host: str = "127.0.0.1",
        port: int = 0,
        prefix: str = "repro",
        space=None,
    ):
        self.metrics = metrics
        self.lock = lock if lock is not None else threading.Lock()
        self.service = service
        self.sampler = sampler
        self.profiler = profiler
        self.slow_log = slow_log
        self.flight = flight
        #: Optional zero-arg callable returning the /debug/space JSON
        #: body; defaults to auditing ``service`` live on each request.
        self.space = space
        self.prefix = prefix
        self.started_at = time.monotonic()
        self.requests = 0
        self._httpd = ThreadingHTTPServer(
            (host, port), self._make_handler()
        )
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The actual bound port (resolves ``port=0`` ephemerals)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        """Start serving on a daemon thread (idempotent)."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry-httpd", daemon=True,
        )
        self._thread.start()
        if self.profiler is not None:
            # The scrape handler threads are ThreadingHTTPServer
            # ephemerals; at least keep the acceptor off the profile.
            self.profiler.ignore_thread(self._thread)
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        thread = self._thread
        if thread is None:
            return
        self._httpd.shutdown()
        thread.join()
        self._httpd.server_close()
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Renderers (each holds the registry lock only while reading)
    # ------------------------------------------------------------------

    def render_metrics(self) -> str:
        """The ``/metrics`` Prometheus document.

        When a live service is attached, the ``repro_space_bytes``
        gauges are re-audited first, so every scrape carries the same
        numbers ``/debug/space`` would report at that moment.
        """
        self._refresh_space_gauges()
        with self.lock:
            return prometheus_text(self.metrics, prefix=self.prefix)

    def _refresh_space_gauges(self) -> None:
        service = self.service
        if service is None or not getattr(self.metrics, "enabled", True):
            return
        from repro.obs.space import audit_service, publish_space_gauges

        try:
            with self.lock:
                node = audit_service(service)
                publish_space_gauges(self.metrics, node)
        except Exception:
            # A scrape racing a service close must not take /metrics
            # down; the previously published gauges keep rendering.
            pass

    def render_healthz(self) -> dict:
        """The ``/healthz`` JSON body."""
        body: dict = {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self.started_at,
        }
        service = self.service
        if service is not None:
            body.update(service.healthz())
            if body.get("closed"):
                body["status"] = "closed"
        return body

    def render_vars(self) -> dict:
        """The ``/debug/vars`` JSON snapshot."""
        with self.lock:
            metrics = self.metrics
            out: dict = {
                "counters": dict(sorted(metrics.counters.items())),
                "gauges": dict(sorted(metrics.gauges.items())),
                "phase_seconds": dict(sorted(metrics.phase_seconds.items())),
                "histograms": {
                    name: hist.summary()
                    for name, hist in sorted(metrics.histograms.items())
                },
            }
            if self.slow_log is not None:
                out["slow_log"] = self.slow_log.to_dict()
                for entry in out["slow_log"]["entries"]:
                    # Span trees belong in the slow log proper; keep
                    # the debug snapshot scrape-sized.
                    entry.pop("span_tree", None)
        if self.service is not None:
            out["service"] = self.service.stats()
            out["healthz"] = self.render_healthz()
        if self.sampler is not None:
            out["timeseries"] = self.sampler.snapshot()
        if self.profiler is not None:
            out["profile"] = self.profiler.snapshot()
        return out

    def render_profile(self) -> str:
        """The ``/debug/profile`` collapsed-stacks body."""
        if self.profiler is None:
            return ""
        return self.profiler.collapsed()

    def render_space(self) -> "dict | None":
        """The ``/debug/space`` JSON body (None without a source)."""
        if self.space is not None:
            return self.space()
        if self.service is None:
            return None
        from repro.obs.space import space_report

        with self.lock:
            return space_report(self.service)

    def render_flight(self) -> "dict | None":
        """The ``/debug/flight`` JSON body (None without a recorder)."""
        flight = self.flight
        if flight is None and self.service is not None:
            # The serve CLI wires the recorder into the service; pick
            # it up from there so callers need not pass it twice.
            flight = getattr(self.service, "flight", None)
        if flight is None:
            return None
        return flight.snapshot()

    # ------------------------------------------------------------------

    def _make_handler(self):
        server = self

        class _Handler(BaseHTTPRequestHandler):
            # Scrapers poll frequently; stderr chatter helps nobody.
            def log_message(self, *args) -> None:
                return None

            def _send(self, status: int, content_type: str,
                      body: str) -> None:
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                server.requests += 1
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                try:
                    if path == "/metrics":
                        self._send(200, PROMETHEUS_CONTENT_TYPE,
                                   server.render_metrics())
                    elif path == "/healthz":
                        body = server.render_healthz()
                        status = 200 if body["status"] == "ok" else 503
                        self._send(status, "application/json",
                                   json.dumps(body, indent=2) + "\n")
                    elif path == "/debug/vars":
                        self._send(200, "application/json",
                                   json.dumps(server.render_vars(),
                                              indent=2) + "\n")
                    elif path == "/debug/profile":
                        self._send(200, "text/plain; charset=utf-8",
                                   server.render_profile())
                    elif path == "/debug/flight":
                        body = server.render_flight()
                        if body is None:
                            self._send(404, "text/plain; charset=utf-8",
                                       "no flight recorder attached\n")
                        else:
                            self._send(200, "application/json",
                                       json.dumps(body, indent=2) + "\n")
                    elif path == "/debug/space":
                        body = server.render_space()
                        if body is None:
                            self._send(404, "text/plain; charset=utf-8",
                                       "no space-audit source attached\n")
                        else:
                            self._send(200, "application/json",
                                       json.dumps(body, indent=2) + "\n")
                    elif path == "/":
                        index = "\n".join((
                            "repro telemetry endpoints:",
                            "  /metrics        Prometheus exposition",
                            "  /healthz        liveness + load JSON",
                            "  /debug/vars     full JSON snapshot",
                            "  /debug/profile  collapsed stacks",
                            "  /debug/flight   last-N query audit ring",
                            "  /debug/space    space-audit tree (bytes)",
                        )) + "\n"
                        self._send(200, "text/plain; charset=utf-8", index)
                    else:
                        self._send(404, "text/plain; charset=utf-8",
                                   f"unknown path {path}\n")
                except BrokenPipeError:  # pragma: no cover - client gone
                    pass

        return _Handler

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self._thread is not None
        return f"TelemetryServer({self.url}, running={running})"
