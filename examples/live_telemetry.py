"""Live-telemetry scenario: boot the front door and scrape it.

Starts a :class:`~repro.serve.QueryService` over a synthetic knowledge
graph with every telemetry sink attached — shared metrics registry,
slow log, JSON-lines query log and flight recorder — behind the HTTP
front door, then drives a workload while scraping ``/healthz``,
``/metrics``, ``/debug/vars``, ``/debug/space`` and ``/debug/flight``
over the port the queries use, exactly as a Prometheus agent would.
Asserts on everything it scrapes — including that the flight ring,
the query log and the slow log hold the same record of a query (one
record, three sinks) — so CI can run it as the serving-plane smoke
test, and leaves the query log and the flight ring's dump next to
``--out``.

Run with::

    python examples/live_telemetry.py [--queries N] [--out live-telemetry]
"""

from __future__ import annotations

import argparse
import json
import tempfile
import urllib.request
from pathlib import Path

from repro import RingIndex
from repro.bench.workload import generate_query_log
from repro.graph.generators import wikidata_like
from repro.obs import (
    FlightRecorder,
    Metrics,
    QueryLogWriter,
    read_query_log,
)
from repro.obs.slowlog import SlowQueryLog
from repro.serve import HTTPQueryServer, QueryService


def scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.status == 200, f"{url}: HTTP {response.status}"
        return response.read().decode("utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=60,
                        help="workload size replayed through the service")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="path stem of the query log and flight dump "
                             "(default: <tmp>/live_telemetry)")
    parser.add_argument("--flight", type=int, default=48,
                        help="flight-recorder capacity (last N settled "
                             "queries' audit records)")
    args = parser.parse_args()

    graph = wikidata_like(
        n_nodes=800, n_edges=4_500, n_predicates=24, seed=args.seed
    )
    index = RingIndex.from_graph(graph)
    queries = generate_query_log(graph, scale=0.05, seed=args.seed)
    queries = (queries * (args.queries // len(queries) + 1))[:args.queries]
    print(f"index over {len(graph.nodes)} nodes / {len(graph)} edges; "
          f"workload of {len(queries)} queries")

    out = Path(args.out) if args.out else (
        Path(tempfile.gettempdir()) / "live_telemetry"
    )
    log_path = out.with_suffix(".queries.jsonl")
    log_path.unlink(missing_ok=True)

    metrics = Metrics(span_capacity=2048)
    slow_log = SlowQueryLog(capacity=8)
    query_log = QueryLogWriter(log_path)
    flight = FlightRecorder(args.flight)
    service = QueryService(
        index, workers=args.workers, cache_size=128, metrics=metrics,
        slow_log=slow_log, query_log=query_log, flight=flight,
    )
    server = HTTPQueryServer(service)

    with service, server:
        print(f"queries and telemetry live at {server.url}")

        results = service.run(queries, timeout=5.0, limit=50_000)
        answers = sum(len(r) for r in results)
        print(f"workload done: {answers} answers, "
              f"{metrics.count('serve.cache_hits'):.0f} cache hits")

        # -- /healthz: the service reports itself alive and drained.
        health = json.loads(scrape(server.url + "/healthz"))
        assert health["status"] == "ok", health
        assert health["workers"] == args.workers
        print(f"/healthz ok: uptime "
              f"{health['service_uptime_seconds']:.2f}s")

        # -- /metrics: the Prometheus scrape a collector would take;
        # the process vitals are read by this very request.
        exposition = scrape(server.url + "/metrics")
        for needle in (
            "repro_serve_submitted_total",
            "repro_serve_query_seconds_bucket",
            'le="+Inf"',
            "repro_serve_queue_depth",
            "repro_serve_inflight",
            "repro_serve_cache_size",
            "repro_process_rss_bytes",
            "repro_process_cpu_seconds",
        ):
            assert needle in exposition, f"missing {needle} in /metrics"
        submitted = next(
            line for line in exposition.splitlines()
            if line.startswith("repro_serve_submitted_total ")
        )
        assert float(submitted.split()[1]) == len(queries), submitted
        print(f"/metrics ok: {len(exposition.splitlines())} lines, "
              f"{submitted}")

        # -- /debug/vars: the whole registry as JSON, vitals included.
        snapshot = json.loads(scrape(server.url + "/debug/vars"))
        gauges = snapshot["gauges"]
        rss = gauges["process.rss_bytes"]
        assert 0 < rss <= gauges["process.peak_rss_bytes"], gauges
        assert snapshot["counters"]["serve.submitted"] == len(queries)
        print(f"/debug/vars ok: {len(snapshot['counters'])} counters, "
              f"{len(snapshot['histograms'])} histograms, "
              f"RSS {rss / 1e6:.1f} MB")

        # -- /debug/space: the space audit, taken now.
        space = json.loads(scrape(server.url + "/debug/space"))
        assert space["tree"]["name"] == "service", space["tree"]["name"]
        assert space["n_triples"] == len(index.ring)
        print(f"/debug/space ok: {space['tree']['bytes']:,} bytes "
              f"audited over {space['n_triples']} triples")

        # -- /debug/flight: the audit ring over real HTTP.  Every
        # settled query left an audit record; the ring keeps the last
        # N of them, each decomposing its latency into stages that
        # telescope back to the end-to-end total.
        flight_dump = json.loads(scrape(server.url + "/debug/flight"))
        assert flight_dump["capacity"] == args.flight, flight_dump
        assert flight_dump["total_recorded"] == len(queries)
        ring = flight_dump["records"]
        assert len(ring) == min(args.flight, len(queries))
        for record in ring:
            stage_sum = sum(record["stages"].values())
            assert abs(stage_sum - record["total_seconds"]) <= max(
                0.05 * record["total_seconds"], 1e-6
            ), record
        flight_path = out.with_suffix(".flight.json")
        flight_path.write_text(
            json.dumps(flight_dump, indent=2) + "\n", encoding="utf-8"
        )
        print(f"/debug/flight ok: {len(ring)} of "
              f"{flight_dump['total_recorded']} audit records retained "
              f"({flight_dump['dropped']} dropped); dump at {flight_path}")

        # -- one record, three sinks: every settled query was described
        # once, so its flight record and its query-log line agree on
        # every key they share (``ts`` included), and the slowest
        # query's slow-log entry is that same dict plus its detail.
        lines = {r["query_id"]: r for r in read_query_log(log_path)}
        assert len(lines) == len(queries), (len(lines), len(queries))
        for record in ring:
            line = lines[record["query_id"]]
            assert {k: line[k] for k in record} == record, (record, line)
        worst = slow_log.to_dict()["entries"][0]
        line = lines[worst["query_id"]]
        for sink in [line] + [r for r in ring
                              if r["query_id"] == worst["query_id"]]:
            shared = worst.keys() & sink.keys()
            assert {"ts", "query", "elapsed", "stages"} <= shared
            assert all(worst[k] == sink[k] for k in shared), (worst, sink)
        assert {"counters", "phase_seconds", "span_tree"} <= worst.keys()
        print(f"query log ok: {len(lines)} lines, each equal to its "
              f"flight record; slowest query {worst['query_id']} "
              f"({worst['elapsed'] * 1e3:.2f} ms) is the same record in "
              "the slow log, with counters, phases and span tree")

    query_log.close()
    print(f"query log at {log_path}")
    print("live telemetry smoke: all checks passed")


if __name__ == "__main__":
    main()
