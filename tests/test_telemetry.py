"""Tests for the telemetry pages and the query log.

The end-to-end test is the acceptance check: boot a real service
behind the HTTP front door, run a workload, scrape ``/metrics`` over
the port the queries use and validate the Prometheus exposition
semantics (cumulative buckets ending in ``+Inf``, ``_sum``/``_count``
consistency, counter/gauge round-trips, the ``repro_process_*``
vitals), then join one query's ``query_id`` across the query log, the
slow log and the span tree.  Every page is read when it is asked for:
no thread samples between scrapes.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.result import QueryStats
from repro.obs import (
    Metrics,
    QueryLogWriter,
    QueryRecord,
    read_query_log,
)
from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    read_rss_bytes,
    scrape_metrics,
)
from repro.obs.slowlog import SlowQueryLog
from repro.serve import HTTPQueryServer, QueryService

#: The process vitals every scrape reads, by their exported names.
PROCESS_FAMILY = (
    "repro_process_rss_bytes",
    "repro_process_peak_rss_bytes",
    "repro_process_cpu_seconds",
    "repro_process_uptime_seconds",
    "repro_process_gc_collections",
    "repro_process_gc_collected_objects",
    "repro_process_threads",
)


# ----------------------------------------------------------------------
# Process vitals, read at scrape time
# ----------------------------------------------------------------------


class TestProcessGauges:
    def test_read_rss_is_positive(self):
        assert read_rss_bytes() > 0

    def test_each_scrape_reads_the_vitals(self, kg_index):
        metrics = Metrics()
        service = QueryService(kg_index, workers=1, metrics=metrics)
        try:
            # Nothing writes them before someone asks.
            assert not any(name.startswith("process.")
                           for name in metrics.gauges)
            first = _parse_prometheus(scrape_metrics(service))
            for name in PROCESS_FAMILY:
                assert len(first[name]) == 1, name
            (_, rss), = first["repro_process_rss_bytes"]
            (_, peak), = first["repro_process_peak_rss_bytes"]
            assert peak >= rss > 0
            assert first["repro_process_threads"][0][1] >= 1
            time.sleep(0.01)
            second = _parse_prometheus(scrape_metrics(service))
            assert (second["repro_process_uptime_seconds"][0][1]
                    > first["repro_process_uptime_seconds"][0][1])
        finally:
            service.close()


# ----------------------------------------------------------------------
# Query log
# ----------------------------------------------------------------------


class TestQueryLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        stats = QueryStats(query_id="q1", elapsed=0.5)
        writer = QueryLogWriter(path)
        writer.log(QueryRecord("(?x, p0, ?y)", stats, 2, "serve/ring",
                               ts=123.0, wait_seconds=0.01))
        timed = QueryStats(query_id="q2", timed_out=True, truncated=True)
        writer.log(QueryRecord("(?x, p1, ?y)", timed, 0, "serve/ring"))
        writer.close()
        records = read_query_log(path)
        assert [r["query_id"] for r in records] == ["q1", "q2"]
        first, second = records
        assert first == {
            "schema_version": 3, "ts": 123.0, "query_id": "q1",
            "query": "(?x, p0, ?y)", "backend": "serve/ring",
            "cache_hit": False, "elapsed": 0.5, "n_results": 2,
            "wait_seconds": 0.01, "engine": "serve/ring",
        }
        # Outcome flags appear only when set.
        assert second["timed_out"] and second["truncated"]
        assert "cached" not in second and "cancelled" not in second
        assert second["schema_version"] == 3
        assert writer.written == 2

    def test_file_object_target_not_closed(self, tmp_path):
        handle = open(tmp_path / "q.jsonl", "a", encoding="utf-8")
        writer = QueryLogWriter(handle)
        writer.log(QueryRecord("x", QueryStats(query_id="q1"), 0, "ring"))
        writer.close()
        assert not handle.closed
        handle.close()


# ----------------------------------------------------------------------
# End-to-end: live HTTP scrape over a running service
# ----------------------------------------------------------------------


def _get(url: str, timeout: float = 10.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


def _parse_prometheus(text: str) -> dict:
    """Parse an exposition document into ``name -> [(labels, value)]``."""
    samples: dict[str, list[tuple[dict, float]]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, value_part = line.rsplit(" ", 1)
        labels: dict[str, str] = {}
        if "{" in name_part:
            name, raw = name_part.split("{", 1)
            raw = raw.rstrip("}")
            for pair in raw.split(","):
                key, val = pair.split("=", 1)
                labels[key] = val.strip('"')
        else:
            name = name_part
        samples.setdefault(name, []).append((labels, float(value_part)))
    return samples


@pytest.mark.concurrency
class TestTelemetryEndToEnd:
    @pytest.fixture()
    def plane(self, kg_index, tmp_path):
        """A live service with every telemetry sink, behind the front
        door that serves its queries and its telemetry on one port."""
        metrics = Metrics(span_capacity=512)
        slow_log = SlowQueryLog(capacity=8)
        query_log = QueryLogWriter(tmp_path / "queries.jsonl")
        service = QueryService(
            kg_index, workers=2, cache_size=8, metrics=metrics,
            slow_log=slow_log, query_log=query_log,
        )
        server = HTTPQueryServer(service).start()
        try:
            yield {
                "service": service, "metrics": metrics,
                "slow_log": slow_log, "server": server,
                "query_log_path": tmp_path / "queries.jsonl",
            }
        finally:
            server.stop()
            service.close()
            query_log.close()

    def test_live_scrape(self, plane):
        service = plane["service"]
        server = plane["server"]
        for query in ("(?x, p0/p1, ?y)", "(?x, p2, ?y)",
                      "(?x, p0/p1, ?y)"):
            service.evaluate(query)

        status, content_type, body = _get(server.url + "/metrics")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        samples = _parse_prometheus(body)

        # Counter round-trip: the scraped value equals the registry's.
        metrics = plane["metrics"]
        (_, submitted), = samples["repro_serve_submitted_total"]
        assert submitted == metrics.count("serve.submitted") == 3.0
        (_, hits), = samples["repro_serve_cache_hits_total"]
        assert hits == 1.0

        # Gauge round-trip, including the vitals this scrape read.
        (_, cache_size), = samples["repro_serve_cache_size"]
        assert cache_size == metrics.gauge("serve.cache_size") == 2.0
        (_, rss), = samples["repro_process_rss_bytes"]
        assert rss > 0
        assert "repro_process_threads" in samples

        # Histogram semantics: cumulative buckets ending at +Inf that
        # agree with _count, and a plausible _sum.
        for family in ("repro_serve_query_seconds",
                       "repro_serve_wait_seconds"):
            buckets = samples[f"{family}_bucket"]
            counts = [value for _, value in buckets]
            assert counts == sorted(counts), family
            assert buckets[-1][0]["le"] == "+Inf"
            (_, count), = samples[f"{family}_count"]
            assert buckets[-1][1] == count
            (_, total), = samples[f"{family}_sum"]
            # The cache hit settles at submit time: it never waits in
            # the queue nor runs the engine, so both latency
            # histograms saw exactly the two executed queries.
            assert count == 2.0 and total >= 0.0

    def test_healthz_and_vars(self, plane):
        service = plane["service"]
        server = plane["server"]
        service.evaluate("(?x, p0, ?y)")

        status, content_type, body = _get(server.url + "/healthz")
        assert status == 200 and content_type == "application/json"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["queue_depth"] == 0 and health["inflight"] == 0

        status, _, body = _get(server.url + "/debug/vars")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["counters"]["serve.submitted"] == 1
        assert snapshot["service"]["workers"] == 2
        assert snapshot["slow_log"]["entries"]
        assert "span_tree" not in snapshot["slow_log"]["entries"][0]
        assert snapshot["gauges"]["process.rss_bytes"] > 0

        status, _, body = _get(server.url + "/")
        assert status == 200
        assert "/metrics" in body and "/debug/vars" in body

        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server.url + "/nope")
        assert info.value.code == 404

    def test_healthz_degrades_after_close(self, plane):
        plane["service"].close()
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(plane["server"].url + "/healthz")
        assert info.value.code == 503
        assert json.loads(info.value.read())["status"] == "closed"
        # /metrics still serves — post-mortem scrapes see zeroed load
        # gauges rather than connection errors.
        _, _, body = _get(plane["server"].url + "/metrics")
        samples = _parse_prometheus(body)
        assert samples["repro_serve_queue_depth"][0][1] == 0.0
        assert samples["repro_serve_inflight"][0][1] == 0.0

    def test_query_id_joins_logs_and_spans(self, plane):
        service = plane["service"]
        # Force every query into the slow log (tiny threshold default).
        result = service.evaluate("(?x, p0/p1, ?y)")
        qid = result.stats.query_id
        assert qid  # the service minted one

        # Query log: one line carries the same id.
        records = read_query_log(plane["query_log_path"])
        (record,) = [r for r in records if r["query_id"] == qid]
        assert record["query"] == "(?x, p0/p1, ?y)"
        assert record["engine"].startswith("serve/")

        # Slow log: the entry for this query carries the id too.
        entries = plane["slow_log"].entries()
        assert any(e.query_id == qid for e in entries)
        assert any(
            e.to_dict().get("query_id") == qid for e in entries
        )

        # Span tree: the engine stamped the id onto its query span.
        spans = plane["metrics"].spans.spans
        assert any(
            s.attrs and s.attrs.get("query_id") == qid for s in spans
        )
