"""Tests for the live telemetry plane: sampler, profiler, query log,
and the HTTP endpoint served over a running :class:`QueryService`.

The end-to-end test is the PR's acceptance check: boot a real service
with every telemetry component attached, run a workload, scrape
``/metrics`` over actual HTTP and validate the Prometheus exposition
semantics (cumulative buckets ending in ``+Inf``, ``_sum``/``_count``
consistency, counter/gauge round-trips), then join one query's
``query_id`` across the query log, the slow log and the span tree.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.result import QueryStats
from repro.obs import (
    Metrics,
    QueryLogWriter,
    QueryRecord,
    ResourceSampler,
    SamplingProfiler,
    TelemetryServer,
    prometheus_text,
    read_query_log,
)
from repro.obs.httpd import PROMETHEUS_CONTENT_TYPE
from repro.obs.sampler import PROCESS_GAUGES, read_rss_bytes
from repro.obs.slowlog import SlowQueryLog
from repro.serve import QueryService


# ----------------------------------------------------------------------
# Resource sampler
# ----------------------------------------------------------------------


class TestResourceSampler:
    def test_read_rss_is_positive(self):
        assert read_rss_bytes() > 0

    def test_sample_once_records_vitals_and_gauges(self):
        metrics = Metrics()
        metrics.set_gauge("serve.queue_depth", 3.0)
        metrics.set_gauge("unrelated.gauge", 9.0)
        sampler = ResourceSampler(metrics=metrics, interval=0.01)
        readings = sampler.sample_once()
        assert readings["process.rss_bytes"] > 0
        assert readings["process.threads"] >= 1
        # Every standard vital got a series point.
        for name in PROCESS_GAUGES:
            assert name in sampler.series, name
            assert len(sampler.series[name]) == 1
        # serve.* gauges are mirrored into series; others are not.
        assert sampler.series["serve.queue_depth"].last() == 3.0
        assert "unrelated.gauge" not in sampler.series
        # The registry now carries process.* gauges, so the standard
        # Prometheus exporter emits the repro_process_* family with no
        # exporter changes (satellite: standard process metrics).
        text = prometheus_text(metrics)
        assert "repro_process_rss_bytes " in text
        assert "repro_process_cpu_seconds " in text

    def test_background_thread_ticks_and_peak(self):
        sampler = ResourceSampler(interval=0.01)
        with sampler:
            time.sleep(0.06)
        assert sampler.ticks >= 2
        assert sampler.peak("process.rss_bytes") > 0
        last = sampler.process_metrics()
        assert last["process.peak_rss_bytes"] >= last["process.rss_bytes"]
        snap = sampler.snapshot(max_points=5)
        assert snap["ticks"] == sampler.ticks
        assert len(snap["series"]["process.rss_bytes"]["points"]) <= 5

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            ResourceSampler(interval=0.0)


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------


def _spin(inside: threading.Event, release: threading.Event) -> None:
    inside.set()
    while not release.is_set():
        sum(range(50))


def backward_step_many(inside, release):
    # Named after a real engine function so PHASE_BY_FUNCTION maps the
    # sampled stack to its paper phase (subjects_from_predicates).
    _spin(inside, release)


def _unmapped_wrapper(inside, release):
    _spin(inside, release)


class _BusyThread:
    """A thread guaranteed to be inside ``target`` while sampled."""

    def __init__(self, target):
        self.inside = threading.Event()
        self.release = threading.Event()
        self.thread = threading.Thread(
            target=target, args=(self.inside, self.release), daemon=True
        )

    def __enter__(self) -> "_BusyThread":
        self.thread.start()
        assert self.inside.wait(5)
        return self

    def __exit__(self, *exc) -> None:
        self.release.set()
        self.thread.join(5)


class TestSamplingProfiler:
    def test_busy_thread_produces_stacks_and_phase(self):
        profiler = SamplingProfiler(module_prefixes=(__name__,))
        with _BusyThread(backward_step_many):
            recorded = profiler.sample()
        assert recorded >= 1
        assert profiler.samples == 1
        counts = profiler.stack_counts()
        assert counts
        (stack, n), = list(counts.items())[:1] or [((), 0)]
        # Outermost-first: the wrapper encloses the spin loop.
        assert any("backward_step_many" in label for label in stack)
        assert stack[-1].endswith(":_spin")
        # Phase attribution walked past the unmapped innermost frame.
        assert profiler.hot_phases() == {"subjects_from_predicates": 1}
        collapsed = profiler.collapsed()
        assert collapsed.strip().endswith(" 1")
        assert ";" in collapsed
        snap = profiler.snapshot()
        assert snap["samples"] == 1
        assert snap["top_stacks"][0]["samples"] == 1

    def test_ignored_thread_is_skipped(self):
        profiler = SamplingProfiler(module_prefixes=(__name__,))
        with _BusyThread(backward_step_many) as busy:
            profiler.ignore_thread(busy.thread)
            recorded = profiler.sample()
        assert recorded == 0
        assert profiler.stack_counts() == {}

    def test_max_stacks_truncates_novel_shapes(self):
        profiler = SamplingProfiler(module_prefixes=(__name__,),
                                    max_stacks=1)
        with _BusyThread(backward_step_many):
            profiler.sample()
        with _BusyThread(_unmapped_wrapper):
            profiler.sample()
        assert profiler.truncated_stacks >= 1
        assert any(
            stack[0].startswith("(truncated:")
            for stack in profiler.stack_counts()
            if len(stack) == 1
        )

    def test_reset(self):
        profiler = SamplingProfiler(module_prefixes=(__name__,))
        with _BusyThread(backward_step_many):
            profiler.sample()
        profiler.reset()
        assert profiler.samples == 0
        assert profiler.stack_counts() == {}
        assert profiler.collapsed() == ""


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
        """A live service with every telemetry component attached."""
        metrics = Metrics(span_capacity=512)
        slow_log = SlowQueryLog(capacity=8)
        query_log = QueryLogWriter(tmp_path / "queries.jsonl")
        service = QueryService(
            kg_index, workers=2, cache_size=8, metrics=metrics,
            slow_log=slow_log, query_log=query_log,
        )
        profiler = SamplingProfiler()
        sampler = ResourceSampler(
            metrics=metrics, lock=service.obs_lock, interval=0.02,
            profiler=profiler,
        )
        httpd = TelemetryServer(
            metrics, lock=service.obs_lock, service=service,
            sampler=sampler, profiler=profiler, slow_log=slow_log,
        )
        sampler.start()
        httpd.start()
        try:
            yield {
                "service": service, "metrics": metrics,
                "slow_log": slow_log, "sampler": sampler,
                "httpd": httpd,
                "query_log_path": tmp_path / "queries.jsonl",
            }
        finally:
            httpd.stop()
            sampler.stop()
            service.close()
            query_log.close()

    def test_live_scrape(self, plane):
        service = plane["service"]
        httpd = plane["httpd"]
        for query in ("(?x, p0/p1, ?y)", "(?x, p2, ?y)",
                      "(?x, p0/p1, ?y)"):
            service.evaluate(query)
        plane["sampler"].sample_once()

        status, content_type, body = _get(httpd.url + "/metrics")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        samples = _parse_prometheus(body)

        # Counter round-trip: the scraped value equals the registry's.
        metrics = plane["metrics"]
        (_, submitted), = samples["repro_serve_submitted_total"]
        assert submitted == metrics.count("serve.submitted") == 3.0
        (_, hits), = samples["repro_serve_cache_hits_total"]
        assert hits == 1.0

        # Gauge round-trip, including the sampler's process family.
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

    def test_healthz_and_vars_and_profile(self, plane):
        service = plane["service"]
        httpd = plane["httpd"]
        service.evaluate("(?x, p0, ?y)")
        plane["sampler"].sample_once()

        status, content_type, body = _get(httpd.url + "/healthz")
        assert status == 200 and content_type == "application/json"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["queue_depth"] == 0 and health["inflight"] == 0

        status, _, body = _get(httpd.url + "/debug/vars")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["counters"]["serve.submitted"] == 1
        assert snapshot["service"]["workers"] == 2
        assert snapshot["slow_log"]["entries"]
        assert "span_tree" not in snapshot["slow_log"]["entries"][0]
        series = snapshot["timeseries"]["series"]
        assert series["process.rss_bytes"]["count"] >= 1
        assert "profile" in snapshot

        status, _, body = _get(httpd.url + "/debug/profile")
        assert status == 200  # may legitimately be empty this early

        status, _, body = _get(httpd.url + "/")
        assert status == 200 and "/metrics" in body

        with pytest.raises(urllib.error.HTTPError) as info:
            _get(httpd.url + "/nope")
        assert info.value.code == 404

    def test_healthz_degrades_after_close(self, plane):
        plane["service"].close()
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(plane["httpd"].url + "/healthz")
        assert info.value.code == 503
        assert json.loads(info.value.read())["status"] == "closed"
        # /metrics still serves — post-mortem scrapes see zeroed load
        # gauges rather than connection errors.
        _, _, body = _get(plane["httpd"].url + "/metrics")
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
