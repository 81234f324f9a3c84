"""The per-request audit plane: lifecycle, exemplars, flight recorder.

The load-bearing invariant is conservation of latency: stage durations
are telescoping differences of one monotonic timeline, so for every
settled query — both serving tiers, cache hits, errors — the reported
stages sum to the end-to-end latency (asserted here within 5%, exact
up to clock-skew clamping).  Around that: histogram exemplars through
the Prometheus exporter, the bounded flight ring (including under
parallel settlement), the ``/debug/flight`` endpoint, close-time gauge
zeroing, and crash context on :class:`WorkerCrashedError`.
"""

from __future__ import annotations

import json
import pickle
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import WorkerCrashedError
from repro.obs.export import prometheus_text
from repro.obs.flight import FlightRecorder
from repro.obs.histogram import LogHistogram
from repro.obs.httpd import TelemetryServer
from repro.obs.lifecycle import STAGE_MARKS, QueryLifecycle
from repro.obs.metrics import Metrics
from repro.obs.querylog import QueryLogWriter, read_query_log
from repro.serve.service import QueryService

WORKLOAD = [
    "(?x, p0, ?y)",
    "(?x, p0/p1, ?y)",
    "(?x, (p0|p2)+, ?y)",
    "(?x, p1*, ?y)",
]

#: The acceptance bound: per settled query, |sum(stages) - e2e| <= 5%.
STAGE_SUM_TOLERANCE = 0.05


def _assert_stages_cover_total(record: dict) -> None:
    total = record["total_seconds"]
    stage_sum = sum(record["stages"].values())
    assert stage_sum == pytest.approx(
        total, rel=STAGE_SUM_TOLERANCE, abs=1e-6
    ), f"stages {record['stages']} do not cover total {total}"


# ----------------------------------------------------------------------
# QueryLifecycle
# ----------------------------------------------------------------------


def test_lifecycle_marks_telescope_exactly():
    life = QueryLifecycle("q1", t=100.0)
    life.mark("admitted", t=100.5)
    life.mark("dequeued", t=101.0)
    life.mark("dispatched", t=101.25)
    life.mark("worker_started", t=101.5)
    life.mark("worker_finished", t=103.5)
    life.mark("settled", t=104.0)
    stages = life.stage_durations()
    assert stages == {
        "admission": 0.5,
        "queue_wait": 0.5,
        "dispatch": 0.25,
        "startup": 0.25,
        "execute": 2.0,
        "settle": 0.5,
    }
    assert sum(stages.values()) == pytest.approx(life.total())
    assert life.total() == pytest.approx(4.0)
    assert life.settled


def test_lifecycle_rejects_out_of_order_and_unknown_marks():
    life = QueryLifecycle("q1")
    life.mark("dequeued")
    with pytest.raises(ValueError):
        life.mark("admitted")   # earlier in the canonical order
    with pytest.raises(ValueError):
        life.mark("dequeued")   # repeated
    with pytest.raises(ValueError):
        life.mark("warp_drive")
    # The failed marks must not have corrupted the timeline.
    assert [name for name, _ in life.marks] == ["submitted", "dequeued"]


def test_lifecycle_allows_skipping_stages():
    """The thread tier never records the serialize/pipe marks and a
    cache hit jumps straight to settled — both must stay legal."""
    life = QueryLifecycle("q-hit", t=10.0)
    life.mark("settled", t=10.001)
    assert life.stage_durations() == {
        "cache_hit": pytest.approx(0.001)
    }


def test_lifecycle_clamps_clock_skew_to_zero():
    life = QueryLifecycle("q1", t=100.0)
    life.mark("worker_started", t=99.9)   # worker stamped before parent
    life.mark("settled", t=100.2)
    stages = life.stage_durations()
    assert all(v >= 0.0 for v in stages.values())
    # The skewed mark is clamped forward at mark time, so the
    # telescoping invariant holds even across misaligned stamps.
    assert sum(stages.values()) == pytest.approx(life.total())
    assert life.total() == pytest.approx(0.2)


def test_lifecycle_process_tier_mark_sequence():
    life = QueryLifecycle("q1", t=0.0)
    for i, stage in enumerate(STAGE_MARKS[1:], start=1):
        life.mark(stage, t=float(i))
    stages = life.stage_durations()
    assert set(stages) == {
        "admission", "queue_wait", "dispatch", "request_serialize",
        "pipe_to_worker", "execute", "reply_transfer", "settle",
    }
    assert sum(stages.values()) == pytest.approx(life.total())
    assert life.marks[-1] == ("settled", pytest.approx(life.total()))


# ----------------------------------------------------------------------
# FlightRecorder
# ----------------------------------------------------------------------


def test_flight_recorder_bounds_and_counts():
    flight = FlightRecorder(capacity=3)
    for i in range(7):
        flight.record({"query_id": f"q{i}"})
    assert len(flight) == 3
    assert flight.total_recorded == 7
    assert [r["query_id"] for r in flight.records()] == ["q4", "q5", "q6"]
    assert [r["query_id"] for r in flight.records(last=2)] == ["q5", "q6"]
    snap = flight.snapshot()
    assert snap["capacity"] == 3
    assert snap["dropped"] == 4
    assert [r["query_id"] for r in snap["records"]] == ["q4", "q5", "q6"]
    flight.clear()
    assert len(flight) == 0
    assert flight.total_recorded == 7
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_flight_recorder_is_safe_under_parallel_settlement():
    """Many threads appending at once: the ring stays bounded, nothing
    is double-counted, and the retained tail is internally unique."""
    flight = FlightRecorder(capacity=64)
    n_threads, per_thread = 8, 50

    def hammer(tid: int) -> None:
        for i in range(per_thread):
            flight.record({"query_id": f"t{tid}-{i}"})

    threads = [
        threading.Thread(target=hammer, args=(tid,))
        for tid in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert flight.total_recorded == n_threads * per_thread
    records = flight.records()
    assert len(records) == 64
    ids = [r["query_id"] for r in records]
    assert len(set(ids)) == len(ids)


# ----------------------------------------------------------------------
# Histogram exemplars
# ----------------------------------------------------------------------


def test_histogram_retains_last_exemplar_per_bucket():
    hist = LogHistogram()
    hist.observe(0.51, "q1")
    hist.observe(0.52, "q2")     # same bucket: replaces q1
    hist.observe(100.0, "q3")    # far bucket
    hist.observe(0.0, "q4")      # the zero bucket
    hist.observe(0.53)           # unlabelled: must not clear q2
    exemplars = dict(hist.exemplars)
    labels = {label for label, _ in exemplars.values()}
    assert "q2" in labels and "q1" not in labels
    assert "q3" in labels and "q4" in labels
    # bucket_keys aligns with bucket_bounds, zero bucket first.
    keys = hist.bucket_keys()
    bounds = hist.bucket_bounds()
    assert len(keys) == len(bounds)
    assert keys[0] is None and bounds[0][0] == 0.0


def test_histogram_merge_prefers_other_exemplars():
    a, b = LogHistogram(), LogHistogram()
    a.observe(1.0, "old")
    b.observe(1.0, "new")
    a.merge(b)
    labels = {label for label, _ in a.exemplars.values()}
    assert labels == {"new"}
    assert a.count == 2


def test_prometheus_export_renders_openmetrics_exemplars():
    metrics = Metrics()
    metrics.observe("serve.stage.execute", 0.25, exemplar='q"4\\2')
    metrics.observe("serve.stage.execute", 0.26)
    text = prometheus_text(metrics)
    bucket_lines = [
        line for line in text.splitlines()
        if line.startswith("repro_serve_stage_execute_bucket")
        and "# {" in line
    ]
    assert len(bucket_lines) == 1
    line = bucket_lines[0]
    # OpenMetrics shape: ... N # {query_id="..."} value, label escaped.
    assert '# {query_id="q\\"4\\\\2"} 0.25' in line
    # The +Inf bucket and sum/count lines never carry exemplars.
    assert "+Inf" not in line


def test_prometheus_export_without_exemplars_is_unchanged():
    metrics = Metrics()
    metrics.observe("plain", 1.0)
    text = prometheus_text(metrics)
    assert "# {" not in text
    assert "repro_plain_bucket" in text


# ----------------------------------------------------------------------
# Thread tier end-to-end
# ----------------------------------------------------------------------


def test_thread_tier_stage_sum_matches_e2e_for_every_query(kg_index,
                                                           tmp_path):
    log_path = tmp_path / "queries.jsonl"
    metrics = Metrics(span_capacity=512)
    flight = FlightRecorder(32)
    service = QueryService(
        kg_index, workers=2, metrics=metrics, flight=flight,
        cache_size=8, query_log=QueryLogWriter(log_path),
    )
    try:
        for query in WORKLOAD:
            service.evaluate(query, timeout=60)
        hit = service.evaluate(WORKLOAD[0], timeout=60)  # cache hit
        assert hit.stats.cached
    finally:
        service.close()
        service.query_log.close()

    records = flight.records()
    assert len(records) == len(WORKLOAD) + 1
    for record in records:
        _assert_stages_cover_total(record)
    # The miss path decomposes into the canonical thread-tier stages...
    miss = records[0]
    for stage in ("admission", "queue_wait", "dispatch", "startup",
                  "execute", "settle"):
        assert stage in miss["stages"], miss["stages"]
    assert miss["cache_hit"] is False
    assert miss["worker"] in (0, 1)
    assert miss["span_digest"]["spans"] >= 1
    # ...and the hit collapses onto the single cache_hit stage.
    hit_record = records[-1]
    assert hit_record["cache_hit"] is True
    assert set(hit_record["stages"]) == {"cache_hit"}

    # Stage histograms exist, exemplar-linked to real query ids.
    execute = metrics.histogram("serve.stage.execute")
    assert execute is not None and execute.count == len(WORKLOAD)
    ids = {r["query_id"] for r in records}
    for label, _ in execute.exemplars.values():
        assert label in ids
    # Per-worker accounting: busy seconds distributed over the slots
    # equal the execute histogram's total.
    busy = sum(
        metrics.count(f"serve.worker.{i}.busy_seconds") for i in (0, 1)
    )
    assert busy == pytest.approx(execute.total)
    detail = service.stats()["workers_detail"]
    assert sum(w["busy_seconds"] for w in detail) == pytest.approx(busy)
    assert all(0.0 <= w["utilization"] <= 1.0 for w in detail)
    assert service.stats()["flight"]["total_recorded"] == len(records)

    # Query-log schema v3: every line carries the stage decomposition.
    lines = read_query_log(log_path)
    assert len(lines) == len(WORKLOAD) + 1
    for line in lines:
        assert line["schema_version"] == 3
        assert line["backend"]
        assert "cache_hit" in line
        assert line["stages"] and all(
            v >= 0.0 for v in line["stages"].values()
        )
        # v1 fields survive.
        assert {"ts", "query_id", "query", "elapsed",
                "n_results"} <= set(line)
    assert [line["cache_hit"] for line in lines].count(True) == 1


def test_close_zeroes_worker_gauges_but_keeps_busy_counters(kg_index):
    metrics = Metrics()
    metrics.set_gauge("router.misroute_rate", 0.25)
    service = QueryService(kg_index, workers=2, metrics=metrics,
                           cache_size=0)
    try:
        service.evaluate(WORKLOAD[0], timeout=60)
    finally:
        service.close()
    for name, value in metrics.gauges.items():
        if name.startswith("serve.worker."):
            assert value == 0, name
    assert metrics.gauge("router.misroute_rate") == 0.0
    # Counters are cumulative history and must survive close.
    assert metrics.count("serve.worker.0.busy_seconds") \
        + metrics.count("serve.worker.1.busy_seconds") > 0


class _BoomEngine:
    """Engine stub whose every evaluation fails."""

    name = "boom"

    def evaluate(self, query, **kwargs):
        raise RuntimeError("engine exploded")


def test_error_paths_land_in_the_flight_ring(kg_index):
    flight = FlightRecorder(8)
    service = QueryService(kg_index, workers=1, metrics=Metrics(),
                           flight=flight, cache_size=0,
                           engine=_BoomEngine())
    try:
        with pytest.raises(RuntimeError, match="engine exploded"):
            service.evaluate(WORKLOAD[0], timeout=60)
    finally:
        service.close()
    records = flight.records()
    assert len(records) == 1
    assert records[0]["error"] == "RuntimeError"
    assert "engine exploded" in records[0]["error_detail"]
    _assert_stages_cover_total(records[0])


# ----------------------------------------------------------------------
# /debug/flight endpoint
# ----------------------------------------------------------------------


def _get(url: str, timeout: float = 10.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


def test_debug_flight_endpoint_serves_the_ring(kg_index):
    metrics = Metrics()
    flight = FlightRecorder(16)
    service = QueryService(kg_index, workers=2, metrics=metrics,
                           flight=flight, cache_size=0)
    try:
        for query in WORKLOAD:
            service.evaluate(query, timeout=60)
        with TelemetryServer(metrics, lock=service.obs_lock,
                             service=service, flight=flight) as httpd:
            status, content_type, body = _get(
                f"{httpd.url}/debug/flight"
            )
            assert status == 200
            assert content_type == "application/json"
            payload = json.loads(body)
            assert payload["capacity"] == 16
            assert payload["total_recorded"] == len(WORKLOAD)
            ids = [r["query_id"] for r in payload["records"]]
            assert len(ids) == len(WORKLOAD)
            # The ids join the exemplars: scrape /metrics and check the
            # exemplar labels all resolve into the flight ring.
            _, _, metrics_text = _get(f"{httpd.url}/metrics")
            import re

            exemplar_ids = set(re.findall(
                r'# \{query_id="([^"]+)"\}', metrics_text
            ))
            assert exemplar_ids and exemplar_ids <= set(ids)
            # The index advertises the endpoint.
            _, _, index_body = _get(httpd.url)
            assert "/debug/flight" in index_body
    finally:
        service.close()


def test_debug_flight_404_without_recorder():
    metrics = Metrics()
    with TelemetryServer(metrics) as httpd:
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(f"{httpd.url}/debug/flight")
        assert info.value.code == 404


def test_httpd_falls_back_to_the_service_flight(kg_index):
    metrics = Metrics()
    flight = FlightRecorder(4)
    service = QueryService(kg_index, workers=1, metrics=metrics,
                           flight=flight, cache_size=0)
    try:
        service.evaluate(WORKLOAD[0], timeout=60)
        httpd = TelemetryServer(metrics, lock=service.obs_lock,
                                service=service)  # no flight= passed
        assert httpd.render_flight()["total_recorded"] == 1
    finally:
        service.close()


# ----------------------------------------------------------------------
# WorkerCrashedError flight context
# ----------------------------------------------------------------------


def test_worker_crashed_error_pickles_with_flight_context():
    context = [{"query_id": "q7", "stages": {"execute": 0.5}}]
    err = WorkerCrashedError("repro-serve-proc-1", exitcode=-9,
                             flight=context)
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, WorkerCrashedError)
    assert clone.worker == "repro-serve-proc-1"
    assert clone.exitcode == -9
    assert clone.flight == context
    assert WorkerCrashedError("w").flight == []
