"""One record per finished query (``repro.obs.record``).

A finished query is described once — by the evaluation envelope for a
bare engine, by ``QueryService._settle`` for a served one — and the
flight ring, the query log and the slow log are views of that one
:class:`~repro.obs.record.QueryRecord`.  So the three must agree, per
``query_id``, on every key they share (``ts`` included), for every way
a served query can end and on both serving tiers; and the two engines,
which share the envelope, must tag, span and log a budget stop the same
way.
"""

from __future__ import annotations

import json
import threading

import pytest

import repro.core.engine as engine_mod
from repro.core.engine import RingRPQEngine
from repro.graph.generators import chain_graph
from repro.matrix.engine import MatrixRPQEngine
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Metrics
from repro.obs.querylog import QueryLogWriter, read_query_log
from repro.obs.slowlog import SlowQueryLog
from repro.ring.builder import RingIndex
from repro.serve.pool import ProcessQueryService
from repro.serve.service import QueryService

MISS = "(?x, p2+, ?y)"
VICTIM = "(?x, (p0|p1)+, ?y)"
BROKEN = "(?x, p1*, ?y)"
DETAIL = {"counters", "phase_seconds", "span_tree"}


def _service(pool: str, index, **kwargs):
    if pool == "processes":
        return ProcessQueryService(index, workers=1, **kwargs)
    return QueryService(index, workers=1, **kwargs)


@pytest.mark.concurrency
@pytest.mark.parametrize("pool", ["threads", "processes"])
def test_every_sink_is_a_view_of_one_record(pool, kg_index, tmp_path):
    """A miss, a hit, a query cancelled while queued and an engine
    error: each leaves one flight record and one query-log line that
    agree on every shared key, and (for the two a worker completed) a
    slow-log entry that is that dict plus the detail."""
    metrics = Metrics(span_capacity=512)
    flight = FlightRecorder(16)
    slow_log = SlowQueryLog(capacity=16)
    log_path = tmp_path / "queries.jsonl"
    query_log = QueryLogWriter(log_path)
    service = _service(pool, kg_index, cache_size=8, metrics=metrics,
                       flight=flight, slow_log=slow_log,
                       query_log=query_log)
    # Hold the only worker inside the miss so the victim is still
    # queued when it is cancelled (both tiers dispatch through
    # _run_engine).
    gate = threading.Event()
    run_engine = service._run_engine

    def gated(ticket, *args):
        if str(ticket.query) == MISS:
            assert gate.wait(30)
        return run_engine(ticket, *args)

    service._run_engine = gated
    try:
        miss = service.submit(MISS, timeout=60)
        victim = service.submit(VICTIM, timeout=60)
        assert service.cancel(victim.query_id)
        gate.set()
        assert not miss.result(30).stats.cached
        assert victim.result(30).stats.cancelled
        hit = service.submit(MISS, timeout=60)
        assert hit.result(30).stats.cached
        # A timeout the budget cannot add to the clock: the engine
        # itself raises, in the worker, on either tier.
        broken = service.submit(BROKEN, timeout="soon")
        with pytest.raises(TypeError):
            broken.result(30)
    finally:
        service.close()
        query_log.close()

    ids = {"miss": miss.query_id, "victim": victim.query_id,
           "hit": hit.query_id, "broken": broken.query_id}
    ring = {r["query_id"]: r for r in flight.records()}
    lines = {r["query_id"]: r for r in read_query_log(log_path)}
    assert set(ring) == set(lines) == set(ids.values())
    assert flight.total_recorded == query_log.written == 4
    for query_id, record in ring.items():
        line = lines[query_id]
        assert line.pop("schema_version") == 3
        # Every shared key — and the two share all of them.
        assert line == json.loads(json.dumps(record)), query_id
        assert sum(record["stages"].values()) == pytest.approx(
            record["total_seconds"], rel=0.05, abs=1e-6)

    assert ring[ids["miss"]]["worker"] == 0
    assert ring[ids["miss"]]["span_digest"]["spans"] >= 2
    assert ring[ids["victim"]]["cancelled"] is True
    assert "worker" not in ring[ids["victim"]]
    assert ring[ids["hit"]]["cache_hit"] is True
    assert set(ring[ids["hit"]]["stages"]) == {"cache_hit"}
    failed = ring[ids["broken"]]
    assert failed["error"] == "TypeError" and failed["error_detail"]
    assert failed["n_results"] == 0 and failed["elapsed"] == 0.0

    # The slow log holds what a worker completed, as the same dict
    # plus its detail — with spans on, the tree and the phases too.
    entries = {e["query_id"]: e for e in slow_log.to_dict()["entries"]}
    assert set(entries) == {ids["miss"], ids["victim"]}
    for query_id, entry in entries.items():
        assert DETAIL <= set(entry)
        shared = {k: v for k, v in entry.items() if k not in DETAIL}
        assert shared == ring[query_id]
    slowest = entries[ids["miss"]]
    assert slowest["counters"]["storage_ops"] > 0
    assert slowest["phase_seconds"]["total"] > 0
    names = [node["name"] for node in slowest["span_tree"]]
    assert names == ["worker:0"]
    assert slowest["span_tree"][0]["children"][0]["name"] == "query"

    # Every settlement is observed: hits and errors included.
    assert metrics.histogram("serve.e2e_seconds").count == 4
    assert metrics.histogram("serve.stage.cache_hit").count == 1
    assert metrics.count("serve.completed") == 2
    assert metrics.count("serve.errors") == 1


@pytest.mark.concurrency
@pytest.mark.parametrize("pool", ["threads", "processes"])
def test_an_overflowing_span_tree_keeps_its_roots(pool):
    """Both tiers give each worker a 64-span stack.  A query with more
    spans than that (a closure over a 40-edge chain runs ~40 waves)
    still leaves a slow-log tree rooted at ``worker:<id>`` → ``query``:
    the stack keeps the spans that started first, not the leaves that
    closed first."""
    slow_log = SlowQueryLog(capacity=1)
    index = RingIndex.from_graph(chain_graph(40))
    service = _service(pool, index, metrics=Metrics(span_capacity=512),
                       slow_log=slow_log)
    try:
        service.evaluate("(?x, next+, ?y)", timeout=60)
    finally:
        service.close()
    (entry,) = slow_log.to_dict()["entries"]
    assert entry["span_digest"]["spans"] > 64
    (root,) = entry["span_tree"]
    assert root["name"] == "worker:0"
    assert [child["name"] for child in root["children"]] == ["query"]


class _Set:
    def is_set(self) -> bool:
        return True


@pytest.mark.parametrize("stop, flag", [
    ({"timeout": 0.0}, "timed_out"),
    ({"cancel": _Set()}, "cancelled"),
    ({"limit": 0}, "truncated"),
])
def test_ring_and_matrix_share_one_envelope(kg_index, stop, flag):
    """The same budget stop gives the same flags, the same ``query``
    span attributes and a slow-log entry of the same shape on either
    backend."""
    query = "(?x, (p0|p1)+, ?y)"
    seen = {}
    for engine_cls in (RingRPQEngine, MatrixRPQEngine):
        slow_log = SlowQueryLog(capacity=1)
        engine = engine_cls(kg_index, slow_log=slow_log)
        metrics = Metrics(span_capacity=4096)
        result = engine.evaluate(query, metrics=metrics, query_id="q7",
                                 **stop)
        stats = result.stats
        assert getattr(stats, flag)
        (query_span,) = [s for s in metrics.spans.spans
                         if s.name == "query"]
        attrs = dict(query_span.attrs)
        assert attrs.pop("n_results") == len(result.pairs)
        (entry,) = slow_log.to_dict()["entries"]
        assert entry["engine"] == entry["backend"] == engine.name
        assert entry["span_tree"][0]["name"] == "query"
        assert entry["phase_seconds"]["total"] == stats.elapsed
        assert metrics.count("engine.queries") == 1
        assert metrics.histogram("query.seconds").count == 1
        seen[engine.name] = (
            (stats.timed_out, stats.cancelled, stats.truncated),
            attrs,
            {key: type(value) for key, value in entry.items()},
        )
    assert seen["ring"] == seen["matrix"]
    assert seen["ring"][1] == {"query": query, "shape": "vv",
                               "query_id": "q7"}


def test_no_record_is_built_without_a_sink(kg_index, monkeypatch):
    """With NULL_METRICS and no slow log, ``evaluate`` constructs no
    QueryRecord; with a slow log, exactly one per query."""
    built = []

    class Counting(engine_mod.QueryRecord):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "QueryRecord", Counting)
    queries = ["(?x, p0, ?y)", "(?x, p0+, ?y)", "(n0, p0/p1*, ?y)"]
    for engine in (RingRPQEngine(kg_index), MatrixRPQEngine(kg_index)):
        for query in queries:
            engine.evaluate(query)
    assert built == []
    slow_log = SlowQueryLog(capacity=1)
    engine = RingRPQEngine(kg_index, slow_log=slow_log)
    for query in queries:
        engine.evaluate(query)
    assert built == queries
    assert slow_log.total_recorded == len(queries) and len(slow_log) == 1
