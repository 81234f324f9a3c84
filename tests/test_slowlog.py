"""Tests for the bounded slow-query log and its engine integration."""

from __future__ import annotations

import json

import pytest

from repro.core.engine import RingRPQEngine
from repro.core.result import QueryStats
from repro.obs.metrics import Metrics
from repro.obs.record import QueryRecord
from repro.obs.slowlog import SlowQueryLog


def _record(query: str, elapsed: float, n_results: int = 0,
            engine: str = "ring", **flags) -> QueryRecord:
    stats = QueryStats(elapsed=elapsed, **flags)
    return QueryRecord(query, stats, n_results, engine)


class TestRetention:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)

    def test_keeps_k_worst(self):
        log = SlowQueryLog(capacity=3)
        for i, elapsed in enumerate([0.1, 0.5, 0.2, 0.9, 0.05, 0.3]):
            log.offer(_record(f"q{i}", elapsed))
        assert len(log) == 3
        assert log.total_recorded == 6
        assert [e.elapsed for e in log.entries()] == [0.9, 0.5, 0.3]
        assert [e.query for e in log.entries()] == ["q3", "q1", "q5"]

    def test_threshold_and_would_keep(self):
        log = SlowQueryLog(capacity=2)
        assert log.threshold == 0.0
        assert log.would_keep(0.0)
        log.offer(_record("a", 0.2))
        log.offer(_record("b", 0.4))
        assert log.threshold == 0.2
        assert log.would_keep(0.3)
        assert not log.would_keep(0.2)  # ties lose to the incumbent
        assert not log.offer(_record("c", 0.1))
        assert log.total_recorded == 3
        assert len(log) == 2

    def test_deterministic_tie_eviction(self):
        log = SlowQueryLog(capacity=1)
        log.offer(_record("first", 0.5))
        assert not log.offer(_record("second", 0.5))
        assert log.entries()[0].query == "first"

    def test_clear(self):
        log = SlowQueryLog(capacity=2)
        log.offer(_record("a", 1.0))
        log.clear()
        assert len(log) == 0 and log.total_recorded == 0


class TestRendering:
    def _log(self) -> SlowQueryLog:
        log = SlowQueryLog(capacity=2)
        slow = _record("(?x, p0+, ?y)", 0.75, n_results=12)
        slow.counters = {"storage_ops": 100}
        slow.phase_seconds = {"total": 0.75}
        slow.span_tree = [{"name": "query", "children": []}]
        log.offer(slow)
        log.offer(_record("(?x, p1, ?y)", 0.25, timed_out=True))
        return log

    def test_to_dict_and_json(self):
        dump = json.loads(self._log().to_json())
        assert dump["capacity"] == 2
        assert dump["total_recorded"] == 2
        first, second = dump["entries"]
        assert first["elapsed"] == 0.75
        assert first["counters"] == {"storage_ops": 100}
        assert first["span_tree"][0]["name"] == "query"
        assert first["engine"] == "ring"
        assert second["timed_out"] is True
        # Flags appear only when set; no detail, no span tree.
        assert "timed_out" not in first and "truncated" not in second
        assert "span_tree" not in second

    def test_format_table(self):
        text = self._log().format_table()
        lines = text.splitlines()
        assert "2/2 retained of 2 recorded" in lines[0]
        assert "(?x, p0+, ?y)" in lines[1]  # slowest first
        assert "TIMEOUT" in lines[2]


class TestEngineIntegration:
    def test_engine_feeds_slow_log(self, kg_index):
        log = SlowQueryLog(capacity=2)
        engine = RingRPQEngine(kg_index, slow_log=log)
        queries = ["(?x, p0, ?y)", "(?x, (p0|p1)+, ?y)", "(?x, p2, ?y)"]
        for query in queries:
            engine.evaluate(query)
        assert log.total_recorded == len(queries)
        assert len(log) == 2
        retained = log.entries()
        assert all(e.engine == engine.name for e in retained)
        assert all(e.counters.get("storage_ops", 0) > 0
                   for e in retained)
        assert retained[0].elapsed >= retained[1].elapsed

    def test_span_tree_captured_per_query(self, kg_index):
        """With spans on, each retained entry carries only its own
        query's subtree — not the whole session's span forest."""
        log = SlowQueryLog(capacity=1)
        engine = RingRPQEngine(kg_index, slow_log=log)
        metrics = Metrics(span_capacity=10_000)
        engine.evaluate("(?x, p0+, ?y)", metrics=metrics)
        engine.evaluate("(?x, p1+, ?y)", metrics=metrics)
        (entry,) = log.entries()
        assert entry.span_tree is not None
        assert len(entry.span_tree) == 1
        assert entry.span_tree[0]["name"] == "query"

    def test_without_metrics_no_span_tree(self, kg_index):
        log = SlowQueryLog(capacity=1)
        engine = RingRPQEngine(kg_index, slow_log=log)
        engine.evaluate("(?x, p0, ?y)")
        (entry,) = log.entries()
        assert entry.span_tree is None
        assert entry.phase_seconds == {}


class TestBenchIntegration:
    def test_run_benchmark_records_slowest(self, kg_index):
        from repro.bench.runner import run_benchmark
        from repro.core.query import RPQ

        log = SlowQueryLog(capacity=2)
        queries = [RPQ.parse("(?x, p0, ?y)"), RPQ.parse("(?x, p0+, ?y)")]
        run_benchmark({"ring": kg_index.engine}, queries,
                      timeout=10.0, slow_log=log)
        assert log.total_recorded == len(queries)
        assert len(log) == 2
        assert all(e.engine == "ring" for e in log.entries())
