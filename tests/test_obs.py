"""Tests for the observability layer: metrics, counters, profiling.

Three layers of guarantees:

* the :class:`~repro.obs.metrics.Metrics` registry itself (counters,
  phase timers, histograms, null sink);
* the engine's per-phase operation counters, including the bucket
  invariant *visited + pruned + empty = descents + children* per
  wavelet descent and ``pruned > 0`` on selective queries;
* the per-phase profile of EXPLAIN ANALYZE, and the ``_Budget.tick``
  timeout regression (partial stats must carry the counters
  accumulated before the deadline).
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.core.engine import RingRPQEngine, _Budget
from repro.core.result import ENGINE_PHASES, QueryStats
from repro.errors import QueryTimeoutError
from repro.obs import Metrics, NullMetrics
from repro.obs.explain import explain_analyze
from repro.obs.metrics import NULL_METRICS
from repro.testing import random_query


# ----------------------------------------------------------------------
# The Metrics registry
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counters(self):
        m = Metrics()
        assert m.count("x") == 0
        m.inc("x")
        m.inc("x", 4)
        assert m.count("x") == 5
        assert m.counters == {"x": 5}

    def test_phase_timer_accumulates(self):
        m = Metrics()
        with m.phase("build"):
            pass
        with m.phase("build"):
            pass
        assert m.phase_seconds["build"] >= 0.0
        m.add_phase("build", 1.0)
        assert m.phase_seconds["build"] >= 1.0

    def test_merge_and_reset(self):
        a, b = Metrics(), Metrics()
        a.inc("x", 2)
        b.inc("x", 3)
        b.add_phase("p", 0.5)
        a.merge(b)
        assert a.count("x") == 5
        assert a.phase_seconds["p"] == 0.5
        a.reset()
        assert a.counters == {} and a.phase_seconds == {}

    def test_snapshot_json_round_trips(self):
        m = Metrics()
        m.inc("ops")
        m.add_phase("total", 0.1)
        snap = json.loads(m.to_json())
        assert snap["counters"] == {"ops": 1}
        assert snap["phase_seconds"] == {"total": 0.1}

    def test_null_metrics_is_inert(self):
        n = NULL_METRICS
        assert isinstance(n, NullMetrics)
        assert not n.enabled
        n.inc("x", 10)
        n.add_phase("p", 1.0)
        n.observe("lat", 0.5)
        with n.phase("p"):
            pass
        assert n.count("x") == 0
        assert n.counters == {} and n.phase_seconds == {}
        assert n.histograms == {} and n.histogram("lat") is None
        assert n.spans is None
        n.set_gauge("g", 1.0)
        assert n.gauge("g") == 0.0 and n.gauges == {}
        assert n.snapshot() == {
            "counters": {}, "gauges": {}, "phase_seconds": {},
            "histograms": {},
        }


class TestMetricsHistograms:
    def test_observe_creates_and_fills(self):
        m = Metrics()
        m.observe("lat", 0.5)
        m.observe("lat", 1.5)
        hist = m.histogram("lat")
        assert hist is not None and hist.count == 2
        assert m.histogram("other") is None

    def test_merge_folds_histograms(self):
        a, b = Metrics(), Metrics()
        a.observe("lat", 1.0)
        b.observe("lat", 2.0)
        b.observe("only_b", 3.0)
        a.merge(b)
        assert a.histogram("lat").count == 2
        assert a.histogram("only_b").count == 1

    def test_reset_clears_histograms_and_spans(self):
        m = Metrics(span_capacity=10)
        m.observe("lat", 1.0)
        m.spans.end(m.spans.start("s"))
        m.reset()
        assert m.histograms == {}
        assert len(m.spans) == 0

    def test_snapshot_carries_histograms(self):
        m = Metrics()
        m.observe("lat", 2.0)
        snap = m.snapshot()
        assert snap["histograms"]["lat"]["count"] == 1


class TestMetricsProperties:
    """Hypothesis properties of the registry's aggregation contracts."""

    pytestmark = pytest.mark.hypothesis

    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(st.sampled_from("abcdef"),
                        st.integers(min_value=0, max_value=1_000)),
        st.dictionaries(st.sampled_from("abcdef"),
                        st.integers(min_value=0, max_value=1_000)),
    )
    def test_merge_of_snapshots_equals_sum(self, xs, ys):
        a, b = Metrics(), Metrics()
        for name, n in xs.items():
            a.inc(name, n)
        for name, n in ys.items():
            b.inc(name, n)
        a.merge(b)
        for name in set(xs) | set(ys):
            assert a.count(name) == xs.get(name, 0) + ys.get(name, 0)


# ----------------------------------------------------------------------
# Prometheus text exporter
# ----------------------------------------------------------------------


class TestPrometheusExport:
    def test_empty_metrics_export_empty(self):
        from repro.obs.export import prometheus_text

        assert prometheus_text(Metrics()) == ""

    def test_counters_phases_histograms_rendered(self):
        from repro.obs.export import prometheus_text

        m = Metrics()
        m.inc("ring.backward_step", 7)
        m.add_phase("predicates_from_objects", 0.25)
        m.observe("query.seconds", 0.5)
        m.observe("query.seconds", 0.1)
        text = prometheus_text(m)
        assert "# TYPE repro_ring_backward_step_total counter" in text
        assert "repro_ring_backward_step_total 7" in text
        assert ('repro_phase_seconds_total'
                '{phase="predicates_from_objects"} 0.25') in text
        assert "# TYPE repro_query_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_query_seconds_count 2" in text

    def test_histogram_buckets_are_cumulative(self):
        from repro.obs.export import prometheus_text

        m = Metrics()
        for value in (0.0, 0.1, 1.0, 10.0):
            m.observe("lat", value)
        lines = [
            line for line in prometheus_text(m).splitlines()
            if line.startswith("repro_lat_bucket")
        ]
        counts = [float(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 4  # +Inf sees everything

    def test_names_sanitized(self):
        from repro.obs.export import prometheus_text

        m = Metrics()
        m.inc("weird-name.with/chars", 1)
        text = prometheus_text(m)
        assert "repro_weird_name_with_chars_total 1" in text


# ----------------------------------------------------------------------
# Engine operation counters: pruning and bucket invariants
# ----------------------------------------------------------------------


def _assert_bucket_invariants(stats: QueryStats, query) -> None:
    """Every popped wavelet node lands in exactly one bucket, and the
    popped count is the initial descents plus all pushed children."""
    assert stats.lp_nodes + stats.lp_pruned + stats.lp_empty == \
        stats.lp_descents + stats.lp_children, str(query)
    assert stats.ls_nodes + stats.ls_pruned + stats.ls_empty == \
        stats.ls_descents + stats.ls_children, str(query)


class TestEngineCounters:
    def test_pruned_positive_on_selective_query(self, kg_index):
        """A single-predicate closure over a 12-predicate alphabet must
        prune L_p subtrees via the B[v] masks."""
        engine = RingRPQEngine(kg_index, fast_paths=False)
        stats = engine.evaluate("(?x, p0+, ?y)").stats
        assert stats.lp_pruned > 0
        assert stats.lp_nodes > 0
        assert stats.backward_steps > 0
        _assert_bucket_invariants(stats, "(?x, p0+, ?y)")

    def test_no_pruning_when_disabled(self, kg_index):
        engine = RingRPQEngine(kg_index, prune=False, fast_paths=False)
        stats = engine.evaluate("(?x, p0+, ?y)").stats
        assert stats.lp_pruned == 0

    def test_invariants_on_random_queries(self, kg_graph, kg_index):
        rng = random.Random(11)
        engine = RingRPQEngine(kg_index, fast_paths=False)
        for _ in range(15):
            query = random_query(rng, kg_graph)
            stats = engine.evaluate(query, timeout=30).stats
            _assert_bucket_invariants(stats, query)
            counts = stats.operation_counts()
            assert counts["wavelet_nodes"] == \
                stats.lp_nodes + stats.lp_pruned + stats.ls_nodes + \
                stats.ls_pruned
            # two inlined ranks per expanded internal node
            assert counts["rank_ops"] == \
                stats.lp_children + stats.ls_children

    def test_results_identical_with_metrics_enabled(self, kg_index):
        query = "(?x, (p0|p1)+, ?y)"
        plain = kg_index.engine.evaluate(query)
        profiled = kg_index.engine.evaluate(
            query, metrics=Metrics(span_capacity=100)
        )
        assert plain.pairs == profiled.pairs

    def test_per_call_metrics_override_is_restored(self, small_index):
        engine = RingRPQEngine(small_index)
        assert engine.metrics is NULL_METRICS
        m = Metrics()
        engine.evaluate("(?x, p0, ?y)", metrics=m)
        assert engine.metrics is NULL_METRICS
        assert m.count("engine.queries") == 1
        assert "total" in m.phase_seconds

    def test_ring_obs_restored_after_evaluate(self, small_index):
        ring = small_index.ring
        assert ring.obs is NULL_METRICS
        small_index.engine.evaluate("(?x, p0, ?y)", metrics=Metrics())
        assert ring.obs is NULL_METRICS

    def test_query_latency_histograms_recorded(self, kg_index):
        m = Metrics()
        kg_index.engine.evaluate("(?x, p0+, ?y)", metrics=m)
        kg_index.engine.evaluate("(?x, p1, ?y)", metrics=m)
        hist = m.histogram("query.seconds")
        assert hist is not None and hist.count == 2
        assert hist.max >= hist.min > 0
        assert m.histogram("query.results").count == 2
        assert m.histogram("query.backward_steps").count == 2


# ----------------------------------------------------------------------
# Spans through the engine
# ----------------------------------------------------------------------


class TestEngineSpans:
    def test_span_tree_depth_on_vv_query(self, kg_index):
        """Acceptance: engine phase -> wave/round -> ring step gives a
        tree at least 3 levels deep on a batched v-to-v closure."""
        m = Metrics(span_capacity=100_000)
        kg_index.engine.evaluate("(?x, p0/p1*, ?y)", metrics=m)
        spans = m.spans
        assert spans.max_depth() >= 3
        names = {s.name for s in spans.ordered()}
        assert "query" in names
        assert "wave" in names or "step" in names
        roots = [s for s in spans.ordered() if s.depth == 0]
        assert [r.name for r in roots] == ["query"]

    def test_no_spans_without_span_capacity(self, kg_index):
        m = Metrics()
        kg_index.engine.evaluate("(?x, p0+, ?y)", metrics=m)
        assert m.spans is None

    def test_spans_closed_even_on_timeout(self, kg_index):
        m = Metrics(span_capacity=100_000)
        result = kg_index.engine.evaluate(
            "(?x, (p0|p1|p2)+, ?y)", timeout=0.0, metrics=m
        )
        assert result.stats.timed_out
        assert m.spans._open == []
        query_spans = [
            s for s in m.spans.ordered() if s.name == "query"
        ]
        assert len(query_spans) == 1

    def test_chrome_trace_exportable_from_engine_run(self, kg_index,
                                                     tmp_path):
        m = Metrics(span_capacity=100_000)
        kg_index.engine.evaluate("(?x, p0/p1*, ?y)", metrics=m)
        path = tmp_path / "trace.json"
        m.spans.write_chrome_trace(path)
        trace = json.loads(path.read_text())
        assert len(trace["traceEvents"]) == len(m.spans)


# ----------------------------------------------------------------------
# Differential guard: the default path is bit-identical and silent
# ----------------------------------------------------------------------


class TestNullMetricsDifferential:
    def test_default_run_adds_nothing_and_changes_nothing(self, kg_index):
        """With NULL_METRICS (the default), the span/histogram/slow-log
        code paths must contribute zero counters and leave results and
        QueryStats exactly as a fully-telemetered run produces them."""
        queries = [
            "(?x, p0, ?y)", "(?x, p0+, ?y)", "(?x, (p0|p1)+, ?y)",
            "(n0, p0/p1*, ?y)",
        ]
        engine = kg_index.engine
        for query in queries:
            engine.evaluate(query)  # warm the prepare cache
            plain = engine.evaluate(query)
            assert engine.metrics is NULL_METRICS
            assert kg_index.ring.obs is NULL_METRICS
            full = engine.evaluate(
                query, metrics=Metrics(span_capacity=100_000)
            )
            assert plain.pairs == full.pairs, query
            plain_stats = dataclasses.asdict(plain.stats)
            full_stats = dataclasses.asdict(full.stats)
            # wall-clock is the only legitimately different field
            plain_stats.pop("elapsed")
            full_stats.pop("elapsed")
            assert plain_stats == full_stats, query

    def test_null_metrics_untouched_by_engine_run(self, kg_index):
        kg_index.engine.evaluate("(?x, p0+, ?y)")
        n = NULL_METRICS
        assert n.counters == {} and n.phase_seconds == {}
        assert n.histograms == {} and n.spans is None


# ----------------------------------------------------------------------
# The per-phase profile of EXPLAIN ANALYZE
# ----------------------------------------------------------------------


class TestProfileQuery:
    @pytest.mark.parametrize("query,shape", [
        ("(?x, (p0|p1)+, ?y)", "vv"),   # v-to-v
        ("(?x, p0+, n0)", "vc"),        # c-to-v
    ])
    def test_nonzero_consistent_phase_counters(self, kg_index, query,
                                               shape):
        report = explain_analyze(kg_index, query)
        assert report.plan["shape"] == shape
        stats = report.stats
        assert report.record.n_results > 0
        assert stats.lp_nodes > 0 and stats.lp_pruned > 0
        assert stats.backward_steps > 0
        _assert_bucket_invariants(stats, query)
        # the inlined descents account their rank work arithmetically
        assert report.record.counters["rank_ops"] == \
            stats.lp_children + stats.ls_children > 0
        # phase timers measured for the engine phases that ran
        assert report.record.phase_seconds["total"] > 0.0
        phases = report.phases()
        assert set(phases) == set(ENGINE_PHASES)
        assert phases["predicates_from_objects"]["nodes_visited"] == \
            stats.lp_nodes
        assert phases["subjects_from_predicates"]["nodes_pruned"] == \
            stats.ls_pruned

    def test_format_table_and_json(self, kg_index):
        report = explain_analyze(kg_index, "(?x, p0+, ?y)")
        table = report.format()
        for phase in ENGINE_PHASES:
            assert phase in table
        assert "nodes_visited" in table and "object_ranges" in table
        dump = json.loads(report.to_json())
        assert dump["record"]["query"] == "(?x, p0+, ?y)"
        assert dump["record"]["counters"]["backward_steps"] > 0
        assert set(dump["phases"]) == set(ENGINE_PHASES)
        assert dump["phases"]["subjects_to_objects"]["object_ranges"] == \
            dump["record"]["counters"]["object_ranges"]

    def test_accumulating_registry(self, small_index):
        """One registry passed to several evaluations accumulates
        them all."""
        m = Metrics()
        small_index.engine.evaluate("(?x, p0, ?y)", metrics=m)
        small_index.engine.evaluate("(?x, p1, ?y)", metrics=m)
        assert m.count("engine.queries") == 2
        assert m.histogram("query.seconds").count == 2


# ----------------------------------------------------------------------
# _Budget.tick regression
# ----------------------------------------------------------------------


class TestBudgetTick:
    def test_expired_budget_raises_within_one_window(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_TICK_EVERY", 4)
        budget = _Budget(timeout=0.0)
        with pytest.raises(QueryTimeoutError):
            for _ in range(4):
                budget.tick()

    def test_unlimited_budget_never_raises(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_TICK_EVERY", 1)
        budget = _Budget(timeout=None)
        for _ in range(100):
            budget.tick()

    def test_timeout_error_carries_elapsed_and_budget(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_TICK_EVERY", 1)
        budget = _Budget(timeout=0.0)
        with pytest.raises(QueryTimeoutError) as info:
            budget.tick()
        assert info.value.budget == 0.0
        assert info.value.elapsed >= 0.0

    def test_default_cadence_enforces_timeout(self, kg_index):
        """With the *default* ``_TICK_EVERY``, a query whose budget is
        already spent must still notice: the tick throttles compound
        (one tick per 256 pops, one clock read per ``_TICK_EVERY``
        ticks), and an overlarge constant silently disables timeouts
        for every query smaller than the combined window."""
        engine = RingRPQEngine(kg_index, fast_paths=False)
        result = engine.evaluate("(?x, (p0|p1|p2)+, ?y)", timeout=0.0)
        assert result.stats.timed_out

    def test_partial_stats_carry_counters_on_timeout(self, kg_index,
                                                     monkeypatch):
        """An expired evaluation must return (not raise) with
        ``timed_out`` set and the phase counters accumulated up to the
        deadline — the profile of a timed-out query is exactly what one
        needs to see to understand the timeout."""
        monkeypatch.setattr(engine_mod, "_TICK_EVERY", 64)
        engine = RingRPQEngine(kg_index, fast_paths=False)
        result = engine.evaluate("(?x, (p0|p1)+, ?y)", timeout=0.0)
        stats = result.stats
        assert stats.timed_out
        assert not stats.truncated
        counts = stats.operation_counts()
        assert sum(counts.values()) > 0
        _assert_bucket_invariants(stats, "(?x, (p0|p1)+, ?y)")
