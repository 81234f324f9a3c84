"""Tests for EXPLAIN / EXPLAIN ANALYZE: plans, estimates, CLI."""

from __future__ import annotations

import json

import pytest

from repro.core.engine import RingRPQEngine
from repro.core.planner import estimate_rpq_cost
from repro.cli import main
from repro.obs.explain import explain_analyze, format_plan, plan_dict
from repro.obs.slowlog import SlowQueryLog


class TestEstimate:
    def test_counts_positive_and_priced(self, kg_index):
        est = estimate_rpq_cost(kg_index, "(?x, p0/p1*, ?y)")
        assert est.shape == "vv"
        assert est.edges > 0
        assert est.touched_nodes <= kg_index.ring.num_nodes
        assert est.lp_nodes > 0 and est.ls_nodes > 0
        assert est.storage_ops == 2 * (est.lp_nodes + est.ls_nodes)
        assert est.modeled_seconds > 0
        assert set(est.counts()) == {
            "lp_nodes", "ls_nodes", "backward_steps", "storage_ops"
        }

    def test_vv_doubles_anchored_work(self, kg_index):
        anchored = estimate_rpq_cost(kg_index, "(n0, p0/p1*, ?y)")
        vv = estimate_rpq_cost(kg_index, "(?x, p0/p1*, ?y)")
        assert vv.lp_nodes == 2 * anchored.lp_nodes
        assert vv.backward_steps == 2 * anchored.backward_steps

    def test_unknown_predicate_has_floor_estimates(self, kg_index):
        est = estimate_rpq_cost(kg_index, "(?x, nosuchpred, ?y)")
        assert est.edges == 0
        assert est.backward_steps >= 1
        assert est.storage_ops > 0


class TestPlan:
    def test_plan_dict_sections(self, kg_index):
        plan = plan_dict(kg_index, "(?x, p0/p1*, ?y)")
        assert plan["shape"] == "vv"
        assert "strategy" in plan
        auto = plan["automaton"]
        assert auto["num_states"] == 3
        assert len(auto["transitions"]) == 3
        assert set(plan["b_table"]) == {"p0", "p1"}
        assert plan["estimate"]["storage_ops"] > 0

    def test_format_plan_renders_all_sections(self, kg_index):
        text = format_plan(kg_index, "(?x, p0/p1*, ?y)")
        assert "Glushkov automaton: 3 states" in text
        assert "B table" in text
        assert "cost-model estimates" in text
        assert "-->" in text

    def test_plan_json_serialisable(self, kg_index):
        json.dumps(plan_dict(kg_index, "(n0, p0+, ?y)"))


class TestAnalyze:
    @pytest.fixture(scope="class")
    def report(self, kg_index):
        return explain_analyze(kg_index, "(?x, p0/p1*, ?y)")

    def test_comparison_rows_pair_estimates_with_actuals(self, report):
        rows = report.comparison()
        phases = {row["phase"] for row in rows}
        assert "predicates_from_objects" in phases
        assert "subjects_from_predicates" in phases
        by_metric = {
            (r["phase"], r["metric"]): r for r in rows
        }
        lp = by_metric[("predicates_from_objects", "nodes_visited")]
        assert lp["estimated"] > 0 and lp["actual"] > 0
        assert lp["ratio"] == pytest.approx(
            lp["estimated"] / lp["actual"]
        )
        pruned = by_metric[("predicates_from_objects", "nodes_pruned")]
        assert pruned["estimated"] is None and pruned["ratio"] is None

    def test_misestimation_ratio(self, report):
        ratio = report.misestimation()
        assert ratio is not None and ratio > 0

    def test_span_tree_depth(self, report):
        """Acceptance: the captured span tree is >= 3 levels deep
        (engine phase -> wave/round -> ring step)."""
        assert report.metrics.spans.max_depth() >= 3

    def test_format_contains_table_and_tree(self, report):
        text = report.format()
        assert "ANALYZE:" in text
        assert "est/actual" in text
        assert "misestimation" in text
        assert "span tree" in text

    def test_to_dict_serialisable(self, report):
        dump = json.loads(report.to_json())
        record = dump["record"]
        assert record["query_id"].startswith("explain-")
        assert record["counters"]["backward_steps"] > 0
        assert record["span_tree"][0]["name"] == "query"
        assert dump["comparison"]
        assert "_text" not in dump["plan"]

    def test_analyze_record_is_the_slow_log_record(self, kg_index):
        """The report's ``record`` is what a one-slot slow log on the
        same engine keeps for the same run: the same keys and counters
        — every value but the wall-clock ``ts``, in fact."""
        slow_log = SlowQueryLog(capacity=1)
        engine = RingRPQEngine(kg_index, slow_log=slow_log)
        report = explain_analyze(kg_index, "(?x, p0/p1*, ?y)",
                                 engine=engine)
        (entry,) = slow_log.to_dict()["entries"]
        record = report.to_dict()["record"]
        assert set(record) == set(entry)
        assert record["counters"] == entry["counters"]
        assert record["counters"]["backward_steps"] > 0
        record.pop("ts")
        entry.pop("ts")
        assert record == entry

    def test_write_chrome_trace(self, report, tmp_path):
        path = tmp_path / "trace.json"
        report.write_chrome_trace(path)
        trace = json.loads(path.read_text())
        assert len(trace["traceEvents"]) == len(report.metrics.spans)
        assert all(e["ph"] == "X" for e in trace["traceEvents"])


class TestCli:
    @pytest.fixture()
    def graph_file(self, tmp_path, kg_graph):
        from repro.graph.io import save_graph

        path = tmp_path / "kg.nt"
        save_graph(kg_graph, path)
        return str(path)

    def test_explain_plain(self, graph_file, capsys):
        rc = main(["explain", graph_file, "(?x, p0/p1*, ?y)"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "strategy" in out and "cost-model estimates" in out
        assert "ANALYZE" not in out

    def test_explain_json(self, graph_file, capsys):
        rc = main(["explain", graph_file, "(?x, p0, ?y)", "--json"])
        assert rc == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["estimate"]["edges"] > 0

    def test_explain_analyze(self, graph_file, capsys):
        rc = main([
            "explain", graph_file, "(?x, p0/p1*, ?y)", "--analyze",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ANALYZE:" in out and "est/actual" in out

    def test_explain_trace_implies_analyze(self, graph_file, tmp_path,
                                           capsys):
        trace_path = tmp_path / "trace.json"
        rc = main([
            "explain", graph_file, "(?x, p0+, ?y)",
            "--trace", str(trace_path),
        ])
        assert rc == 0
        assert "ANALYZE:" in capsys.readouterr().out
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
