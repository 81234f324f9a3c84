"""Unit tests for the Ring-RPQ engine (shapes, flags, budgets)."""

from __future__ import annotations

import pytest

from repro.core.engine import RingRPQEngine
from repro.core.planner import choose_anchor_side
from repro.automata.glushkov import build_glushkov
from repro.automata.parser import parse_regex
from repro.graph.generators import chain_graph, cycle_graph
from repro.graph.model import Graph
from repro.ring.builder import RingIndex


@pytest.fixture(scope="module")
def chain_index():
    return RingIndex.from_graph(chain_graph(6))


@pytest.fixture(scope="module")
def cycle_index():
    return RingIndex.from_graph(cycle_graph(4))


class TestShapes:
    def test_variable_to_constant(self, chain_index):
        result = chain_index.evaluate("(?x, next+, n3)")
        assert result.pairs == {(f"n{i}", "n3") for i in range(3)}

    def test_constant_to_variable(self, chain_index):
        result = chain_index.evaluate("(n2, next+, ?y)")
        assert result.pairs == {("n2", f"n{i}") for i in range(3, 7)}

    def test_boolean_true_false(self, chain_index):
        assert chain_index.evaluate("(n0, next+, n6)")
        assert not chain_index.evaluate("(n6, next+, n0)")

    def test_boolean_inverse(self, chain_index):
        assert chain_index.evaluate("(n6, ^next+, n0)")

    def test_var_var(self, chain_index):
        result = chain_index.evaluate("(?x, next/next, ?y)")
        assert result.pairs == {(f"n{i}", f"n{i + 2}") for i in range(5)}

    def test_star_includes_zero_length(self, chain_index):
        result = chain_index.evaluate("(n1, next*, ?y)")
        assert ("n1", "n1") in result.pairs
        assert ("n1", "n6") in result.pairs

    def test_star_var_var_diagonal(self, chain_index):
        result = chain_index.evaluate("(?x, next*, ?y)")
        for i in range(7):
            assert (f"n{i}", f"n{i}") in result.pairs

    def test_nullable_boolean_same_node(self, chain_index):
        assert chain_index.evaluate("(n2, next*, n2)")
        assert not chain_index.evaluate("(n2, next+, n2)")

    def test_cycle_plus_self_pairs(self, cycle_index):
        result = cycle_index.evaluate("(?x, next+, ?y)")
        # every node reaches every node (including itself) on a cycle
        nodes = {f"n{i}" for i in range(4)}
        assert result.pairs == {(a, b) for a in nodes for b in nodes}

    def test_unknown_constants_empty(self, chain_index):
        assert not chain_index.evaluate("(ghost, next, ?y)")
        assert not chain_index.evaluate("(?x, next, ghost)")
        assert not chain_index.evaluate("(ghost, next, ghost)")

    def test_unknown_predicate_empty(self, chain_index):
        assert not chain_index.evaluate("(?x, nope, ?y)")
        # ... but a nullable expression over it still yields (v, v)
        result = chain_index.evaluate("(n0, nope*, ?y)")
        assert result.pairs == {("n0", "n0")}


class TestBudgets:
    def test_limit_truncates(self, chain_index):
        result = chain_index.evaluate("(?x, next*, ?y)", limit=3)
        assert len(result) == 3
        assert result.stats.truncated

    def test_limit_on_anchored(self, chain_index):
        result = chain_index.evaluate("(?x, next*, n6)", limit=2)
        assert len(result) <= 2
        assert result.stats.truncated

    def test_zero_timeout(self, chain_index):
        # An expired budget must return gracefully with the flag set.
        result = chain_index.evaluate("(?x, next*, ?y)", timeout=0.0)
        assert result.stats.timed_out or len(result) > 0

    def test_stats_populated(self, chain_index):
        result = chain_index.evaluate("(?x, next+, n5)")
        stats = result.stats
        assert stats.nfa_states >= 2
        assert stats.product_nodes > 0
        assert stats.product_edges > 0
        assert stats.wavelet_nodes > 0
        assert stats.storage_ops > 0
        assert stats.elapsed >= 0


class TestFlags:
    @pytest.fixture(scope="class")
    def graph(self):
        return Graph([
            ("a", "p", "b"), ("b", "p", "c"), ("b", "q", "d"),
            ("d", "p", "a"), ("c", "q", "a"), ("a", "q", "d"),
        ])

    @pytest.fixture(scope="class")
    def idx(self, graph):
        return RingIndex.from_graph(graph)

    QUERIES = [
        "(?x, p, ?y)",
        "(?x, ^q, ?y)",
        "(?x, p|q, ?y)",
        "(?x, p/q, ?y)",
        "(?x, p/^q, ?y)",
        "(?x, p+, ?y)",
        "(?x, (p|q)*, b)",
        "(a, p*/q, ?y)",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_fast_paths_match_generic(self, idx, query):
        fast = RingRPQEngine(idx, fast_paths=True)
        slow = RingRPQEngine(idx, fast_paths=False)
        assert fast.evaluate(query).pairs == slow.evaluate(query).pairs

    @pytest.mark.parametrize("query", QUERIES)
    def test_prune_off_matches(self, idx, query):
        pruned = RingRPQEngine(idx, prune=True)
        unpruned = RingRPQEngine(idx, prune=False)
        assert pruned.evaluate(query).pairs == unpruned.evaluate(query).pairs

    @pytest.mark.parametrize("query", QUERIES)
    def test_planner_off_matches(self, idx, query):
        planned = RingRPQEngine(idx, use_planner=True)
        unplanned = RingRPQEngine(idx, use_planner=False)
        assert planned.evaluate(query).pairs == \
            unplanned.evaluate(query).pairs

    def test_boolean_planner_side_choice(self, idx):
        # fixed-fixed queries must agree regardless of anchor side
        for query in ["(a, p+, c)", "(a, q/p, c)", "(d, p*, b)"]:
            planned = RingRPQEngine(idx, use_planner=True)
            unplanned = RingRPQEngine(idx, use_planner=False)
            assert planned.evaluate(query).pairs == \
                unplanned.evaluate(query).pairs, query

    def test_prune_visits_fewer_wavelet_nodes(self, idx):
        pruned = RingRPQEngine(idx, prune=True, fast_paths=False)
        unpruned = RingRPQEngine(idx, prune=False, fast_paths=False)
        query = "(?x, p+, b)"
        assert (
            pruned.evaluate(query).stats.wavelet_nodes
            <= unpruned.evaluate(query).stats.wavelet_nodes
        )


class TestExplain:
    def test_shapes(self, chain_index):
        engine = chain_index.engine
        assert engine.explain("(?x, next+, n3)")["strategy"].startswith(
            "backward run of E"
        )
        assert engine.explain("(n0, next+, ?y)")["strategy"].startswith(
            "backward run of ^E"
        )
        assert "early exit" in engine.explain("(n0, next+, n3)")["strategy"]

    def test_fast_path_detection(self, chain_index):
        engine = chain_index.engine
        assert "single-predicate" in \
            engine.explain("(?x, next, ?y)")["strategy"]
        assert "range intersection" in \
            engine.explain("(?x, next/next, ?y)")["strategy"]

    def test_vv_anchor_side(self, chain_index):
        plan = chain_index.engine.explain("(?x, next+, ?y)")
        assert plan["anchor_side"] in ("subject", "object")
        assert plan["nfa_states"] == 2
        assert plan["b_predicates"] == ["next"]
        assert not plan["nullable"]


class TestPlanner:
    def test_prefers_rare_first_predicate(self):
        # p1 has 1 edge, p2 has many: (?x, p1/p2*, ?y) should anchor the
        # subject side (start from p1), as §5 prescribes.
        triples = [("s", "p1", "m")] + [
            (f"m{i}", "p2", f"m{i + 1}") for i in range(10)
        ]
        index = RingIndex.from_graph(Graph(triples))
        automaton = build_glushkov(parse_regex("p1/p2*"))
        side = choose_anchor_side(
            automaton, index.dictionary, index.ring
        )
        assert side == "subject"

    def test_prefers_rare_last_predicate(self):
        triples = [("m", "p1", "s")] + [
            (f"m{i}", "p2", f"m{i + 1}") for i in range(10)
        ]
        index = RingIndex.from_graph(Graph(triples))
        automaton = build_glushkov(parse_regex("p2*/p1"))
        side = choose_anchor_side(
            automaton, index.dictionary, index.ring
        )
        assert side == "object"
