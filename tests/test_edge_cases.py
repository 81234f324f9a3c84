"""Edge cases and failure-injection across the stack."""

from __future__ import annotations

import pytest

from repro.core.engine import RingRPQEngine
from repro.errors import (
    QueryTimeoutError,
    RegexSyntaxError,
    ReproError,
    ResultLimitExceeded,
    UnknownSymbolError,
)
from repro.graph.model import Graph
from repro.ring.builder import RingIndex
from repro.ring.ring import BoundaryArray, Ring

import numpy as np


class TestErrors:
    def test_hierarchy(self):
        for exc in (RegexSyntaxError, UnknownSymbolError,
                    QueryTimeoutError, ResultLimitExceeded):
            assert issubclass(exc, ReproError)

    def test_messages(self):
        err = QueryTimeoutError(1.5, 1.0)
        assert "1.5" in str(err)
        assert err.budget == 1.0
        err2 = ResultLimitExceeded(100)
        assert err2.limit == 100
        err3 = UnknownSymbolError("node", "x")
        assert err3.kind == "node"
        err4 = RegexSyntaxError("bad", position=3)
        assert err4.position == 3 and "position 3" in str(err4)


class TestTinyGraphs:
    def test_single_edge(self):
        index = RingIndex.from_triples([("a", "p", "b")])
        assert index.evaluate("(?x, p, ?y)").pairs == {("a", "b")}
        assert index.evaluate("(?x, ^p, ?y)").pairs == {("b", "a")}
        assert index.evaluate("(a, p*, ?y)").pairs == {
            ("a", "a"), ("a", "b")
        }

    def test_self_loop(self):
        index = RingIndex.from_triples([("a", "p", "a")])
        assert index.evaluate("(?x, p+, ?y)").pairs == {("a", "a")}
        assert index.evaluate("(a, p/p/p, a)").pairs == {("a", "a")}

    def test_two_node_cycle_plus(self):
        index = RingIndex.from_triples([
            ("a", "p", "b"), ("b", "p", "a")
        ])
        nodes = {"a", "b"}
        assert index.evaluate("(?x, p+, ?y)").pairs == {
            (x, y) for x in nodes for y in nodes
        }

    def test_disconnected_components(self):
        index = RingIndex.from_triples([
            ("a", "p", "b"), ("c", "p", "d")
        ])
        result = index.evaluate("(?x, p+, ?y)")
        assert result.pairs == {("a", "b"), ("c", "d")}

    def test_multi_predicate_parallel_edges(self):
        index = RingIndex.from_triples([
            ("a", "p", "b"), ("a", "q", "b")
        ])
        assert index.evaluate("(?x, p|q, ?y)").pairs == {("a", "b")}
        assert index.evaluate("(?x, p/^q, ?y)").pairs == {("a", "a")}


class TestDeepRecursion:
    def test_long_chain_star(self):
        from repro.graph.generators import chain_graph

        index = RingIndex.from_graph(chain_graph(300))
        result = index.evaluate("(n0, next+, ?y)")
        assert len(result) == 300

    def test_large_union_automaton(self):
        triples = [(f"a{i}", f"p{i}", f"b{i}") for i in range(24)]
        index = RingIndex.from_graph(Graph(triples))
        expr = "|".join(f"p{i}" for i in range(24))
        result = index.evaluate(f"(?x, {expr}, ?y)")
        assert len(result) == 24
        # m = 24 positions -> chunked tables must still work
        slow = RingRPQEngine(index, fast_paths=False)
        assert slow.evaluate(f"(?x, {expr}, ?y)").pairs == result.pairs

    def test_deep_concat_automaton(self):
        from repro.graph.generators import chain_graph

        index = RingIndex.from_graph(chain_graph(40))
        expr = "/".join(["next"] * 30)
        result = index.evaluate(f"(n0, {expr}, ?y)")
        assert result.pairs == {("n0", "n30")}


class TestBoundaryArray:
    def test_plain_vs_compressed_agree(self):
        values = np.array([0, 0, 3, 3, 7, 10], dtype=np.int64)
        plain = BoundaryArray(values, compressed=False)
        packed = BoundaryArray(values, compressed=True)
        assert len(plain) == len(packed) == 6
        for i in range(6):
            assert plain[i] == packed[i]
        for pos in range(-1, 12):
            assert plain.bracket(pos) == packed.bracket(pos), pos
        assert plain.to_array().tolist() == packed.to_array().tolist()
        assert packed.is_compressed and not plain.is_compressed
        assert plain.fast_list() == values.tolist()
        assert packed.fast_list() is None

    def test_compressed_ring_matches_plain(self):
        triples = [(0, 0, 1), (1, 1, 0), (1, 0, 2), (2, 1, 1)]
        plain = Ring(triples, 3, 2)
        packed = Ring(triples, 3, 2, compressed_boundaries=True)
        assert sorted(plain.iter_triples()) == sorted(packed.iter_triples())
        for o in range(3):
            assert plain.object_range(o) == packed.object_range(o)
        # Every node here is a subject as often as an object, so C_o is
        # L_s's class_cum in both rings; C_p carries the encoding.
        assert packed.measure().find("ring.C_p").detail["form"] \
            == "elias-fano"


class TestObjectBoundaries:
    def test_non_completed_ring_keeps_its_own_c_o(self):
        """Hand-built triples where subject and object counts differ:
        C_o cannot be L_s's class_cum, so the ring keeps (and audits)
        an array of its own, and object ranges follow the objects."""
        triples = [(0, 0, 1), (0, 1, 2), (0, 0, 2), (1, 1, 2)]
        ring = Ring(triples, 3, 2)
        assert ring.C_o._plain is not ring.L_s._class_cum
        by_object = sorted(triples, key=lambda t: (t[2], t[0], t[1]))
        for o in range(3):
            b, e = ring.object_range(o)
            assert [t[2] for t in by_object[b:e]] == [o] * (e - b)
            assert e - b == sum(1 for t in triples if t[2] == o)
            assert sorted(ring.L_p.access(i) for i in range(b, e)) == \
                sorted(t[1] for t in triples if t[2] == o)
        node = ring.measure().find("ring.C_o")
        assert node.detail["form"] == "plain" and node.nbytes > 0
        assert sorted(ring.iter_triples()) == sorted(triples)

    def test_completed_ring_shares_c_o_with_class_cum(self):
        triples = [(0, 0, 1), (1, 1, 0), (1, 0, 2), (2, 1, 1)]
        ring = Ring(triples, 3, 2)
        assert ring.C_o._plain is ring.L_s._class_cum
        assert ring.measure().find("ring.C_o").nbytes == 0
        assert [ring.object_range(o) for o in range(3)] == \
            [(0, 1), (1, 3), (3, 4)]


class TestTimeoutInjection:
    def test_engine_partial_on_timeout(self):
        from repro.graph.generators import chain_graph

        index = RingIndex.from_graph(chain_graph(500))
        result = index.evaluate("(?x, next*, ?y)", timeout=0.005)
        # either finished very fast or flagged; never raises
        assert isinstance(result.pairs, set)
        if result.stats.timed_out:
            assert result.stats.elapsed >= 0.005

    def test_stats_elapsed_monotone(self):
        index = RingIndex.from_triples([("a", "p", "b")])
        r1 = index.evaluate("(?x, p, ?y)")
        assert r1.stats.elapsed >= 0
