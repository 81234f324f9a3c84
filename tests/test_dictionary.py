"""Tests for the node/predicate dictionary."""

from __future__ import annotations

import pytest

from repro.errors import ConstructionError, UnknownSymbolError
from repro.graph.model import Graph
from repro.ring.dictionary import Dictionary


def simple_graph() -> Graph:
    return Graph([("a", "p", "b"), ("b", "q", "c")])


class TestFromGraph:
    def test_basic_layout(self):
        d = Dictionary.from_graph(simple_graph())
        assert d.num_nodes == 3
        # originals then inverses
        assert d.predicate_labels == ("p", "q", "^p", "^q")
        assert d.inverse_predicate(d.predicate_id("p")) == \
            d.predicate_id("^p")
        assert d.inverse_predicate(d.predicate_id("^q")) == \
            d.predicate_id("q")

    def test_symmetric_self_inverse(self):
        g = Graph([("a", "l", "b")], symmetric_predicates=("l",))
        d = Dictionary.from_graph(g)
        assert d.predicate_labels == ("l",)
        assert d.inverse_predicate(0) == 0

    def test_custom_orders(self):
        d = Dictionary.from_graph(
            simple_graph(),
            node_order=["c", "a", "b"],
            predicate_order=["q", "p"],
        )
        assert d.node_label(0) == "c"
        assert d.predicate_labels[:2] == ("q", "p")

    def test_node_order_must_cover(self):
        with pytest.raises(ConstructionError):
            Dictionary.from_graph(simple_graph(), node_order=["a", "b"])

    def test_predicate_order_must_match(self):
        with pytest.raises(ConstructionError):
            Dictionary.from_graph(
                simple_graph(), predicate_order=["p", "zz"]
            )


class TestLookup:
    def test_roundtrip(self):
        d = Dictionary.from_graph(simple_graph())
        for node in ("a", "b", "c"):
            assert d.node_label(d.node_id(node)) == node
        for pred in d.predicate_labels:
            assert d.predicate_label(d.predicate_id(pred)) == pred

    def test_unknown_raises(self):
        d = Dictionary.from_graph(simple_graph())
        with pytest.raises(UnknownSymbolError):
            d.node_id("zz")
        with pytest.raises(UnknownSymbolError):
            d.predicate_id("zz")

    def test_has(self):
        d = Dictionary.from_graph(simple_graph())
        assert d.has_node("a") and not d.has_node("zz")
        assert d.has_predicate("^p") and not d.has_predicate("^zz")

    def test_encode_decode_triples(self):
        g = simple_graph()
        comp = g.completion()
        d = Dictionary.from_graph(g)
        encoded = d.encode_triples(comp)
        decoded = {d.decode_triple(t) for t in encoded}
        assert decoded == set(comp)

    def test_involution_validated(self):
        with pytest.raises(ConstructionError):
            Dictionary(["a"], ["p", "^p"], [1, 1])  # not an involution
        with pytest.raises(ConstructionError):
            Dictionary(["a"], ["p", "^p"], [0, 5])  # out of range
        with pytest.raises(ConstructionError):
            Dictionary(["a"], ["p", "^p"], [0])  # wrong length
        # self-inverse everywhere is a legal involution
        Dictionary(["a"], ["p", "q"], [0, 1])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConstructionError):
            Dictionary(["a", "a"], ["p"], [0])

    def test_size_in_bits(self):
        d = Dictionary.from_graph(simple_graph())
        assert d.measure().nbytes > 0
