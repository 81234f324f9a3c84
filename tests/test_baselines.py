"""Unit tests for the baseline engines against the brute-force oracle."""

from __future__ import annotations

import pytest

from repro.baselines import (
    AlpEngine,
    AlpPlannerEngine,
    EncodedGraph,
    ProductBFSEngine,
    SemiNaiveEngine,
    all_engines,
    make_engine,
)
from repro.baselines.registry import PAPER_NAMES, TABLE2_ENGINES
from repro.bench.space import SYSTEM_MODELS, engine_bytes_per_edge
from repro.errors import ConstructionError
from repro.graph.generators import chain_graph, random_graph
from repro.graph.model import Graph
from repro.ring.builder import RingIndex
from repro.testing import brute_force_rpq

ENGINE_CLASSES = [
    ProductBFSEngine, AlpEngine, AlpPlannerEngine, SemiNaiveEngine
]

QUERIES = [
    "(?x, p0, ?y)",
    "(?x, ^p0, ?y)",
    "(?x, p0/p1, ?y)",
    "(?x, p0|p1, ?y)",
    "(?x, p0*, ?y)",
    "(?x, p0+, ?y)",
    "(?x, p0?, ?y)",
    "(?x, p0/p1*, ?y)",
    "(?x, (p0|p1)+, ?y)",
    "(?x, !(p0), ?y)",
    "(?x, !(^p1), ?y)",
    "(n1, p0*, ?y)",
    "(?x, p0+, n2)",
    "(n0, p0/p1, n3)",
    "(n5, p1*, n5)",
]


@pytest.fixture(scope="module")
def setup():
    graph = random_graph(n_nodes=12, n_edges=36, n_predicates=2, seed=21)
    index = RingIndex.from_graph(graph)
    encoded = EncodedGraph.from_index(index)
    return graph, graph.completion(), encoded


@pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
@pytest.mark.parametrize("query", QUERIES)
def test_engine_matches_oracle(setup, engine_cls, query):
    graph, completed, encoded = setup
    engine = engine_cls(encoded)
    expected = brute_force_rpq(graph, query, completed)
    got = engine.evaluate(query, timeout=30).pairs
    assert got == expected, (engine_cls.__name__, query)


@pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
def test_unknown_constant_is_empty(setup, engine_cls):
    _, _, encoded = setup
    engine = engine_cls(encoded)
    assert not engine.evaluate("(ghost, p0, ?y)")


@pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
def test_limit_truncates(setup, engine_cls):
    _, _, encoded = setup
    engine = engine_cls(encoded)
    result = engine.evaluate("(?x, (p0|p1)*, ?y)", limit=5)
    assert len(result) <= 5
    assert result.stats.truncated or len(result) < 5


@pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
def test_timeout_flag(setup, engine_cls):
    _, _, encoded = setup
    engine = engine_cls(encoded)
    result = engine.evaluate("(?x, (p0|p1)*, ?y)", timeout=0.0)
    assert result.stats.timed_out or len(result) >= 0


class TestEncodedGraph:
    def test_from_index_roundtrip(self, setup):
        graph, completed, encoded = setup
        decoded = {
            encoded.dictionary.decode_triple(t) for t in encoded.triples
        }
        assert decoded == set(completed)

    def test_targets_probe(self, setup):
        _, completed, encoded = setup
        d = encoded.dictionary
        s, p, o = encoded.triples[0]
        assert o in encoded.targets(s, p)
        assert encoded.targets(s, 10**6 % encoded.num_predicates) == \
            encoded.targets(s, 10**6 % encoded.num_predicates)

    def test_predicate_count(self, setup):
        _, completed, encoded = setup
        total = sum(
            encoded.predicate_count(p)
            for p in range(encoded.num_predicates)
        )
        assert total == len(encoded.triples)

    def test_size_in_bits(self):
        # The adjacency reports no size of its own: Table 2 prices each
        # baseline by its system's documented storage model.
        index = RingIndex.from_graph(chain_graph(3))
        for name, model in SYSTEM_MODELS.items():
            assert engine_bytes_per_edge(name, index) \
                == model.bytes_per_edge() > 0


class TestRegistry:
    def test_all_engines_line_up(self):
        index = RingIndex.from_graph(chain_graph(3))
        engines = all_engines(index)
        assert tuple(engines) == TABLE2_ENGINES
        for name in TABLE2_ENGINES:
            assert name in PAPER_NAMES

    def test_make_engine_unknown(self):
        index = RingIndex.from_graph(chain_graph(3))
        with pytest.raises(ConstructionError):
            make_engine("nope", index)

    def test_engines_share_answers(self):
        graph = Graph([("a", "p", "b"), ("b", "p", "c")])
        index = RingIndex.from_graph(graph)
        engines = all_engines(index, TABLE2_ENGINES + ("product-bfs",))
        answers = {
            name: engine.evaluate("(?x, p+, ?y)").pairs
            for name, engine in engines.items()
        }
        reference = answers["ring"]
        assert reference == {("a", "b"), ("a", "c"), ("b", "c")}
        assert all(a == reference for a in answers.values())
