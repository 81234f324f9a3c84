"""Corpus replay through the cross-backend differential harness.

Every corpus case — the paper's examples, the generated pattern set,
and any hypothesis-shrunk regressions saved under ``tests/corpus/`` —
runs through the ring engine, the sparse-matrix engine, the shape
router and the naive product-BFS baseline, asserting the full harness
contract: oracle equivalence, limit-boundary truncation, and budget
tagging (see ``tests/harness.py``).
"""

from __future__ import annotations

from collections import Counter

import pytest

pytest.importorskip(
    "scipy", reason="the matrix/routed harness backends need scipy",
    exc_type=ImportError,
)

from tests.harness import build_engines, check_query, iter_corpus
from repro.baselines.registry import make_engine
from repro.bench.context import tiny_context
from repro.graph.generators import random_graph, wikidata_like
from repro.obs.explain import explain_analyze
from repro.ring.builder import RingIndex

_CASES = [
    pytest.param(graph, query, id=f"{name}:{query}")
    for name, graph, queries in iter_corpus()
    for query in queries
]

# Engines are rebuilt per corpus *graph*, not per query; cache by the
# graph object (corpus iteration yields one Graph per file).
_ENGINE_CACHE: dict = {}


def _engines_for(graph):
    key = id(graph)
    if key not in _ENGINE_CACHE:
        _ENGINE_CACHE[key] = (
            build_engines(RingIndex.from_graph(graph)),
            graph.completion(),
        )
    return _ENGINE_CACHE[key]


@pytest.mark.parametrize("graph, query", _CASES)
def test_corpus_case(graph, query):
    engines, completed = _engines_for(graph)
    check_query(
        graph, query, engines=engines, completed=completed,
        context="corpus",
    )


def test_corpus_not_empty():
    """The harness must actually be exercising something."""
    assert len(_CASES) >= 10


def test_routed_explain_analyze_reports_backend():
    """EXPLAIN ANALYZE through the router names the backend the
    query's shape picks, in the plan and in the record of the run."""
    graph = random_graph(n_nodes=60, n_edges=240, n_predicates=5, seed=2)
    index = RingIndex.from_graph(graph)
    routed = make_engine("routed", index)
    for query, backend in (("(?x, p1/p2*, ?y)", "matrix"),
                           ("(n1, (p0|p3)+, ?y)", "ring")):
        report = explain_analyze(index, query, timeout=30, engine=routed)
        assert report.plan["backend"] == backend
        # The backend the plan names is the one that actually ran.
        assert report.stats.backend == backend
        assert report.record.backend == backend
        text = report.format()
        assert f"backend  : {backend} (" in text
        assert f" via {backend} (" in text
        assert "routing" not in text
        as_dict = report.to_dict()
        assert "routing" not in as_dict
        assert as_dict["plan"]["backend"] == backend
        assert as_dict["record"]["backend"] == backend


def test_router_sends_both_variable_queries_to_the_matrix():
    """Shapes a per-query cost model sent to the ring run on the
    matrix, which answers them with the ring's pairs."""
    index = RingIndex.from_graph(wikidata_like(300, 1500, 12, seed=0))
    routed = make_engine("routed", index)
    ring = make_engine("ring", index)
    for query in ("(?x, p2*, ?y)", "(?x, ^p2, ?y)"):
        assert routed.backend_for(query) == "matrix", query
        result = routed.evaluate(query, timeout=60)
        assert result.stats.backend == "matrix", query
        assert result.pairs == ring.evaluate(query, timeout=60).pairs


def test_router_splits_the_log_by_shape():
    """On the Table 1 log, both-variable queries run on the matrix and
    every anchored one on the ring, with the ring engine's pairs."""
    context = tiny_context()
    routed = make_engine("routed", context.index)
    ring = make_engine("ring", context.index)
    split = Counter()
    for query in context.queries:
        backend = "matrix" if query.shape() == "vv" else "ring"
        assert routed.backend_for(query) == backend, str(query)
        result = routed.evaluate(query, timeout=60)
        assert result.stats.backend == backend, str(query)
        assert result.pairs == ring.evaluate(query, timeout=60).pairs
        split[backend] += 1
    assert split == {"matrix": 8, "ring": 33}


def test_matrix_explain_lists_step_matrices():
    graph = random_graph(n_nodes=30, n_edges=90, n_predicates=4, seed=5)
    index = RingIndex.from_graph(graph)
    matrix = make_engine("matrix", index)
    plan = matrix.explain("(?x, p0/p1*, ?y)")
    assert plan["shape"] == "vv"
    assert plan["nfa_states"] == 3
    assert set(plan["step_matrix_nnz"]) <= {1, 2}
    assert all(nnz > 0 for nnz in plan["step_matrix_nnz"].values())
