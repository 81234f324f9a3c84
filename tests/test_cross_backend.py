"""Corpus replay through the cross-backend differential harness.

Every corpus case — the paper's examples, the generated pattern set,
and any hypothesis-shrunk regressions saved under ``tests/corpus/`` —
runs through the ring engine, the sparse-matrix engine, the cost-model
router and the naive product-BFS baseline, asserting the full harness
contract: oracle equivalence, limit-boundary truncation, and budget
tagging (see ``tests/harness.py``).
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

pytest.importorskip(
    "scipy", reason="the matrix/routed harness backends need scipy",
    exc_type=ImportError,
)

from tests.harness import build_engines, check_query, iter_corpus
from repro.baselines.registry import make_engine
from repro.bench.context import tiny_context
from repro.graph.generators import random_graph
from repro.matrix.routed import MISROUTE_FLOOR_SECONDS, MISROUTE_MARGIN
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
    """EXPLAIN ANALYZE through the router names the chosen backend and
    pairs its predicted seconds with the measured run."""
    graph = random_graph(n_nodes=60, n_edges=240, n_predicates=5, seed=2)
    index = RingIndex.from_graph(graph)
    routed = make_engine("routed", index)
    for query in ("(?x, p1/p2*, ?y)", "(n1, (p0|p3)+, ?y)"):
        report = explain_analyze(index, query, timeout=30, engine=routed)
        routing = report.routing()
        assert routing is not None
        assert routing["backend"] in ("ring", "matrix")
        # The chosen backend is the one that actually ran.
        assert report.stats.backend == routing["backend"]
        assert report.record.backend == routing["backend"]
        assert routing["predicted_seconds"] > 0
        assert routing["actual_seconds"] == report.record.elapsed
        # Both sides of the est-vs-actual comparison surface in the
        # rendered report too.
        text = report.format()
        assert "routing: chose" in text
        assert "est/actual" in text
        as_dict = report.to_dict()
        assert as_dict["routing"]["backend"] == routing["backend"]
        assert as_dict["record"]["backend"] == routing["backend"]


#: ``(backend, ring_seconds, matrix_seconds)`` of three
#: ``generated_patterns.json`` queries priced on ``tiny_context()``'s
#: index, recorded while the estimates still lived in
#: ``repro.bench.costmodel``: moving them must change no arithmetic.
_RECORDED_CHOICES = {
    "(?x, ((p0|p1)+/p2)*, ?y)":
        ("matrix", 0.014000000000000002, 0.006021608),
    "(n0, p0/p1*, ?y)": ("ring", 5.880000000000001e-05, 0.00302198),
    "(?x, ^!(p2), ?y)": ("matrix", 0.0308, 0.0029432),
}


def test_router_splits_the_log_by_shape():
    """Both-variable queries go to the matrix, anchored ones to the
    ring (the split docs/backends.md states), one memoised decision per
    (expression, shape), discredited only by a latency past both the
    floor and the margin."""
    context = tiny_context()
    routed = make_engine("routed", context.index)
    split = Counter(
        (query.shape() == "vv", routed.backend_for(query))
        for query in context.queries
    )
    assert split == {(True, "matrix"): 8, (False, "ring"): 33}

    for query, (backend, ring_s, matrix_s) in _RECORDED_CHOICES.items():
        choice = routed.choice_for(query)
        assert choice.backend == backend
        assert choice.ring_seconds == pytest.approx(ring_s, rel=1e-12)
        assert choice.matrix_seconds == pytest.approx(matrix_s, rel=1e-12)

    choice = routed.choice_for("(n0, p0/p1*, ?y)")
    assert routed.choice_for("(n7, p0/p1*, ?y)") is choice
    assert routed.choice_for("(?x, p0/p1*, n0)") is not choice

    # A misroute is past the floor *and* past the margin.  500x the
    # prediction but under the floor is scheduler noise.
    fast = dataclasses.replace(choice, backend="ring", ring_seconds=1e-4)
    assert not fast.is_misroute(MISROUTE_FLOOR_SECONDS)
    assert fast.is_misroute(MISROUTE_FLOOR_SECONDS * 1.01)
    slow = dataclasses.replace(choice, backend="matrix", matrix_seconds=0.1)
    assert not slow.is_misroute(MISROUTE_MARGIN * 0.1 * 0.99)
    assert slow.is_misroute(MISROUTE_MARGIN * 0.1 * 1.01)


def test_matrix_explain_lists_step_matrices():
    graph = random_graph(n_nodes=30, n_edges=90, n_predicates=4, seed=5)
    index = RingIndex.from_graph(graph)
    matrix = make_engine("matrix", index)
    plan = matrix.explain("(?x, p0/p1*, ?y)")
    assert plan["shape"] == "vv"
    assert plan["nfa_states"] == 3
    assert set(plan["step_matrix_nnz"]) <= {1, 2}
    assert all(nnz > 0 for nnz in plan["step_matrix_nnz"].values())
