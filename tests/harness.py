"""Cross-backend differential harness.

One place encodes what "two RPQ backends agree" means, so every suite
(corpus replay, hypothesis properties, metamorphic identities) asserts
the same contract:

* **equivalence** — on an unbounded run, every backend returns exactly
  the brute-force product-graph oracle's pair set, with no flags;
* **limit boundaries** — at ``limit == 0``, exactly at ``limit ==
  |answers|``, one above, and strictly below, every backend's
  truncation flag and pair set obey the engine contract (a truncated
  set is a subset of the full answers, never larger than the cap;
  fixed-fixed queries never truncate at positive caps);
* **budget tagging** — under a zero timeout or a pre-tripped cancel
  token, a backend either finishes (complete, exact answers) or
  returns a flagged partial that is a subset of the full answers.

The harness also owns the on-disk regression corpus format
(``tests/corpus/*.json``): a graph (triples + symmetric predicates)
plus one or more queries.  Hypothesis failures are saved through
:func:`save_corpus_case` under a stable per-test name, so shrinking
overwrites the file and the minimal counterexample is what lands in
the repo.
"""

from __future__ import annotations

import inspect
import json
import threading
from pathlib import Path

from repro.baselines.base import EncodedGraph
from repro.baselines.product_bfs import ProductBFSEngine
from repro.core.engine import RingRPQEngine
from repro.core.query import as_query
from repro.graph.model import Graph
from repro.matrix import MatrixRPQEngine, RoutedRPQEngine
from repro.ring.builder import RingIndex
from repro.testing import brute_force_rpq

CORPUS_DIR = Path(__file__).parent / "corpus"

#: The harness line-up: the paper's engine, the sparse-matrix backend,
#: the shape router, and the classical naive baseline.
BACKENDS = ("ring", "matrix", "routed", "product-bfs")


def build_engines(index, names=BACKENDS) -> dict:
    """The harness backends over one shared index."""
    engines = {}
    for name in names:
        if name == "ring":
            engines[name] = RingRPQEngine(index)
        elif name == "matrix":
            engines[name] = MatrixRPQEngine(index)
        elif name == "routed":
            engines[name] = RoutedRPQEngine(index)
        elif name == "product-bfs":
            engines[name] = ProductBFSEngine(EncodedGraph.from_index(index))
        else:
            raise ValueError(f"unknown harness backend {name!r}")
    return engines


def _evaluate(engine, query, **kwargs):
    """Call ``engine.evaluate`` with only the kwargs it supports
    (the naive baseline predates ``cancel``/``forbidden_nodes``)."""
    params = inspect.signature(engine.evaluate).parameters
    kwargs = {k: v for k, v in kwargs.items() if k in params}
    return engine.evaluate(query, **kwargs)


def supports_cancel(engine) -> bool:
    return "cancel" in inspect.signature(engine.evaluate).parameters


# ----------------------------------------------------------------------
# The contract checks
# ----------------------------------------------------------------------


def check_equivalence(engines: dict, query, oracle: set,
                      context: str = "") -> None:
    """Unbounded run: exact oracle agreement, clean flags."""
    for name, engine in engines.items():
        result = _evaluate(engine, query, timeout=60)
        stats = result.stats
        assert not (stats.timed_out or stats.truncated or stats.cancelled), (
            context, name, str(query), "flags on unbounded run",
        )
        assert result.pairs == oracle, (
            context, name, str(query),
            sorted(result.pairs ^ oracle)[:5],
        )


def check_limit_boundaries(engines: dict, query, oracle: set,
                           context: str = "") -> None:
    """The truncation contract at and around the cap.

    ``limit == 0``: empty and truncated, for every backend and shape.
    Fixed-fixed queries never truncate at positive caps (their only
    possible answer cannot be cut).  Otherwise: one past the answer
    count must be complete and untagged; at or below the count the
    backend must return a subset no larger than the cap, and an
    untagged result must be the complete answer set.
    """
    shape = as_query(query).shape()
    n = len(oracle)
    probes = sorted({0, 1, max(1, n // 2), n, n + 1})
    for name, engine in engines.items():
        for limit in probes:
            result = _evaluate(engine, query, timeout=60, limit=limit)
            stats = result.stats
            where = (context, name, str(query), f"limit={limit}", f"n={n}")
            if limit == 0:
                assert stats.truncated and not result.pairs, where
                continue
            if shape == "cc":
                assert result.pairs == oracle, where
                assert not stats.truncated, where
                continue
            assert result.pairs <= oracle, where
            assert len(result.pairs) <= limit, where
            if limit > n:
                assert result.pairs == oracle, where
                assert not stats.truncated, where
            elif not stats.truncated:
                # A backend may stop exactly at the boundary either
                # tagged (it cannot know the set was complete) or, if
                # it proved completion, untagged — but an untagged
                # result must be the whole answer set.
                assert result.pairs == oracle, where


def check_budget_tagging(engines: dict, query, oracle: set,
                         context: str = "") -> None:
    """Zero-timeout and pre-tripped-cancel runs stay well-formed."""
    for name, engine in engines.items():
        result = _evaluate(engine, query, timeout=0.0)
        stats = result.stats
        where = (context, name, str(query), "timeout=0")
        assert result.pairs <= oracle, where
        if not stats.timed_out:
            # Finished between budget ticks: must be the real answer.
            assert result.pairs == oracle, where

        if not supports_cancel(engine):
            continue
        token = threading.Event()
        token.set()
        result = _evaluate(engine, query, timeout=60, cancel=token)
        stats = result.stats
        where = (context, name, str(query), "cancel pre-set")
        assert result.pairs <= oracle, where
        if not stats.cancelled:
            assert result.pairs == oracle, where


def check_query(graph: Graph, query, engines: dict | None = None,
                completed: Graph | None = None,
                context: str = "") -> None:
    """Run the full contract for one query on one graph."""
    if engines is None:
        engines = build_engines(RingIndex.from_graph(graph))
    oracle = brute_force_rpq(graph, query, completed)
    check_equivalence(engines, query, oracle, context)
    check_limit_boundaries(engines, query, oracle, context)
    check_budget_tagging(engines, query, oracle, context)


# ----------------------------------------------------------------------
# Corpus I/O
# ----------------------------------------------------------------------


def load_corpus_case(path: Path) -> tuple[Graph, list[str]]:
    """One corpus file: the graph and its queries."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    graph = Graph(
        (s, p, o) for s, p, o in data["triples"]
    ) if not data.get("symmetric") else Graph(
        ((s, p, o) for s, p, o in data["triples"]),
        symmetric_predicates=data["symmetric"],
    )
    queries = data.get("queries")
    if queries is None:
        queries = [data["query"]]
    return graph, queries


def save_corpus_case(name: str, graph: Graph, query,
                     note: str = "") -> Path:
    """Persist a (shrunk) failing case as a corpus regression file.

    Writing under a stable per-test ``name`` means hypothesis's
    shrinking loop overwrites the file as the example gets smaller;
    the version that survives is the minimal counterexample.
    """
    CORPUS_DIR.mkdir(exist_ok=True)
    path = CORPUS_DIR / f"{name}.json"
    payload = {
        "triples": [list(t) for t in graph],
        "symmetric": sorted(graph.symmetric_predicates),
        "query": str(as_query(query)),
    }
    if note:
        payload["note"] = note
    path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return path


def iter_corpus():
    """Yield ``(file_name, graph, queries)`` for every corpus case."""
    if not CORPUS_DIR.is_dir():
        return
    for path in sorted(CORPUS_DIR.glob("*.json")):
        graph, queries = load_corpus_case(path)
        yield path.name, graph, queries
