"""Regression tests: the result cache must never cross backends.

The ring and matrix backends materialise *different deterministic
prefixes* when a limit truncates a run (ring emits in backward-search
discovery order, the matrix backend in sorted coordinate order), so a
cached truncated entry is only a faithful replay for the backend that
produced it.  Behind the shape router the backend is a function of
which endpoints are variables, and key normalisation keeps that, so
one cache key always maps to one backend: a hit replays the answer of
the backend the request would run on now.
"""

from __future__ import annotations

import pytest

from repro.graph.generators import random_graph
from repro.ring.builder import RingIndex
from repro.serve.service import QueryService


@pytest.fixture(scope="module")
def tiny_index():
    return RingIndex.from_graph(
        random_graph(n_nodes=10, n_edges=30, n_predicates=3, seed=1)
    )


@pytest.fixture()
def routed_service(tiny_index):
    pytest.importorskip("scipy", reason="matrix backend needs scipy",
                        exc_type=ImportError)
    from repro.matrix import RoutedRPQEngine

    engine = RoutedRPQEngine(tiny_index)
    with QueryService(tiny_index, workers=1, cache_size=32,
                      engine=engine) as service:
        yield engine, service


def test_cache_hit_never_crosses_backends(routed_service):
    """A truncated run of each shape is cached under its own key, and
    a replayed hit carries the backend and the prefix of the run that
    stored it, which is the backend the router picks for the query."""
    engine, service = routed_service
    for query, backend in (("(?x, p0+, ?y)", "matrix"),
                           ("(n0, (p0|p1)*, ?y)", "ring")):
        assert engine.backend_for(query) == backend
        first = service.submit(query, timeout=10, limit=1).result(10)
        assert not first.stats.cached and first.stats.truncated
        assert first.stats.backend == backend
        again = service.submit(query, timeout=10, limit=1).result(10)
        assert again.stats.cached
        assert again.pairs == first.pairs


def test_real_router_caches_per_backend(routed_service):
    """End-to-end with the real router: repeated submissions hit the
    cache and the replay carries the routed backend's answer."""
    _, service = routed_service
    query = "(?x, (p0|p2)+, ?y)"
    first = service.submit(query, timeout=10).result(10)
    assert not first.stats.cached
    assert first.stats.backend == "matrix"
    again = service.submit(query, timeout=10).result(10)
    assert again.stats.cached
    assert again.pairs == first.pairs
