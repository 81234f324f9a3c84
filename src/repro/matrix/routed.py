"""Shape router over the ring and matrix backends.

One engine object, two execution substrates, one rule
(:meth:`RoutedRPQEngine.backend_for`): a both-variable query
``(?x, E, ?y)`` runs on the matrix backend, whose identity-seeded
closure answers every source at once; a query with a constant
endpoint runs on the ring, whose anchored backward walk touches only
the reachable cone.  Measured on the benchmark's query logs, that rule
is never slower than a per-query cost model (docs/backends.md).

Outcomes are counted through the metrics registry:
``router.decisions``, ``router.to_ring`` and ``router.to_matrix``.

The backend is a function of the query's shape, and the shape of
which endpoints are variables, so the serving layer's normalised cache
key fixes the backend too: a cached (possibly truncated) result is
always replayed by a request that would have run on the same backend.
"""

from __future__ import annotations

from repro.core.engine import RingRPQEngine
from repro.core.query import RPQ, as_query
from repro.core.result import QueryResult
from repro.matrix.engine import MatrixRPQEngine
from repro.obs.metrics import NULL_METRICS

#: Why each backend was chosen, as EXPLAIN prints it.
_REASONS = {
    "matrix": "both endpoints variable",
    "ring": "an endpoint is a constant",
}


class RoutedRPQEngine:
    """Per-query ring/matrix dispatch behind the engine interface.

    Both sub-engines share the index (and therefore its matrix
    store / prepare caches); metrics and the slow-query log are
    threaded through so telemetry attributes each query to the backend
    that actually ran it (``stats.backend`` is stamped by the
    sub-engine).
    """

    name = "routed"

    def __init__(self, index, metrics=None, slow_log=None):
        self.index = index
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.ring_engine = RingRPQEngine(
            index, metrics=metrics, slow_log=slow_log
        )
        self.matrix_engine = MatrixRPQEngine(
            index, metrics=metrics, slow_log=slow_log
        )
        self._engines = {
            "ring": self.ring_engine,
            "matrix": self.matrix_engine,
        }

    @property
    def dictionary(self):
        """The shared label dictionary."""
        return self.index.dictionary

    @staticmethod
    def backend_for(query: RPQ | str) -> str:
        """Name of the backend this query runs on: ``matrix`` for a
        both-variable query, ``ring`` for every other shape."""
        return "matrix" if as_query(query).shape() == "vv" else "ring"

    def evaluate(
        self,
        query: RPQ | str,
        timeout: float | None = None,
        limit: int | None = None,
        forbidden_nodes=None,
        metrics=None,
        cancel=None,
        query_id: "str | None" = None,
    ) -> QueryResult:
        """Route and evaluate; contract identical to the sub-engines.

        ``result.stats.backend`` records which backend ran the query.
        """
        rpq = as_query(query)
        backend = self.backend_for(rpq)
        obs = metrics if metrics is not None else self.metrics
        if obs.enabled:
            obs.inc("router.decisions")
            obs.inc(f"router.to_{backend}")
        return self._engines[backend].evaluate(
            rpq, timeout=timeout, limit=limit,
            forbidden_nodes=forbidden_nodes, metrics=metrics,
            cancel=cancel, query_id=query_id,
        )

    def explain(self, query: RPQ | str) -> dict:
        """The chosen backend's plan, with the backend and why."""
        rpq = as_query(query)
        backend = self.backend_for(rpq)
        plan = self._engines[backend].explain(rpq)
        plan["backend"] = backend
        plan["backend_reason"] = _REASONS[backend]
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutedRPQEngine({self.index!r})"
