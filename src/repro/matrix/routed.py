"""Cost-model router over the ring and matrix backends.

One engine object, two execution substrates: every query is priced on
both backends by :func:`repro.bench.costmodel.choose_backend` and
dispatched to the cheaper one.  Decisions are memoised per normalised
query (the pricing inputs — automaton and predicate cardinalities —
do not depend on which constants anchor the query beyond its shape),
and every decision/outcome is exported through the metrics registry:

* ``router.decisions`` / ``router.to_ring`` / ``router.to_matrix`` —
  counters of routing outcomes;
* ``router.misroutes`` — evaluations whose actual latency exceeded
  :data:`~repro.bench.costmodel.MISROUTE_MARGIN` times the chosen
  backend's prediction (the router picked with a model that turned
  out wrong for this query);
* ``router.misroute_rate`` — a gauge, misroutes over total routed
  evaluations.  The underlying tallies live on the (shared) engine,
  so the gauge is globally correct even when service workers evaluate
  against private per-thread registries and merge last-wins.

The serving layer asks :meth:`RoutedRPQEngine.backend_for` *before*
its cache lookup so cached results never cross backends (backends cut
truncated results in different orders).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.bench.costmodel import BackendChoice, choose_backend
from repro.core.engine import RingRPQEngine
from repro.core.query import RPQ, as_query
from repro.core.result import QueryResult
from repro.matrix.engine import MatrixRPQEngine
from repro.obs.metrics import NULL_METRICS


class RoutedRPQEngine:
    """Per-query ring/matrix dispatch behind the engine interface.

    Both sub-engines share the index (and therefore its matrix
    store / prepare caches); metrics and the slow-query log are
    threaded through so telemetry attributes each query to the backend
    that actually ran it (``stats.backend`` is stamped by the
    sub-engine).
    """

    name = "routed"

    def __init__(
        self,
        index,
        metrics=None,
        slow_log=None,
        decision_cache_size: int = 512,
    ):
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
        self._decision_cache_size = decision_cache_size
        self._decisions: "OrderedDict[tuple, BackendChoice]" = OrderedDict()
        self._lock = threading.Lock()
        self.routed_count = 0
        self.misroute_count = 0

    # ------------------------------------------------------------------

    @property
    def dictionary(self):
        """The shared label dictionary."""
        return self.index.dictionary

    def choice_for(self, query: RPQ | str) -> BackendChoice:
        """The (memoised) routing decision for a query.

        Keyed on the expression plus the query shape: the cost inputs
        are automaton structure and predicate cardinalities, which the
        concrete anchor constants do not change.
        """
        rpq = as_query(query)
        key = (rpq.expr, rpq.shape())
        with self._lock:
            choice = self._decisions.get(key)
            if choice is not None:
                self._decisions.move_to_end(key)
                return choice
        choice = choose_backend(self.index, rpq)
        with self._lock:
            self._decisions[key] = choice
            while len(self._decisions) > self._decision_cache_size:
                self._decisions.popitem(last=False)
        return choice

    def backend_for(self, query: RPQ | str) -> str:
        """Name of the backend this query would run on (``ring`` /
        ``matrix``) — the serving layer keys its cache on this."""
        return self.choice_for(query).backend

    # ------------------------------------------------------------------

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
        choice = self.choice_for(rpq)
        obs = metrics if metrics is not None else self.metrics
        if obs.enabled:
            obs.inc("router.decisions")
            obs.inc("router.to_ring" if choice.backend == "ring"
                    else "router.to_matrix")
        engine = self._engines[choice.backend]
        result = engine.evaluate(
            rpq, timeout=timeout, limit=limit,
            forbidden_nodes=forbidden_nodes, metrics=metrics,
            cancel=cancel, query_id=query_id,
        )
        misrouted = choice.is_misroute(result.stats.elapsed)
        with self._lock:
            self.routed_count += 1
            if misrouted:
                self.misroute_count += 1
            rate = self.misroute_count / self.routed_count
        if obs.enabled:
            if misrouted:
                obs.inc("router.misroutes")
            obs.set_gauge("router.misroute_rate", rate)
        return result

    @property
    def misroute_rate(self) -> float:
        """Misroutes over all routed evaluations (0.0 before any)."""
        with self._lock:
            if not self.routed_count:
                return 0.0
            return self.misroute_count / self.routed_count

    # ------------------------------------------------------------------

    def explain(self, query: RPQ | str) -> dict:
        """The chosen backend's plan plus the routing decision."""
        rpq = as_query(query)
        choice = self.choice_for(rpq)
        plan = self._engines[choice.backend].explain(rpq)
        plan["routing"] = {
            **choice.to_dict(),
            "decision": (
                f"{choice.backend} "
                f"(ring {choice.ring_seconds:.6f}s vs "
                f"matrix {choice.matrix_seconds:.6f}s predicted)"
            ),
        }
        return plan

    def size_in_bits(self) -> int:
        """Extra footprint over the ring: the matrix blocks decoded so far."""
        return self.matrix_engine.size_in_bits()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutedRPQEngine({self.index!r})"
