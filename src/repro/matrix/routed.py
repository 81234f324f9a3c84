"""Cost-model router over the ring and matrix backends.

One engine object, two execution substrates: every query is priced on
both backends by :func:`choose_backend` and dispatched to the cheaper
one.  Decisions are memoised per normalised query (the pricing inputs
— automaton and predicate cardinalities — do not depend on which
constants anchor the query beyond its shape), and every
decision/outcome is exported through the metrics registry:

* ``router.decisions`` / ``router.to_ring`` / ``router.to_matrix`` —
  counters of routing outcomes;
* ``router.misroutes`` — evaluations whose actual latency exceeded
  :data:`MISROUTE_MARGIN` times the chosen backend's prediction (the
  router picked with a model that turned out wrong for this query);
* ``router.misroute_rate`` — a gauge, misroutes over total routed
  evaluations.  The underlying tallies live on the (shared) engine,
  so the gauge is globally correct even when service workers evaluate
  against private per-thread registries and merge last-wins.

The serving layer asks :meth:`RoutedRPQEngine.backend_for` *before*
its cache lookup so cached results never cross backends (backends cut
truncated results in different orders).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.engine import RingRPQEngine
from repro.core.planner import (
    MODELED_TIMEOUT,
    PlanEstimate,
    estimate_rpq_cost,
    plan_inputs,
)
from repro.core.query import RPQ, as_query
from repro.core.result import QueryResult
from repro.matrix.engine import MatrixRPQEngine
from repro.obs.metrics import NULL_METRICS

#: Substrate-calibrated constants predicting *actual* wall-clock on
#: this Python stack (a different currency from ``modeled_seconds``,
#: which prices work on the paper's C++ substrate).  Calibrated on a
#: Wikidata-like graph of 3 000 nodes / 18 000 edges / 40 predicates
#: under a Table 1-mix query log; see docs/backends.md.
ROUTER_RING_OP_SECONDS = 7e-8
ROUTER_MATRIX_SETUP_SECONDS = 3e-4
ROUTER_MATRIX_MATMUL_SECONDS = 1.2e-4
ROUTER_MATRIX_NNZ_SECONDS = 6e-9
ROUTER_MATRIX_EMIT_SECONDS = 2e-9

#: Shape corrections for the ring prediction, fitted on the same
#: workload: ``storage_ops`` *underprices* variable-to-variable runs
#: (the ring restarts its product traversal per source, so constants
#: per op do not capture the fan-out — measured median 4.4x, p90 20x
#: under) and *overprices* anchored runs (a single anchored traversal
#: touches a small reachable cone; measured median 25x over).
ROUTER_RING_VV_FACTOR = 5.0
ROUTER_RING_ANCHORED_FACTOR = 0.05

#: An actual latency beyond this multiple of the chosen backend's
#: predicted seconds counts as a misroute (the model was wrong enough
#: that the decision cannot be trusted); the floor keeps sub-ms
#: queries from tripping the ratio on scheduler noise.
MISROUTE_MARGIN = 8.0
MISROUTE_FLOOR_SECONDS = 0.05


@dataclass(frozen=True)
class MatrixEstimate:
    """Predicted matrix-backend work for one query, before running it.

    The matrix engine's cost is dominated by sparse boolean multiplies:
    per closure round, one multiply per automaton position, each
    flowing roughly the step matrix's nonzeros plus the frontier's.
    Rounds are data-dependent (the closure depth of the product
    graph); the estimate uses ``m + log2 |V|`` — automaton depth plus
    the expected diameter of a random graph — as the planning bound.
    """

    query: str
    shape: str
    #: Automaton positions (one step matrix each).
    positions: int
    #: Graph edges carrying any predicate of the automaton's B table.
    edges: int
    #: Bound on distinct nodes entering any frontier.
    touched_nodes: int
    #: Estimated closure rounds to fixpoint.
    rounds: int
    #: Estimated sparse multiplies (``rounds x positions``).
    multiplies: int
    #: Estimated stored nonzeros flowing through all multiplies.
    flow_nnz: int
    #: Predicted wall-clock seconds on this substrate.
    predicted_seconds: float

    def counts(self) -> dict[str, int]:
        """The estimated counters, keyed like ``QueryStats`` fields."""
        return {
            "matmuls": self.multiplies,
            "product_edges": self.flow_nnz,
            "storage_ops": self.flow_nnz,
        }


def estimate_matrix_cost(index, query) -> MatrixEstimate:
    """Estimate the matrix backend's work for ``query``.

    Uses only index statistics (predicate cardinalities, node count)
    and the Glushkov automaton — the same
    :func:`~repro.core.planner.plan_inputs` as
    :func:`~repro.core.planner.estimate_rpq_cost`, so the router prices
    both backends from one pre-execution view of the query.
    """
    rpq, automaton, _, edges, touched = plan_inputs(index, query)
    shape = rpq.shape()
    n = index.ring.num_nodes

    m = max(1, automaton.m)
    rounds = m + int(math.log2(n + 1)) + 1
    multiplies = rounds * m

    # Per multiply the step matrix contributes ~edges/m nonzeros; the
    # frontier contributes up to ``touched`` entries for anchored runs
    # and up to ``touched`` entries *per live source row* for
    # variable-to-variable (the N x N closure) — approximated by one
    # extra ``touched`` factor spread over the rounds.
    per_multiply = edges // m + touched
    flow = multiplies * per_multiply
    results_bound = touched
    if shape == "vv":
        flow = multiplies * (edges // m) + rounds * touched * m
        flow += min(n * n, touched * touched)
        results_bound = min(n * n, touched * touched)

    predicted = (
        ROUTER_MATRIX_SETUP_SECONDS
        + multiplies * ROUTER_MATRIX_MATMUL_SECONDS
        + flow * ROUTER_MATRIX_NNZ_SECONDS
        + results_bound * ROUTER_MATRIX_EMIT_SECONDS
    )
    return MatrixEstimate(
        query=str(rpq),
        shape=shape,
        positions=automaton.m,
        edges=edges,
        touched_nodes=touched,
        rounds=rounds,
        multiplies=multiplies,
        flow_nnz=flow,
        predicted_seconds=min(MODELED_TIMEOUT, predicted),
    )


@dataclass(frozen=True)
class BackendChoice:
    """One routing decision: both backends priced, cheaper one chosen.

    ``ring_seconds`` / ``matrix_seconds`` are substrate-calibrated
    wall-clock predictions (this Python stack), *not* the sdsl-priced
    ``modeled_seconds`` of :class:`PlanEstimate` — the router compares
    what will actually run, the EXPLAIN comparison tables keep the
    paper-substrate currency.
    """

    backend: str
    ring_seconds: float
    matrix_seconds: float
    ring_estimate: PlanEstimate
    matrix_estimate: MatrixEstimate

    @property
    def chosen_seconds(self) -> float:
        """Predicted seconds of the backend that was picked."""
        return (self.ring_seconds if self.backend == "ring"
                else self.matrix_seconds)

    def is_misroute(self, actual_seconds: float) -> bool:
        """Whether an observed latency discredits this decision."""
        return actual_seconds > max(
            MISROUTE_FLOOR_SECONDS, MISROUTE_MARGIN * self.chosen_seconds
        )

    def to_dict(self) -> dict:
        """JSON-friendly routing summary for EXPLAIN output."""
        return {
            "backend": self.backend,
            "ring_seconds": self.ring_seconds,
            "matrix_seconds": self.matrix_seconds,
        }


def choose_backend(index, query) -> BackendChoice:
    """Price a query on both backends and pick the cheaper one.

    The ring side reuses :func:`estimate_rpq_cost`'s work counts but
    prices them at the *Python* substrate cost (a wavelet step here is
    dict-and-int-ops, not an sdsl rank); the matrix side comes from
    :func:`estimate_matrix_cost`.  Both are coarse upper bounds built
    from the same index statistics, so their *ratio* is meaningful
    even where their absolute values are loose.
    """
    inputs = plan_inputs(index, query)
    ring_est = estimate_rpq_cost(index, inputs)
    matrix_est = estimate_matrix_cost(index, inputs)
    shape_factor = (
        ROUTER_RING_VV_FACTOR if matrix_est.shape == "vv"
        else ROUTER_RING_ANCHORED_FACTOR
    )
    ring_seconds = min(MODELED_TIMEOUT, ring_est.storage_ops
                       * ROUTER_RING_OP_SECONDS * shape_factor)
    backend = "ring" if ring_seconds <= matrix_est.predicted_seconds \
        else "matrix"
    return BackendChoice(
        backend=backend,
        ring_seconds=ring_seconds,
        matrix_seconds=matrix_est.predicted_seconds,
        ring_estimate=ring_est,
        matrix_estimate=matrix_est,
    )


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
