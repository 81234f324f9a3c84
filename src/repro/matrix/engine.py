"""Glushkov-product RPQ evaluation by boolean matrix algebra.

Where the ring engine walks the product graph node at a time, this
engine advances *whole frontiers*: one boolean vector (or matrix, for
variable-to-variable queries) per Glushkov state, multiplied each
round by the transition-selected predicate matrix of the target state.
Glushkov's Fact 1 — every transition entering state ``y`` carries the
atom of position ``y`` — is what makes the state-blocked formulation
work: the step into ``y`` is a single multiply

    ``new_y = (OR of frontiers of pred(y)) @ M_y``

where ``M_y`` is the OR of the adjacency matrices of the predicates
matched by ``y``'s atom.  Iterating to fixpoint (with per-state
visited masks for dedup) computes exactly the reachable product
states, i.e. the answer of the RPQ.

The evaluate contract mirrors :meth:`repro.core.engine.RingRPQEngine.
evaluate` — same partial-result semantics for ``timeout`` / ``limit``
/ ``cancel``, same ``forbidden_nodes`` extension, same QueryStats
counters and observability hooks — so the serving layer, the EXPLAIN
pipeline and the benchmarks can swap backends freely.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable

import numpy as np
import scipy.sparse as sp

from repro.automata.glushkov import (
    GlushkovAutomaton,
    build_glushkov,
    resolve_atom_to_predicates,
)
from repro.automata.syntax import RegexNode
from repro.core.engine import _Budget, run_query
from repro.core.query import RPQ, as_query
from repro.core.result import QueryResult, QueryStats
from repro.matrix.matrices import PredicateMatrices
from repro.obs.metrics import NULL_METRICS
from repro._util.bits import iter_set_bits


def _or_all(parts: "list[sp.csr_matrix]") -> "sp.csr_matrix":
    """Boolean OR of CSR matrices (bool ``+`` is elementwise OR)."""
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total.tocsr()


def _and_not(a: "sp.csr_matrix", b: "sp.csr_matrix") -> "sp.csr_matrix":
    """``a AND NOT b`` for boolean CSR.

    numpy's bool dtype refuses ``-``, so the difference goes through
    int8: entries present in both cancel to zero and are dropped.
    """
    common = a.multiply(b)
    if common.nnz == 0:
        return a
    diff = (a.astype(np.int8) - common.astype(np.int8)).tocsr()
    diff.eliminate_zeros()
    return diff.astype(bool)


class _Prepared:
    """Query-compilation artifact shared across evaluations.

    Holds the Glushkov automaton plus, per position ``y``, the step
    matrix ``M_y`` (OR of the predicate matrices matched by ``y``'s
    atom; ``None`` when no edge of the graph matches).
    """

    __slots__ = ("automaton", "b_pids", "step_matrices")

    def __init__(self, expr: RegexNode, store: PredicateMatrices,
                 dictionary) -> None:
        self.automaton = build_glushkov(expr)
        resolve = lambda atom: resolve_atom_to_predicates(atom, dictionary)
        pids: set[int] = set()
        self.step_matrices: list["sp.csr_matrix | None"] = [None]
        for atom in self.automaton.atoms:
            atom_pids = resolve(atom)
            pids.update(atom_pids)
            self.step_matrices.append(store.union(atom_pids))
        #: Predicate ids the query can traverse (the ``B`` table the
        #: ring engine would load), for stats/explain parity.
        self.b_pids = frozenset(p for p in pids if store.nnz(p))


class MatrixRPQEngine:
    """Sparse boolean-matrix RPQ engine over :class:`PredicateMatrices`.

    Parameters mirror the ring engine where they apply; the traversal
    knobs (``prune``/``fast_paths``/…) have no matrix counterpart.
    """

    name = "matrix"

    def __init__(
        self,
        index,
        prepare_cache_size: int | None = 128,
        metrics=None,
        slow_log=None,
    ):
        self.index = index
        self.store = PredicateMatrices.from_index(index)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.slow_log = slow_log
        self._prepare_cache_size = prepare_cache_size or 0
        self._prepare_cache: "OrderedDict[RegexNode, _Prepared]" = \
            OrderedDict()
        self._prepare_lock = threading.Lock()

    # ------------------------------------------------------------------

    @property
    def dictionary(self):
        """The shared label dictionary."""
        return self.index.dictionary

    def size_in_bits(self) -> int:
        """Footprint of the predicate matrices decoded so far."""
        return self.store.size_in_bits()

    # ------------------------------------------------------------------

    def _prepare(self, expr: RegexNode, stats: QueryStats) -> _Prepared:
        """Compile (or recall) the automaton + step matrices of an
        expression, LRU-cached exactly like the ring's prepare cache."""
        if self._prepare_cache_size <= 0:
            stats.prepares += 1
            return _Prepared(expr, self.store, self.dictionary)
        with self._prepare_lock:
            prepared = self._prepare_cache.get(expr)
            if prepared is not None:
                self._prepare_cache.move_to_end(expr)
                stats.prepare_cache_hits += 1
                return prepared
        stats.prepares += 1
        prepared = _Prepared(expr, self.store, self.dictionary)
        with self._prepare_lock:
            self._prepare_cache[expr] = prepared
            while len(self._prepare_cache) > self._prepare_cache_size:
                self._prepare_cache.popitem(last=False)
        return prepared

    # ------------------------------------------------------------------

    def evaluate(
        self,
        query: RPQ | str,
        timeout: float | None = None,
        limit: int | None = None,
        forbidden_nodes: "Iterable[str] | None" = None,
        metrics=None,
        cancel=None,
        query_id: "str | None" = None,
    ) -> QueryResult:
        """Evaluate an RPQ under set semantics.

        Same contract as the ring engine: partial results with
        ``stats.timed_out`` / ``stats.cancelled`` on budget expiry,
        ``stats.truncated`` when the result cap stopped the run
        (``limit <= 0`` short-circuits to an empty truncated result),
        ``forbidden_nodes`` excluded from every matching path.

        The matrix engine's truncation rule is the strict form of the
        ring's: a result is tagged truncated exactly when evaluation
        stopped because ``len(pairs)`` reached ``limit`` (fixed-fixed
        queries, whose single possible answer can never be cut by a
        positive cap, are never tagged).  New answers are emitted in
        sorted ``(subject_id, object_id)`` order within each frontier
        round, so which pairs survive a cap is deterministic.
        """
        return run_query(
            self, query, ("matmuls",), timeout, limit, forbidden_nodes,
            metrics, cancel, query_id,
        )

    # ------------------------------------------------------------------

    def _dispatch(self, rpq, ctx, limit, result):
        dictionary = self.dictionary
        budget, obs, forbidden = ctx.budget, ctx.obs, ctx.forbidden_ids
        shape = rpq.shape()
        if shape == "vv":
            self._eval_var_var(rpq, budget, limit, forbidden, result, obs)
            return

        # All anchored shapes (cv / vc / cc) run the same forward
        # closure; vc flips to the reversed expression so the anchor
        # sits on the subject side of the run.
        subject_id = object_id = None
        if not rpq.subject_is_var:
            if not dictionary.has_node(rpq.subject):
                return
            subject_id = dictionary.node_id(rpq.subject)
        if not rpq.object_is_var:
            if not dictionary.has_node(rpq.object):
                return
            object_id = dictionary.node_id(rpq.object)
        if subject_id in forbidden or object_id in forbidden:
            # The ring engine rejects forbidden anchors outright (they
            # are marked fully visited, so they can never appear).
            return

        if shape == "cc":
            self._eval_boolean(rpq, subject_id, object_id, budget,
                               forbidden, result, obs)
            return

        if shape == "cv":
            expr, anchor, flipped = rpq.expr, subject_id, False
        else:  # vc
            expr, anchor, flipped = rpq.expr.reverse(), object_id, True
        self._eval_anchored(rpq, expr, anchor, flipped, budget, limit,
                            forbidden, result, obs)

    # -- emission ----------------------------------------------------------

    def _emit(self, entries, result: QueryResult,
              limit: "int | None") -> bool:
        """Add ``(subject_id, object_id)`` answers; True when the cap
        stopped emission (``stats.truncated`` is set)."""
        label = self.dictionary.node_label
        pairs = result.pairs
        for s, o in entries:
            pairs.add((label(s), label(o)))
            if limit is not None and len(pairs) >= limit:
                result.stats.truncated = True
                return True
        return False

    # -- the frontier closure ---------------------------------------------

    def _closure(
        self,
        prepared: _Prepared,
        start: "sp.csr_matrix",
        budget: _Budget,
        forbidden: frozenset,
        stats: QueryStats,
        on_new,
    ) -> None:
        """Iterate the state-blocked product to fixpoint.

        ``start`` is the state-0 frontier (1 x N for anchored runs,
        N x N identity for variable-to-variable).  ``on_new(y, new)``
        receives each state's newly-reached entries once per round; a
        truthy return stops the closure (cap hit / target found).
        """
        automaton = prepared.automaton
        step = prepared.step_matrices
        pred_masks = automaton.pred_masks
        stats.nfa_states = max(stats.nfa_states, automaton.num_states)
        stats.b_entries += len(prepared.b_pids)

        allowed = None
        if forbidden:
            keep = np.ones(self.store.num_nodes, dtype=bool)
            keep[list(forbidden)] = False
            allowed = sp.csr_matrix(keep.reshape(1, -1))

        frontier: dict[int, sp.csr_matrix] = {0: start}
        visited: dict[int, sp.csr_matrix] = {0: start}
        while frontier:
            budget.check()
            next_frontier: dict[int, sp.csr_matrix] = {}
            for y in range(1, automaton.m + 1):
                matrix = step[y]
                if matrix is None:
                    continue
                sources = [frontier[x]
                           for x in iter_set_bits(pred_masks[y])
                           if x in frontier]
                if not sources:
                    continue
                budget.check()
                src = _or_all(sources)
                reached = (src @ matrix).tocsr()
                stats.matmuls += 1
                stats.backward_steps += 1
                stats.storage_ops += int(src.nnz + matrix.nnz
                                         + reached.nnz)
                stats.product_edges += int(reached.nnz)
                if allowed is not None:
                    # Forbidden nodes drop out of the frontier, so no
                    # path may pass through (or end at) them — the
                    # matrix form of the §6 marked-visited trick.
                    reached = reached.multiply(allowed).tocsr()
                seen = visited.get(y)
                new = reached if seen is None else _and_not(reached, seen)
                if new.nnz == 0:
                    continue
                visited[y] = new if seen is None else \
                    (seen + new).tocsr()
                next_frontier[y] = new
                stats.product_nodes += int(new.nnz)
                if on_new(y, new):
                    return
            frontier = next_frontier
        stats.visited_nodes = max(
            stats.visited_nodes,
            sum(int(v.nnz) for v in visited.values()),
        )

    # -- one endpoint fixed ------------------------------------------------

    def _eval_anchored(self, rpq, expr, anchor, flipped, budget, limit,
                       forbidden, result, obs):
        prepared = self._prepare(expr, result.stats)
        automaton = prepared.automaton

        if automaton.nullable:
            label = self.dictionary.node_label(anchor)
            result.pairs.add((label, label))
            if limit is not None and len(result.pairs) >= limit:
                result.stats.truncated = True
                return

        n = self.store.num_nodes
        start = sp.csr_matrix(
            (np.ones(1, dtype=bool), ([0], [anchor])), shape=(1, n)
        )
        final_mask = automaton.final_mask
        spans = obs.spans if obs.enabled else None
        span = spans.start("run:matrix") if spans is not None else None

        def on_new(y, new):
            if not (final_mask >> y) & 1:
                return False
            cols = new.indices  # CSR of one row: already sorted
            if flipped:
                entries = ((int(c), anchor) for c in cols)
            else:
                entries = ((anchor, int(c)) for c in cols)
            return self._emit(entries, result, limit)

        try:
            self._closure(prepared, start, budget, forbidden,
                          result.stats, on_new)
        finally:
            if span is not None:
                span.set(anchor=anchor, reported=len(result.pairs))
                spans.end(span)

    # -- both endpoints fixed ----------------------------------------------

    def _eval_boolean(self, rpq, subject_id, object_id, budget,
                      forbidden, result, obs):
        prepared = self._prepare(rpq.expr, result.stats)
        automaton = prepared.automaton

        if automaton.nullable and subject_id == object_id:
            result.pairs.add((rpq.subject, rpq.object))
            return

        n = self.store.num_nodes
        start = sp.csr_matrix(
            (np.ones(1, dtype=bool), ([0], [subject_id])), shape=(1, n)
        )
        final_mask = automaton.final_mask
        spans = obs.spans if obs.enabled else None
        span = spans.start("run:matrix") if spans is not None else None
        found = False

        def on_new(y, new):
            nonlocal found
            if not (final_mask >> y) & 1:
                return False
            if object_id in set(int(c) for c in new.indices):
                found = True
                result.pairs.add((rpq.subject, rpq.object))
                return True
            return False

        try:
            self._closure(prepared, start, budget, forbidden,
                          result.stats, on_new)
        finally:
            if span is not None:
                span.set(found=found)
                spans.end(span)

    # -- both endpoints variable -------------------------------------------

    def _eval_var_var(self, rpq, budget, limit, forbidden, result, obs):
        prepared = self._prepare(rpq.expr, result.stats)
        automaton = prepared.automaton
        dictionary = self.dictionary
        n = self.store.num_nodes

        if automaton.nullable:
            # Zero-length paths: the (v, v) diagonal, in id order so a
            # cap cuts deterministically (matches the ring engine).
            for node_id in range(n):
                if node_id in forbidden:
                    continue
                label = dictionary.node_label(node_id)
                result.pairs.add((label, label))
                if limit is not None and len(result.pairs) >= limit:
                    result.stats.truncated = True
                    return

        start = sp.identity(n, dtype=bool, format="csr")
        if forbidden:
            keep = np.ones(n, dtype=bool)
            keep[list(forbidden)] = False
            start = sp.diags(keep, dtype=bool, format="csr")
        final_mask = automaton.final_mask
        spans = obs.spans if obs.enabled else None
        span = spans.start("run:matrix") if spans is not None else None

        def on_new(y, new):
            if not (final_mask >> y) & 1:
                return False
            coo = new.tocoo()  # CSR -> COO is row-major sorted
            entries = zip((int(r) for r in coo.row),
                          (int(c) for c in coo.col))
            return self._emit(entries, result, limit)

        try:
            self._closure(prepared, start, budget, forbidden,
                          result.stats, on_new)
        finally:
            if span is not None:
                span.set(reported=len(result.pairs))
                spans.end(span)

    # ------------------------------------------------------------------

    def explain(self, query: RPQ | str) -> dict:
        """Describe the matrix plan without running it: automaton
        size, step-matrix density, rounds are data-dependent."""
        rpq = as_query(query)
        stats = QueryStats()
        prepared = self._prepare(rpq.expr, stats)
        automaton = prepared.automaton
        step_nnz = {
            y: int(m.nnz)
            for y, m in enumerate(prepared.step_matrices)
            if m is not None
        }
        return {
            "query": str(rpq),
            "shape": rpq.shape(),
            "nfa_states": automaton.num_states,
            "nullable": automaton.nullable,
            "b_predicates": sorted(
                self.dictionary.predicate_label(p)
                for p in prepared.b_pids
            ),
            "strategy": {
                "vv": "identity-seeded closure (N x N frontier)",
                "cv": "anchored forward closure",
                "vc": "anchored forward closure on reversed expression",
                "cc": "anchored closure with target early-exit",
            }[rpq.shape()],
            "step_matrix_nnz": step_nnz,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatrixRPQEngine({self.store!r})"
