"""Relational evaluation with a semi-naive transitive-closure operator.

Virtuoso evaluates SPARQL property paths by translating them onto its
relational engine, where arbitrary-length parts become a transitive
closure (§5: *"Virtuoso uses a transitive closure operator implemented
over its relational database engine"*).  This engine mirrors that
profile:

* every subexpression is materialised bottom-up as a set of
  ``(subject, object)`` pairs (joins for ``/``, unions for ``|``);
* ``*`` and ``+`` run a semi-naive fixpoint over the child relation;
* when the *whole* expression is a closure and one endpoint is a
  constant, the closure is evaluated goal-directed from that constant
  (Virtuoso's transitive operator is directional) — inner closures are
  always fully materialised.

The bulk-materialisation style makes it competitive on mid-size
workloads and prone to blow-ups on unrestricted closures, matching
Virtuoso's placing in the paper's Table 2.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.automata.syntax import (
    Concat,
    Epsilon,
    NegatedClass,
    Optional,
    Plus,
    RegexNode,
    Star,
    Symbol,
    Union,
)
from repro.baselines.base import BaselineEngine, _Budget
from repro.core.result import QueryStats
from repro.errors import ConstructionError

Relation = set[tuple[int, int]]


class SemiNaiveEngine(BaselineEngine):
    """Bottom-up relational RPQ evaluation (Virtuoso profile)."""

    name = "seminaive-virtuoso"

    def _evaluate(
        self,
        expr: RegexNode,
        subject_id: int | None,
        object_id: int | None,
        budget: _Budget,
        limit: int | None,
        stats: QueryStats,
    ) -> Relation:
        evaluator = _RelationalEvaluator(self, budget, stats)

        anchored = self._anchored_toplevel_closure(
            expr, subject_id, object_id, evaluator
        )
        if anchored is not None:
            pairs = anchored
        else:
            pairs = evaluator.eval(expr)
            if subject_id is not None:
                pairs = {(s, o) for s, o in pairs if s == subject_id}
            if object_id is not None:
                pairs = {(s, o) for s, o in pairs if o == object_id}

        if limit is not None and len(pairs) > limit:
            stats.truncated = True
            pairs = set(sorted(pairs)[:limit])
        return pairs

    # ------------------------------------------------------------------

    def _anchored_toplevel_closure(
        self,
        expr: RegexNode,
        subject_id: int | None,
        object_id: int | None,
        evaluator: "_RelationalEvaluator",
    ) -> Relation | None:
        """Goal-directed closure when the root is ``*``/``+`` and one
        endpoint is fixed; ``None`` when not applicable."""
        if not isinstance(expr, (Star, Plus)):
            return None
        if subject_id is None and object_id is None:
            return None

        base = evaluator.eval(expr.child)
        include_zero = isinstance(expr, Star)

        if subject_id is not None:
            forward = _adjacency(base, forward=True)
            reached = _bfs(forward, subject_id, evaluator.budget)
            if include_zero:
                reached.add(subject_id)
            pairs = {(subject_id, o) for o in reached}
            if object_id is not None:
                pairs = {(s, o) for s, o in pairs if o == object_id}
            return pairs

        backward = _adjacency(base, forward=False)
        reached = _bfs(backward, object_id, evaluator.budget)
        if include_zero:
            reached.add(object_id)
        return {(s, object_id) for s in reached}


class _RelationalEvaluator:
    """Materialises every subexpression as a relation."""

    def __init__(self, engine: SemiNaiveEngine, budget: _Budget,
                 stats: QueryStats):
        self.engine = engine
        self.graph = engine.graph
        self.budget = budget
        self.stats = stats

    def eval(self, expr: RegexNode) -> Relation:
        if isinstance(expr, Epsilon):
            return {(v, v) for v in self.engine.all_nodes()}

        if isinstance(expr, (Symbol, NegatedClass)):
            pairs: Relation = set()
            for pid in self.engine.atom_predicates(expr):
                edges = self.graph.edges_of(pid)
                self.stats.storage_ops += len(edges)
                for edge in edges:
                    self.budget.tick()
                    pairs.add(edge)
            self.stats.product_edges += len(pairs)
            return pairs

        if isinstance(expr, Union):
            out: Relation = set()
            for child in expr.children:
                out |= self.eval(child)
            return out

        if isinstance(expr, Concat):
            result = self.eval(expr.children[0])
            for child in expr.children[1:]:
                result = self._join(result, self.eval(child))
            return result

        if isinstance(expr, Star):
            return self._closure(self.eval(expr.child), include_zero=True)
        if isinstance(expr, Plus):
            return self._closure(self.eval(expr.child), include_zero=False)
        if isinstance(expr, Optional):
            zero = {(v, v) for v in self.engine.all_nodes()}
            return self.eval(expr.child) | zero

        raise ConstructionError(f"unknown regex node {type(expr).__name__}")

    # ------------------------------------------------------------------

    def _join(self, left: Relation, right: Relation) -> Relation:
        """Hash join on ``left.object = right.subject``."""
        by_subject: dict[int, list[int]] = defaultdict(list)
        for s, o in right:
            by_subject[s].append(o)
        out: Relation = set()
        for s, mid in left:
            hits = by_subject.get(mid, ())
            self.stats.storage_ops += max(1, len(hits))
            for o in hits:
                self.budget.tick()
                out.add((s, o))
        return out

    def _closure(self, base: Relation, include_zero: bool) -> Relation:
        """Semi-naive transitive closure of a pair relation."""
        adjacency = _adjacency(base, forward=True)
        total: Relation = set(base)
        delta: Relation = set(base)
        while delta:
            new_delta: Relation = set()
            for s, mid in delta:
                hits = adjacency.get(mid, ())
                self.stats.storage_ops += max(1, len(hits))
                for o in hits:
                    self.budget.tick()
                    pair = (s, o)
                    if pair not in total:
                        total.add(pair)
                        new_delta.add(pair)
            delta = new_delta
        self.stats.product_edges += len(total)
        if include_zero:
            total |= {(v, v) for v in self.engine.all_nodes()}
        return total


def _adjacency(relation: Relation, forward: bool) -> dict[int, list[int]]:
    adjacency: dict[int, list[int]] = defaultdict(list)
    for s, o in relation:
        if forward:
            adjacency[s].append(o)
        else:
            adjacency[o].append(s)
    return dict(adjacency)


def _bfs(adjacency: dict[int, list[int]], start: int,
         budget: _Budget) -> set[int]:
    """Nodes reachable from ``start`` via one-or-more adjacency steps."""
    visited: set[int] = set()
    frontier = deque(adjacency.get(start, ()))
    visited.update(frontier)
    while frontier:
        budget.tick()
        node = frontier.popleft()
        for nxt in adjacency.get(node, ()):
            if nxt not in visited:
                visited.add(nxt)
                frontier.append(nxt)
    return visited
