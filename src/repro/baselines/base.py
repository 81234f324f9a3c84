"""Shared substrate for the baseline engines.

:class:`EncodedGraph` is the integer-encoded completed graph in plain
adjacency form — what a conventional store's triple indexes provide.
All baselines resolve regular-expression atoms through the same
dictionary function as the ring engine, so answer semantics match
exactly and differential tests can compare engines pair for pair.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Iterable

from repro.automata.glushkov import resolve_atom_to_predicates
from repro.automata.syntax import NegatedClass, RegexNode, Symbol
from repro.core.query import RPQ, as_query
from repro.core.result import QueryResult, QueryStats
from repro.errors import QueryTimeoutError
from repro.ring.dictionary import Dictionary

_TICK_EVERY = 2048


class EncodedGraph:
    """Adjacency view of the completed, integer-encoded graph.

    Because the graph is completed (every edge has its inverse twin),
    out-adjacency alone supports two-way traversal: following an edge
    backwards is following its inverse-labeled twin forwards.
    """

    def __init__(self, dictionary: Dictionary,
                 triples: Iterable[tuple[int, int, int]]):
        self.dictionary = dictionary
        triples = sorted(set(triples))
        self.num_nodes = dictionary.num_nodes
        self.num_predicates = dictionary.num_predicates
        self.triples = triples

        out: dict[int, list[tuple[int, int]]] = defaultdict(list)
        by_pred: dict[int, list[tuple[int, int]]] = defaultdict(list)
        by_sp: dict[tuple[int, int], list[int]] = defaultdict(list)
        for s, p, o in triples:
            out[s].append((p, o))
            by_pred[p].append((s, o))
            by_sp[(s, p)].append(o)
        self._out = dict(out)
        self._by_pred = dict(by_pred)
        self._by_sp = dict(by_sp)

    @classmethod
    def from_index(cls, index) -> "EncodedGraph":
        """Build from a :class:`~repro.ring.builder.RingIndex`.

        Decoding goes through the ring itself, which doubles as an
        integration test of its triple enumeration.
        """
        return cls(index.dictionary, index.ring.iter_triples())

    # ------------------------------------------------------------------

    def out_edges(self, node: int) -> list[tuple[int, int]]:
        """Outgoing ``(predicate, target)`` pairs of ``node``."""
        return self._out.get(node, [])

    def edges_of(self, pid: int) -> list[tuple[int, int]]:
        """All ``(subject, object)`` pairs labeled ``pid``."""
        return self._by_pred.get(pid, [])

    def targets(self, node: int, pid: int) -> list[int]:
        """Objects of ``(node, pid, ?o)`` — an SPO index probe.

        Real stores answer bound-subject, bound-predicate lookups from
        their SPO/PSO order without scanning the node's other edges;
        the ALP baselines use this for single-predicate steps.
        """
        return self._by_sp.get((node, pid), [])

    def predicate_count(self, pid: int) -> int:
        """Number of edges labeled ``pid``."""
        return len(self._by_pred.get(pid, ()))


class _Budget:
    """Wall-clock budget shared by one baseline evaluation."""

    __slots__ = ("deadline", "start", "ticks")

    def __init__(self, timeout: float | None):
        self.start = time.monotonic()
        self.deadline = None if timeout is None else self.start + timeout
        self.ticks = 0

    def tick(self) -> None:
        self.ticks += 1
        if self.deadline is not None and self.ticks % _TICK_EVERY == 0:
            if time.monotonic() > self.deadline:
                raise QueryTimeoutError(
                    time.monotonic() - self.start, self.deadline - self.start
                )

    def elapsed(self) -> float:
        return time.monotonic() - self.start


class BaselineEngine:
    """Template for baseline engines: shared dispatch and bookkeeping.

    Subclasses implement :meth:`_evaluate` over integer node ids; this
    class handles parsing, unknown constants, timeout accounting and
    decoding back to labels.
    """

    #: Short identifier used by the registry and benchmark tables.
    name = "baseline"

    def __init__(self, graph: EncodedGraph):
        self.graph = graph
        self.dictionary = graph.dictionary

    # ------------------------------------------------------------------

    def evaluate(
        self,
        query: RPQ | str,
        timeout: float | None = None,
        limit: int | None = None,
    ) -> QueryResult:
        """Evaluate an RPQ under set semantics (same contract as the
        ring engine: partial results on timeout / result cap)."""
        rpq = as_query(query)
        stats = QueryStats()
        stats.backend = self.name
        budget = _Budget(timeout)
        result = QueryResult(stats=stats)

        if limit is not None and limit <= 0:
            # Same short-circuit as the ring engine: a non-positive cap
            # yields an empty truncated result without touching data.
            stats.truncated = True
            stats.elapsed = budget.elapsed()
            return result

        subject_id = object_id = None
        known = True
        if not rpq.subject_is_var:
            if self.dictionary.has_node(rpq.subject):
                subject_id = self.dictionary.node_id(rpq.subject)
            else:
                known = False
        if not rpq.object_is_var:
            if self.dictionary.has_node(rpq.object):
                object_id = self.dictionary.node_id(rpq.object)
            else:
                known = False

        if known:
            try:
                pairs = self._evaluate(
                    rpq.expr, subject_id, object_id, budget, limit, stats
                )
            except QueryTimeoutError:
                stats.timed_out = True
                pairs = set()
            label = self.dictionary.node_label
            result.pairs = {(label(s), label(o)) for s, o in pairs}
        stats.elapsed = budget.elapsed()
        return result

    # ------------------------------------------------------------------

    def _evaluate(
        self,
        expr: RegexNode,
        subject_id: int | None,
        object_id: int | None,
        budget: _Budget,
        limit: int | None,
        stats: QueryStats,
    ) -> set[tuple[int, int]]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def atom_predicates(self, atom: Symbol | NegatedClass) -> frozenset[int]:
        """Predicate ids matched by an atom (shared resolution)."""
        return resolve_atom_to_predicates(atom, self.dictionary)

    def all_nodes(self) -> range:
        """Every node id (the zero-length-path domain)."""
        return range(self.graph.num_nodes)

    def zero_length_pairs(
        self, subject_id: int | None, object_id: int | None
    ) -> set[tuple[int, int]]:
        """Pairs contributed by the empty path for a nullable expression."""
        if subject_id is not None and object_id is not None:
            return {(subject_id, object_id)} if subject_id == object_id \
                else set()
        if subject_id is not None:
            return {(subject_id, subject_id)}
        if object_id is not None:
            return {(object_id, object_id)}
        return {(v, v) for v in self.all_nodes()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(|G|={len(self.graph.triples)})"
