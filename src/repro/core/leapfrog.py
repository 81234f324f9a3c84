"""Leapfrog-Triejoin-style access to an RPQ relation (§6 extension).

The paper's conclusions sketch how the ring's RPQ machinery plugs into
worst-case-optimal multijoins: treat ``(x, E, y)`` as a relation and
serve the Leapfrog Triejoin's probes — *"the smallest x ≥ x0 that has a
solution for some y"*, then, with ``x`` bound, *"the smallest y ≥ y0"*
— using the wavelet trees' ability to binary-partition candidate
ranges.

:class:`RPQRelation` implements exactly that interface:

* :meth:`seek_subject` — smallest subject id ``>= lower`` with at
  least one solution.  Candidates are enumerated in id order straight
  from the ``L_s`` predicate ranges of the expression's *first* atoms
  (via ``range_next_value``, the successive-binary-partitioning
  primitive), and each candidate is verified with an anchored boolean
  run that stops at the first reported answer — no full evaluation.
* :meth:`seek_object` — smallest object id ``>= lower`` for a bound
  subject (solutions per subject are computed once and cached).

Together these are sufficient for a Leapfrog join over a mix of triple
patterns and RPQ "virtual relations"; ``join_subjects`` demonstrates
the classic unary leapfrog intersection over several relations.
"""

from __future__ import annotations

from bisect import bisect_left

from repro._util.bits import iter_set_bits
from repro.automata.glushkov import resolve_atom_to_predicates
from repro.automata.parser import parse_regex
from repro.automata.syntax import RegexNode
from repro.core.batchrun import BatchedBackwardRun
from repro.core.engine import _Budget, _EvalContext, _Prepared
from repro.core.result import QueryStats
from repro.obs.metrics import NULL_METRICS


class RPQRelation:
    """A seekable binary relation ``{(s, o) | s -E-> o}`` over node ids.

    Parameters
    ----------
    index:
        The :class:`~repro.ring.builder.RingIndex` to evaluate against.
    expr:
        The path expression (AST or text).
    """

    def __init__(self, index, expr: RegexNode | str):
        if isinstance(expr, str):
            expr = parse_regex(expr)
        self.index = index
        self.expr = expr
        self.stats = QueryStats()
        # The anchored checks run the reversed expression from the
        # candidate subject (it plays the object role there).
        self._prepared_reverse = _Prepared(expr.reverse(), index)
        self._prepared_forward = _Prepared(expr, index)
        self._nullable = self._prepared_forward.automaton.nullable
        self._first_ranges = self._subject_candidate_ranges()
        self._objects_cache: dict[int, list[int]] = {}
        self._subject_known: dict[int, bool] = {}

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------

    def _subject_candidate_ranges(self) -> list[tuple[int, int]]:
        """``L_s`` ranges whose symbols are candidate subjects.

        A non-empty path matching ``E`` must leave its subject through
        an edge whose predicate matches one of the *first* atoms of the
        Glushkov automaton; the subjects of those edges are exactly the
        symbols of the corresponding ``C_p`` ranges of ``L_s``.
        """
        automaton = self._prepared_forward.automaton
        dictionary = self.index.dictionary
        ring = self.index.ring
        ranges = []
        seen: set[int] = set()
        for position in iter_set_bits(automaton.first_mask):
            if position == 0:
                continue
            atom = automaton.atoms[position - 1]
            for pid in resolve_atom_to_predicates(atom, dictionary):
                if pid in seen:
                    continue
                seen.add(pid)
                b, e = ring.predicate_range(pid)
                if b < e:
                    ranges.append((b, e))
        return ranges

    def _next_candidate(self, lower: int) -> int | None:
        """Smallest candidate subject id ``>= lower``."""
        if self._nullable:
            # Every node matches via the empty path.
            return lower if lower < self.index.dictionary.num_nodes \
                else None
        best: int | None = None
        ls = self.index.ring.L_s
        for b, e in self._first_ranges:
            found = ls.range_next_value(b, e, lower)
            if found is not None and (best is None or found < best):
                best = found
                if best == lower:
                    break
        return best

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def _has_solution(self, subject: int) -> bool:
        """Boolean check: does ``subject`` start any matching path?"""
        if self._nullable:
            return True
        cached = self._subject_known.get(subject)
        if cached is not None:
            return cached
        run = BatchedBackwardRun(
            self.index.engine, self._prepared_reverse,
            _EvalContext(_Budget(None), self.stats, NULL_METRICS),
            prune=True,
        )
        reported = run.run(
            self.index.ring.object_range(subject),
            start_node=subject,
            max_reported=1,
        )
        has = bool(reported)
        self._subject_known[subject] = has
        return has

    def _objects_of(self, subject: int) -> list[int]:
        """All objects for a bound subject, sorted (cached)."""
        cached = self._objects_cache.get(subject)
        if cached is not None:
            return cached
        run = BatchedBackwardRun(
            self.index.engine, self._prepared_reverse,
            _EvalContext(_Budget(None), self.stats, NULL_METRICS),
            prune=True,
        )
        reported = run.run(
            self.index.ring.object_range(subject),
            start_node=subject,
        )
        objects = sorted(reported)
        if self._nullable and (not objects or objects[0] != subject):
            # The empty path contributes (s, s).
            objects = sorted(set(objects) | {subject})
        self._objects_cache[subject] = objects
        self._subject_known[subject] = bool(objects)
        return objects

    # ------------------------------------------------------------------
    # The Leapfrog probe interface
    # ------------------------------------------------------------------

    def seek_subject(self, lower: int = 0) -> int | None:
        """Smallest subject id ``>= lower`` with at least one solution."""
        candidate = self._next_candidate(lower)
        while candidate is not None:
            if self._has_solution(candidate):
                return candidate
            candidate = self._next_candidate(candidate + 1)
        return None

    def seek_object(self, subject: int, lower: int = 0) -> int | None:
        """Smallest object id ``>= lower`` reachable from ``subject``."""
        objects = self._objects_of(subject)
        i = bisect_left(objects, lower)
        return objects[i] if i < len(objects) else None

    def iter_subjects(self):
        """All subjects with solutions, ascending, via repeated seeks."""
        current = self.seek_subject(0)
        while current is not None:
            yield current
            current = self.seek_subject(current + 1)

    def iter_pairs(self):
        """All ``(subject, object)`` id pairs, in lexicographic order."""
        for subject in self.iter_subjects():
            for obj in self._objects_of(subject):
                yield (subject, obj)


class TriplePatternRelation:
    """A seekable relation from one triple pattern ``(x, p, o?)``.

    The §6 vision is a Leapfrog Triejoin over a *mix* of ordinary
    triple patterns and RPQ virtual relations; this class provides the
    triple-pattern side with the same probe interface as
    :class:`RPQRelation`, served directly from the ring:

    * with the object free, candidate subjects live in the ``L_s``
      range of predicate ``p`` and are seeked with
      ``range_next_value``;
    * with the object bound, one backward-search step narrows that
      range to the subjects of ``(?, p, o)`` first.
    """

    def __init__(self, index, predicate: str, object: str | None = None):
        self.index = index
        dictionary = index.dictionary
        ring = index.ring
        self.stats = QueryStats()
        if not dictionary.has_predicate(predicate) or (
            object is not None and not dictionary.has_node(object)
        ):
            self._range = (0, 0)
            self._pid = None
            return
        self._pid = dictionary.predicate_id(predicate)
        if object is None:
            self._range = ring.predicate_range(self._pid)
        else:
            b_o, e_o = ring.object_range(dictionary.node_id(object))
            self._range = ring.backward_step(b_o, e_o, self._pid)

    def seek_subject(self, lower: int = 0) -> int | None:
        """Smallest subject id ``>= lower`` with a matching triple."""
        b, e = self._range
        if b >= e:
            return None
        self.stats.storage_ops += 1
        return self.index.ring.L_s.range_next_value(b, e, lower)

    def seek_object(self, subject: int, lower: int = 0) -> int | None:
        """Smallest object id ``>= lower`` for a bound subject."""
        if self._pid is None:
            return None
        dictionary = self.index.dictionary
        ring = self.index.ring
        inv = dictionary.inverse_predicate(self._pid)
        b_o, e_o = ring.object_range(subject)
        b, e = ring.backward_step(b_o, e_o, inv)
        self.stats.storage_ops += 1
        return ring.L_s.range_next_value(b, e, lower)

    def iter_subjects(self):
        """All distinct subjects, ascending, via repeated seeks."""
        current = self.seek_subject(0)
        while current is not None:
            yield current
            current = self.seek_subject(current + 1)


def join_subjects(relations: list[RPQRelation]) -> list[int]:
    """Unary leapfrog intersection: subjects present in *every* relation.

    The classic Leapfrog Triejoin inner loop: keep seeking each
    relation to the current maximum until all agree, then emit and
    advance — worst-case-optimal for the intersection.
    """
    if not relations:
        return []
    out: list[int] = []
    current = 0
    while True:
        seeks = []
        for relation in relations:
            position = relation.seek_subject(current)
            if position is None:
                return out
            seeks.append(position)
        highest = max(seeks)
        if all(position == highest for position in seeks):
            out.append(highest)
            current = highest + 1
        else:
            current = highest
