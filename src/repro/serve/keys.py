"""Cache keys for served query results.

A result cache is only sound if two queries sharing a key are
guaranteed the same answer set.  Three ingredients make that hold:

* **Expression normalization** — set semantics (the paper evaluates
  everything ``DISTINCT``) make disjunction commutative and
  idempotent, concatenation associative, and the closures collapsible
  (``(E*)* = E*``, ``(E+)? = E*`` …).  :func:`normalize_expr` rewrites
  an expression to a canonical representative of its equivalence
  class, so ``(a)|b`` and ``b|a|b`` hit the same cache line.  Only
  identities that provably preserve the *answer set* are applied; the
  normalized tree is used as a key, never evaluated.
* **Endpoint normalization** — the engine dispatches on the *shape*
  of a query, not on variable names (``(?x, E, ?y)`` and
  ``(?a, E, ?b)`` run identically), so variables collapse to a single
  sentinel while constants keep their labels.
* **Graph fingerprint** — the key embeds a digest of the ring's
  payload so a cache survives an index swap without serving stale
  answers: a different graph yields a different fingerprint and every
  old key simply never matches again.
"""

from __future__ import annotations

import zlib

from repro.automata.syntax import (
    Concat,
    Epsilon,
    Optional,
    Plus,
    RegexNode,
    Star,
    Union,
)
from repro.core.query import RPQ, Variable

#: Sentinel replacing every variable endpoint in a cache key: the
#: engine never consults variable identity (no join semantics inside a
#: single RPQ), so ``?x`` and ``?y`` are interchangeable.
VAR = "?"


def normalize_expr(expr: RegexNode) -> RegexNode:
    """Canonical representative of ``expr``'s answer-set class.

    Applied bottom-up:

    * ``Concat``: flatten nested concatenations, drop ``ε`` factors,
      unwrap singletons (associativity; ε is the unit).
    * ``Union``: flatten, deduplicate and sort children by their
      textual form (commutative + idempotent under set semantics).
    * Closure collapses: ``(E*)* → E*``, ``(E+)* → E*``, ``(E?)* → E*``,
      ``(E*)+ → E*``, ``(E+)+ → E+``, ``(E?)+ → E*``, ``(E*)? → E*``,
      ``(E+)? → E*``, ``(E?)? → E?``, and any closure of ``ε`` is ``ε``.

    The result is itself a valid expression; equality of normalized
    trees implies equality of answer sets (the converse is of course
    not decided — this is a cheap syntactic normal form, not a
    minimal-automaton check).
    """
    if isinstance(expr, Concat):
        flat: list[RegexNode] = []
        for child in expr.children:
            child = normalize_expr(child)
            if isinstance(child, Epsilon):
                continue
            if isinstance(child, Concat):
                flat.extend(child.children)
            else:
                flat.append(child)
        if not flat:
            return Epsilon()
        if len(flat) == 1:
            return flat[0]
        return Concat(tuple(flat))

    if isinstance(expr, Union):
        members: dict[str, RegexNode] = {}
        stack = list(expr.children)
        while stack:
            child = normalize_expr(stack.pop())
            if isinstance(child, Union):
                stack.extend(child.children)
                continue
            members.setdefault(str(child), child)
        ordered = [members[k] for k in sorted(members)]
        if len(ordered) == 1:
            return ordered[0]
        return Union(tuple(ordered))

    if isinstance(expr, Star):
        child = normalize_expr(expr.child)
        if isinstance(child, Epsilon):
            return child
        if isinstance(child, (Star, Plus, Optional)):
            return Star(child.child)
        return Star(child)

    if isinstance(expr, Plus):
        child = normalize_expr(expr.child)
        if isinstance(child, Epsilon):
            return child
        if isinstance(child, Star):
            return child
        if isinstance(child, Plus):
            return child
        if isinstance(child, Optional):
            return Star(child.child)
        return Plus(child)

    if isinstance(expr, Optional):
        child = normalize_expr(expr.child)
        if isinstance(child, (Epsilon, Star, Optional)):
            return child
        if isinstance(child, Plus):
            return Star(child.child)
        return Optional(child)

    # Symbol / NegatedClass / Epsilon: already canonical.
    return expr


def _normalize_endpoint(endpoint) -> tuple[str, str]:
    if isinstance(endpoint, Variable):
        return ("v", VAR)
    return ("c", endpoint)


def index_fingerprint(index) -> str:
    """Digest of the index payload, memoised on the index object.

    Hashes the wavelet-matrix level bitvectors of ``L_p`` (one bit per
    completed triple per level — any change to the triple set perturbs
    them) together with the structural counts, via CRC-32.  This is
    not a cryptographic commitment; it distinguishes *different graph
    versions behind one service*, where collisions would need an
    adversarial graph, not an unlucky one.
    """
    cached = getattr(index, "_serve_fingerprint", None)
    if cached is not None:
        return cached
    ring = index.ring
    crc = 0
    for words, _, n_bits in ring.L_p._held_levels():
        crc = zlib.crc32(words.tobytes(), crc)
        # The zero sentinel word of the packed export, which this hash
        # was first taken over: cache keys outlive a code version.
        crc = zlib.crc32(bytes(8), crc)
        crc = zlib.crc32(n_bits.to_bytes(8, "little"), crc)
    dictionary = index.dictionary
    for n in (len(ring), dictionary.num_nodes, dictionary.num_predicates):
        crc = zlib.crc32(int(n).to_bytes(8, "little"), crc)
    fingerprint = f"{len(ring)}-{crc:08x}"
    index._serve_fingerprint = fingerprint
    return fingerprint


def query_cache_key(query: RPQ, fingerprint: str,
                    backend: str | None = None) -> tuple:
    """The cache key of ``query`` against the index ``fingerprint``.

    A hashable tuple of the fingerprint, both normalized endpoints and
    the textual form of the normalized expression (expression trees
    are frozen dataclasses, but the string keeps the key cheap to
    compare and trivially printable in debug output).

    ``backend`` joins the key when the serving engine routes between
    backends: *complete* answer sets are backend-independent, but a
    *truncated* entry keeps whichever prefix its backend's emission
    order produced, so a hit must never cross backends.  The service
    resolves the routing decision before its cache lookup and passes
    it here; single-backend services leave it ``None`` (keys stay
    identical to the pre-routing format).
    """
    key = (
        fingerprint,
        _normalize_endpoint(query.subject),
        str(normalize_expr(query.expr)),
        _normalize_endpoint(query.object),
    )
    if backend is not None:
        key = (*key, backend)
    return key
