"""Start-side selection for variable-to-variable queries (§5).

For a query ``(?x, E, ?y)`` the engine first finds, with one traversal
from the full ``L_p`` range, all the bindings of *one* side, and then
launches one anchored subquery per binding.  Which side to anchor
matters: §5 settles on *"we choose to start from the end whose
predicate has the smallest cardinality"* (and always starts from
``p1`` for ``p1/p2*``-shaped queries, which the same rule implies
whenever ``p1`` is not the rarer label anyway).

The cardinality of a side is estimated as the number of graph edges
matching the atoms adjacent to that side: the *first* atoms of ``E``
for the subject side, the *last* atoms for the object side — both read
off the Glushkov automaton, with edge counts taken from the ring's
``C_p`` boundaries at zero extra cost.

The same statistics price a query before it runs:
:func:`estimate_rpq_cost` is EXPLAIN's pre-execution estimate of the
ring's traversal work, read off :func:`plan_inputs`, the one view of a
query (automaton, ``B`` table, matching edges) that EXPLAIN builds.
Nothing routes on these estimates: the routed engine picks its
backend by query shape alone (:mod:`repro.matrix.routed`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro._util.bits import iter_set_bits
from repro.automata.glushkov import (
    GlushkovAutomaton,
    build_glushkov,
    resolve_atom_to_predicates,
)
from repro.core.query import RPQ, as_query
from repro.ring.ring import Ring

#: Modeled cost of one ring storage operation on the paper's C++
#: substrate: an sdsl bitvector rank on RAM-resident data (published
#: sdsl benchmarks; cache-missing reads ~50-100 ns).
MODELED_RING_OP_SECONDS = 60e-9

#: The paper's timeout; modeled and predicted times are censored here.
MODELED_TIMEOUT = 60.0


def side_cardinality(
    automaton: GlushkovAutomaton,
    positions_mask: int,
    dictionary,
    ring: Ring,
) -> int:
    """Total edges matching the atoms at the given position bitset."""
    total = 0
    seen: set[int] = set()
    for position in iter_set_bits(positions_mask):
        if position == 0:
            continue  # the initial state carries no atom
        atom = automaton.atoms[position - 1]
        for pid in resolve_atom_to_predicates(atom, dictionary):
            if pid not in seen:
                seen.add(pid)
                total += ring.predicate_count(pid)
    return total


def choose_anchor_side(
    automaton: GlushkovAutomaton,
    dictionary,
    ring: Ring,
) -> str:
    """``"subject"`` or ``"object"``: which end to bind first (§5).

    Anchoring the subject side means: find all subjects with one
    full-range backward pass of ``E``, then run one ``(s, E, ?y)``
    subquery per subject.  Anchoring the object side is symmetric,
    with ``^E``.
    """
    subject_cost = side_cardinality(
        automaton, automaton.first_mask, dictionary, ring
    )
    object_cost = side_cardinality(
        automaton, automaton.last_mask, dictionary, ring
    )
    return "subject" if subject_cost <= object_cost else "object"


# ----------------------------------------------------------------------
# Pre-execution work estimation (EXPLAIN)
# ----------------------------------------------------------------------


class PlanInputs(NamedTuple):
    """What every pre-execution estimate reads off index and query."""

    rpq: RPQ
    automaton: GlushkovAutomaton
    #: Predicate id -> NFA states it activates (the ``B`` table).
    b_masks: dict
    #: Graph edges carrying any predicate of the ``B`` table.
    edges: int
    #: Bound on distinct nodes a traversal can touch.
    touched: int


def plan_inputs(index, query) -> PlanInputs:
    """The estimates' shared view of ``query`` (a :class:`PlanInputs`
    passes through, so one EXPLAIN builds the automaton once)."""
    if isinstance(query, PlanInputs):
        return query
    rpq = as_query(query)
    automaton = build_glushkov(rpq.expr)
    dictionary = index.dictionary
    b_masks = automaton.b_masks(
        lambda atom: resolve_atom_to_predicates(atom, dictionary)
    )
    ring = index.ring
    edges = sum(ring.predicate_count(pid) for pid in b_masks)
    return PlanInputs(
        rpq, automaton, b_masks, edges, min(ring.num_nodes, edges)
    )


@dataclass(frozen=True)
class PlanEstimate:
    """Predicted traversal work for one query, before running it.

    The estimates are coarse upper bounds derived from index statistics
    alone (predicate cardinalities off ``C_p``, alphabet sizes, wavelet
    heights) — the same inputs the §5 planner reads.  ``repro explain
    --analyze`` puts them next to the actual :class:`QueryStats`
    counters; large misestimation ratios are exactly where the
    ``B[v]``/``D[v]`` pruning beats (or loses to) the selectivity-only
    view of the query.
    """

    query: str
    shape: str
    #: Graph edges carrying any predicate of the automaton's B table.
    edges: int
    #: Bound on distinct product-graph node visits per traversal.
    touched_nodes: int
    #: Estimated Eq. 4–5 backward-search steps.
    backward_steps: int
    #: Estimated L_p wavelet nodes visited (§4.1 descents).
    lp_nodes: int
    #: Estimated L_s wavelet nodes visited (§4.2 descents).
    ls_nodes: int
    #: Estimated rank operations (2 per visited internal node).
    storage_ops: int
    #: ``storage_ops`` priced at the ring's modeled per-op cost.
    modeled_seconds: float

    def counts(self) -> dict[str, int]:
        """The estimated counters, keyed like ``QueryStats`` fields."""
        return {
            "lp_nodes": self.lp_nodes,
            "ls_nodes": self.ls_nodes,
            "backward_steps": self.backward_steps,
            "storage_ops": self.storage_ops,
        }


def estimate_rpq_cost(index, query) -> PlanEstimate:
    """Estimate the traversal work of ``query`` (a query, or the
    :func:`plan_inputs` already taken of it) against ``index``.

    The model, phase by phase:

    * every edge whose predicate appears in the automaton's ``B`` table
      can cross the traversal at most a constant number of times, so
      ``edges`` bounds the backward steps;
    * each product-graph expansion runs one L_p descent whose frontier
      can touch at most ``min(2^level, |B|)`` nodes per level (the
      descent forks only toward predicates in the ``B`` table);
      expansions are bounded by the nodes touched,
      ``min(|V|, edges)``;
    * each backward step runs one L_s descent; the ``D[v]`` marks make
      total L_s work output-sensitive — each *distinct* subject is
      discovered along one root-to-leaf path, giving
      ``touched × (height + 1)`` visited nodes;
    * variable-to-variable queries pay everything twice (the full-range
      binding pass, then the anchored runs over the reverse automaton).
    """
    rpq, _, b_masks, edges, touched = plan_inputs(index, query)
    shape = rpq.shape()
    ring = index.ring

    n_preds = max(1, len(b_masks))
    lp_path = sum(
        min(1 << level, n_preds) for level in range(ring.L_p.height + 1)
    )
    descents = max(1, touched)
    lp_nodes = descents * lp_path
    ls_nodes = touched * (ring.L_s.height + 1)
    backward_steps = max(1, edges)

    if shape == "vv":
        lp_nodes *= 2
        ls_nodes *= 2
        backward_steps *= 2

    storage_ops = 2 * (lp_nodes + ls_nodes)
    return PlanEstimate(
        query=str(rpq),
        shape=shape,
        edges=edges,
        touched_nodes=touched,
        backward_steps=backward_steps,
        lp_nodes=lp_nodes,
        ls_nodes=ls_nodes,
        storage_ops=storage_ops,
        modeled_seconds=min(
            MODELED_TIMEOUT, storage_ops * MODELED_RING_OP_SECONDS
        ),
    )


def query_working_set_bytes(index, nfa_bits: int = 16) -> float:
    """Absolute query-time working space of the ring engine, in bytes.

    Mirrors §5: the ``D`` visited array is one ``nfa_bits`` cell per
    node plus the lazy-initialisation structure, and ``B`` one cell per
    predicate — both tiny relative to the index.  This is the
    pre-execution estimate EXPLAIN prints; per-edge normalisation lives
    in :func:`repro.bench.space.working_space_bytes_per_edge`.
    """
    d_bits = index.dictionary.num_nodes * (nfa_bits + 2)
    b_bits = index.dictionary.num_predicates * nfa_bits
    return (d_bits + b_bits) / 8
