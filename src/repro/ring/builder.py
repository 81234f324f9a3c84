"""User-facing index: dictionary + ring built from a labeled graph.

:class:`RingIndex` is the main entry point of the library::

    from repro import RingIndex
    from repro.graph import santiago_transport

    index = RingIndex.from_graph(santiago_transport())
    for s, o in index.evaluate("(?x, l5+/bus, ?y)"):
        print(s, "→", o)

It owns the string↔id dictionary, the completed triple set, the ring,
and a lazily constructed RPQ engine.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graph.model import Graph, Triple
from repro.ring.dictionary import Dictionary
from repro.ring.ring import Ring, listing_runs


class RingIndex:
    """A ring plus the dictionary that maps labels to its integer ids."""

    def __init__(self, dictionary: Dictionary, ring: Ring):
        self.dictionary = dictionary
        self.ring = ring
        self._engine = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        node_order: Iterable[str] | None = None,
        predicate_order: Iterable[str] | None = None,
        keep_object_column: bool = False,
        compressed_boundaries: bool = False,
    ) -> "RingIndex":
        """Build the index from a (non-completed) string-labeled graph.

        The graph is completed first — every edge gains its reverse
        twin labeled with the inverse predicate (§5, "Index
        construction"), which doubles the edge count unless some
        predicates are declared symmetric on the graph.
        """
        completed = graph.completion()
        dictionary = Dictionary.from_graph(
            graph, node_order=node_order, predicate_order=predicate_order
        )
        triples = dictionary.encode_triples(completed)
        ring = Ring(
            triples,
            num_nodes=dictionary.num_nodes,
            num_predicates=dictionary.num_predicates,
            keep_object_column=keep_object_column,
            compressed_boundaries=compressed_boundaries,
        )
        return cls(dictionary, ring)

    @classmethod
    def from_triples(
        cls, triples: Iterable[Triple], **kwargs
    ) -> "RingIndex":
        """Convenience wrapper: build from raw string triples."""
        return cls.from_graph(Graph(triples), **kwargs)

    # ------------------------------------------------------------------
    # Queries (delegated to the core engine)
    # ------------------------------------------------------------------

    @property
    def engine(self):
        """The Ring-RPQ engine bound to this index (built lazily)."""
        if self._engine is None:
            from repro.core.engine import RingRPQEngine

            self._engine = RingRPQEngine(self)
        return self._engine

    def evaluate(self, query, **kwargs):
        """Evaluate an RPQ; accepts a query string or an ``RPQ`` object.

        Returns a set of ``(subject, object)`` label pairs; see
        :meth:`repro.core.engine.RingRPQEngine.evaluate`.
        """
        return self.engine.evaluate(query, **kwargs)

    # ------------------------------------------------------------------
    # Triple-pattern access (the ring's original join-support role)
    # ------------------------------------------------------------------

    def match_pattern(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        object: str | None = None,
    ):
        """Iterate the completed graph's triples matching an SPO pattern.

        ``None`` components are wildcards.  All access paths run on the
        ring itself (backward-search steps and wavelet-range listings);
        patterns with a fixed subject are answered through the inverse
        predicate of the completed graph, which is how the RPQ engine
        handles direction throughout.

        Yields ``(subject, predicate, object)`` label triples.
        """
        d = self.dictionary
        ring = self.ring
        if subject is not None and not d.has_node(subject):
            return
        if object is not None and not d.has_node(object):
            return
        if predicate is not None and not d.has_predicate(predicate):
            return

        if predicate is not None and subject is not None:
            # (s, p, ?o)  ==  (?o, ^p, s) on the completed graph; a
            # fully bound pattern additionally filters the object.
            inv = d.predicate_label(
                d.inverse_predicate(d.predicate_id(predicate))
            )
            for o_label, _, s_label in self.match_pattern(
                None, inv, subject
            ):
                if object is None or o_label == object:
                    yield (s_label, predicate, o_label)
            return

        if predicate is not None and object is not None:
            b_o, e_o = ring.object_range(d.node_id(object))
            b_s, e_s = ring.backward_step(b_o, e_o, d.predicate_id(predicate))
            for s_id, rb, re in ring.L_s.range_distinct(b_s, e_s):
                for _ in range(re - rb):
                    yield (d.node_label(s_id), predicate, object)
            return

        if predicate is not None:
            # (?s, p, ?o): §5's single-predicate listing, on the batch
            # kernels like the engine's fast path — all subjects take
            # the C_o lookup and the Eq. 4–5 step at once, the objects
            # are listed one bounded run of subjects at a time (a
            # consumer that stops early pays for one run), and the
            # rank pairs a descent returns are the multiplicities.
            pid = d.predicate_id(predicate)
            inv = d.inverse_predicate(pid)
            _, subjects, _, _ = ring.L_s.descend_batch(
                [ring.predicate_range(pid)]
            )
            steps = ring.backward_step_many(
                ring.object_ranges_many(subjects), inv
            )
            labels = d.node_labels
            for lo, hi in listing_runs(steps[:, 1] - steps[:, 0]):
                origins, objects, rank_b, rank_e = ring.L_s.descend_batch(
                    steps[lo:hi]
                )
                for s_id, o_id, copies in zip(
                    subjects[lo:hi][origins].tolist(), objects.tolist(),
                    (rank_e - rank_b).tolist(),
                ):
                    for _ in range(copies):
                        yield (labels[s_id], predicate, labels[o_id])
            return

        if object is not None and subject is None:
            # (?s, ?p, o): predicates from the object's L_p range.
            b_o, e_o = ring.object_range(d.node_id(object))
            for pid, _, _ in ring.L_p.range_distinct(b_o, e_o):
                yield from self.match_pattern(
                    None, d.predicate_label(pid), object
                )
            return

        if subject is not None and object is None:
            # (s, ?p, ?o): invert the edges arriving at s.
            b_o, e_o = ring.object_range(d.node_id(subject))
            for pid, _, _ in ring.L_p.range_distinct(b_o, e_o):
                inv_label = d.predicate_label(d.inverse_predicate(pid))
                yield from self.match_pattern(subject, inv_label, None)
            return

        if subject is not None and object is not None:
            # (s, ?p, o): filter the object's predicates by subject.
            b_o, e_o = ring.object_range(d.node_id(object))
            s_id = d.node_id(subject)
            for pid, _, _ in ring.L_p.range_distinct(b_o, e_o):
                b_s, e_s = ring.backward_step(b_o, e_o, pid)
                rb, re = ring.L_s.rank_pair(s_id, b_s, e_s)
                for _ in range(re - rb):
                    yield (subject, d.predicate_label(pid), object)
            return

        # Fully unbound: enumerate everything.
        for triple in ring.iter_triples():
            yield d.decode_triple(triple)

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def size_in_bits(self, include_dictionary: bool = False) -> int:
        """Index size; the paper reports the ring without the dictionary."""
        bits = self.ring.size_in_bits()
        if include_dictionary:
            bits += self.dictionary.size_in_bits()
        return bits

    def bytes_per_triple(self) -> float:
        """Bytes per *completed* triple (the paper's space unit)."""
        n = max(1, len(self.ring))
        return self.ring.size_in_bits() / 8 / n

    def measure(self, name: str = "index"):
        """Space-audit tree: ring columns + dictionary, plus the sparse
        backend's block cache when one hangs off this index — the
        blocks decoded so far; the audit never decodes one."""
        from repro.obs.space import SpaceNode

        children = [
            self.ring.measure("ring"),
            SpaceNode("dictionary", self.dictionary.size_in_bits() // 8,
                      kind="dictionary",
                      detail={"nodes": self.dictionary.num_nodes,
                              "predicates": self.dictionary.num_predicates}),
        ]
        store = getattr(self, "_matrix_store", None)
        if store is not None:
            children.append(store.measure("matrix"))
        return SpaceNode(name, children=children, kind="index",
                         detail={"n_triples": len(self.ring)})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingIndex({self.ring!r})"
