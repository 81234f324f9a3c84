"""Dictionary encoding of nodes and predicates.

The ring operates on integers: nodes get ids ``0..|V|-1`` (subjects and
objects share the id space, §4) and predicates of the *completed* graph
get ids ``0..|P⁺|-1``.  Following §5 of the paper, the inverse of an
original predicate ``p`` normally receives id ``id(p) + |P|``; symmetric
predicates (whose edges are stored in both directions under one label)
are their own inverses and get no twin.

The dictionary also remembers which ids are inverse labels so query
results and explanations can be rendered back in the user's vocabulary.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import ConstructionError, UnknownSymbolError
from repro.graph.model import Graph, inverse_label, is_inverse_label


class Dictionary:
    """Bidirectional mapping between labels and dense integer ids."""

    def __init__(
        self,
        nodes: Sequence[str],
        predicates: Sequence[str],
        inverse_ids: Sequence[int],
    ):
        if len(predicates) != len(inverse_ids):
            raise ConstructionError("inverse_ids must match predicates")
        self._nodes = tuple(nodes)
        self._preds = tuple(predicates)
        self._inverse = tuple(inverse_ids)
        self._node_id = {name: i for i, name in enumerate(self._nodes)}
        self._pred_id = {name: i for i, name in enumerate(self._preds)}
        if len(self._node_id) != len(self._nodes):
            raise ConstructionError("duplicate node labels")
        if len(self._pred_id) != len(self._preds):
            raise ConstructionError("duplicate predicate labels")
        for p, q in enumerate(self._inverse):
            if not 0 <= q < len(self._preds) or self._inverse[q] != p:
                raise ConstructionError("inverse mapping is not an involution")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        node_order: Iterable[str] | None = None,
        predicate_order: Iterable[str] | None = None,
    ) -> "Dictionary":
        """Build the dictionary for (the completion of) ``graph``.

        ``node_order`` / ``predicate_order`` override the default sorted
        id assignment — used to replicate the paper's Fig. 3 numbering.
        Predicates listed must be those of the *original* graph;
        inverse labels are appended automatically for every
        non-symmetric predicate.
        """
        nodes = list(node_order) if node_order is not None else graph.nodes
        node_set = set(nodes)
        for n in graph.nodes:
            if n not in node_set:
                raise ConstructionError(f"node_order misses node {n!r}")

        originals = [p for p in graph.predicates if not is_inverse_label(p)]
        if predicate_order is not None:
            ordered = [p for p in predicate_order if not is_inverse_label(p)]
            if set(ordered) != set(originals):
                raise ConstructionError(
                    "predicate_order must list exactly the original "
                    "predicates"
                )
            originals = ordered

        predicates = list(originals)
        inverse: dict[str, str] = {}
        for p in originals:
            if p in graph.symmetric_predicates:
                inverse[p] = p
            else:
                predicates.append(inverse_label(p))
                inverse[p] = inverse_label(p)
                inverse[inverse_label(p)] = p

        pred_index = {name: i for i, name in enumerate(predicates)}
        inverse_ids = [pred_index[inverse[p]] for p in predicates]
        return cls(nodes, predicates, inverse_ids)

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of distinct nodes, ``|V|``."""
        return len(self._nodes)

    @property
    def num_predicates(self) -> int:
        """Number of predicates in the completed alphabet, ``|P⁺|``."""
        return len(self._preds)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def node_id(self, label: str) -> int:
        """Id of a node label; raises ``UnknownSymbolError`` if absent."""
        try:
            return self._node_id[label]
        except KeyError:
            raise UnknownSymbolError("node", label) from None

    def node_label(self, node_id: int) -> str:
        """Label of a node id."""
        return self._nodes[node_id]

    def has_node(self, label: str) -> bool:
        """True when the node label is known."""
        return label in self._node_id

    def predicate_id(self, label: str) -> int:
        """Id of a predicate label (accepts ``^p`` inverse spellings)."""
        try:
            return self._pred_id[label]
        except KeyError:
            raise UnknownSymbolError("predicate", label) from None

    def predicate_label(self, pred_id: int) -> str:
        """Label of a predicate id."""
        return self._preds[pred_id]

    def has_predicate(self, label: str) -> bool:
        """True when the predicate label is known."""
        return label in self._pred_id

    def inverse_predicate(self, pred_id: int) -> int:
        """Id of the inverse of a predicate id (an involution)."""
        return self._inverse[pred_id]

    @property
    def node_labels(self) -> tuple[str, ...]:
        """All node labels, id order."""
        return self._nodes

    @property
    def predicate_labels(self) -> tuple[str, ...]:
        """All predicate labels of the completed alphabet, id order."""
        return self._preds

    # ------------------------------------------------------------------
    # Encoding triples
    # ------------------------------------------------------------------

    def encode_triples(self, graph: Graph) -> list[tuple[int, int, int]]:
        """Integer-encode the triples of an (already completed) graph."""
        return [
            (self.node_id(s), self.predicate_id(p), self.node_id(o))
            for s, p, o in graph
        ]

    def decode_triple(self, triple: tuple[int, int, int]) -> tuple[str, str, str]:
        """Map an integer triple back to labels."""
        s, p, o = triple
        return (self._nodes[s], self._preds[p], self._nodes[o])

    def measure(self, name: str = "dictionary"):
        """Space-audit leaf, an estimate: UTF-8 label bytes plus one
        32-bit offset per label."""
        from repro.obs.space import SpaceNode

        label_bytes = sum(len(x.encode("utf-8")) for x in self._nodes)
        label_bytes += sum(len(x.encode("utf-8")) for x in self._preds)
        offsets = (len(self._nodes) + len(self._preds)) * 4
        return SpaceNode(name, label_bytes + offsets, kind="dictionary",
                         detail={"nodes": self.num_nodes,
                                 "predicates": self.num_predicates})
