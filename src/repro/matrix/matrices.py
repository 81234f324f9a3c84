"""Per-predicate boolean adjacency matrices of the completed graph.

The linear-algebra view of an edge-labeled graph is one |V| x |V|
boolean matrix per predicate: ``M_p[s, o] = 1`` iff ``(s, p, o)`` is a
(completed) triple.  Because the graph is completed, every predicate's
inverse twin ``^p`` is itself a predicate of the alphabet, so the
transpose needed for two-way atoms already exists as its own matrix —
the matrix engine never transposes at query time.

Matrices are CSR with ``bool`` payload.  scipy's sparse matmul on bool
operands stays bool and *saturates* (many parallel paths still yield
``True``), which makes ``@`` exactly the boolean semiring product —
there is no integer-overflow hazard to guard against.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
import scipy.sparse as sp


class PredicateMatrices:
    """The completed graph as one boolean CSR matrix per predicate — a
    lazily decoded cache of the ring.

    The store holds no second index: construction is O(|P|) (edge
    counts are differences of ``C_p``), and :meth:`matrix` decodes a
    predicate's CSR block out of the ring on first use
    (:meth:`~repro.ring.ring.Ring.predicate_edges`, ≈ 1 ms) and keeps
    it.  Nothing is evicted: fully decoded, the cache is exactly the
    eagerly compiled store it replaces.

    Parameters
    ----------
    ring:
        The :class:`~repro.ring.ring.Ring` of the *completed* graph
        (both directions present), built or view-attached.
    """

    def __init__(self, ring):
        self.num_nodes = ring.num_nodes
        self._ring = ring
        # Decoded once per store (an Elias-Fano array decodes in O(m)
        # Python steps); a plain boundary array is returned as it is.
        self._c_p = ring.C_p.to_array()
        self._c_o = ring.C_o.to_array()
        self._matrices: dict[int, sp.csr_matrix] = {}

    @classmethod
    def from_index(cls, index) -> "PredicateMatrices":
        """The (memoised) store of a ring index.

        One store per index object — the matrix engine, the routed
        engine and the benchmarks all share its decoded blocks,
        mirroring how the baselines share one
        :class:`~repro.baselines.base.EncodedGraph`.
        """
        cached = getattr(index, "_matrix_store", None)
        if cached is not None:
            return cached
        store = cls(index.ring)
        index._matrix_store = store
        return store

    # ------------------------------------------------------------------

    def matrix(self, pid: int) -> "sp.csr_matrix | None":
        """The boolean adjacency of one predicate, or ``None`` when no
        edge carries it.

        Decoded on first use.  Concurrent first touches may each
        decode the block; ``setdefault`` keeps one, and all callers
        get that same object.
        """
        block = self._matrices.get(pid)
        if block is not None or not self.nnz(pid):
            return block
        subjects, objects = self._ring.predicate_edges(pid, self._c_o)
        # The edges arrive sorted by (object, subject); a stable sort
        # by subject is the canonical CSR order (rows, then columns).
        by_row = np.argsort(subjects, kind="stable")
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(subjects, minlength=self.num_nodes),
                  out=indptr[1:])
        block = sp.csr_matrix(
            (np.ones(len(by_row), dtype=bool), objects[by_row], indptr),
            shape=(self.num_nodes, self.num_nodes),
        )
        return self._matrices.setdefault(pid, block)

    def decode_all(self) -> "PredicateMatrices":
        """Decode every predicate's block (the store's upper bound)."""
        for pid in self.predicates:
            self.matrix(pid)
        return self

    def union(self, pids: Iterable[int]) -> "sp.csr_matrix | None":
        """Boolean OR of several predicates' matrices (``None`` when
        none has edges) — the transition-selected matrix of one
        Glushkov state whose atom matches several predicates."""
        parts = [m for m in (self.matrix(p) for p in pids)
                 if m is not None]
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        total = parts[0]
        for part in parts[1:]:
            total = total + part  # bool + bool == elementwise OR
        return total.tocsr()

    def nnz(self, pid: int) -> int:
        """Edge count of one predicate (the matrix's stored nonzeros)."""
        if not 0 <= pid < len(self._c_p) - 1:
            return 0
        return int(self._c_p[pid + 1] - self._c_p[pid])

    @property
    def predicates(self) -> list[int]:
        """Predicate ids that have at least one edge, sorted."""
        return np.flatnonzero(np.diff(self._c_p)).tolist()

    def size_in_bits(self) -> int:
        """Footprint of the blocks decoded so far: CSR index arrays
        plus the bool payload."""
        return 8 * sum(
            m.indptr.nbytes + m.indices.nbytes + m.data.nbytes
            for m in self._matrices.values()
        )

    def measure(self, name: str = "matrix"):
        """Space-audit tree of the *decoded* blocks: per-predicate CSR
        triplets (indptr, indices, data), so the audit can localise
        which predicates dominate.  A cold store measures 0 bytes."""
        from repro.obs.space import SpaceNode

        children = []
        for pid, m in sorted(self._matrices.items()):
            children.append(
                SpaceNode(
                    f"p{pid}",
                    children=[
                        SpaceNode("indptr", m.indptr.nbytes, kind="buffer",
                                  detail={"dtype": str(m.indptr.dtype)}),
                        SpaceNode("indices", m.indices.nbytes, kind="buffer",
                                  detail={"dtype": str(m.indices.dtype)}),
                        SpaceNode("data", m.data.nbytes, kind="buffer",
                                  detail={"dtype": str(m.data.dtype)}),
                    ],
                    kind="csr_matrix",
                    detail={"nnz": int(m.nnz)},
                )
            )
        return SpaceNode(
            name,
            nbytes=0 if not children else None,
            children=children,
            kind="predicate_matrices",
            detail={"num_nodes": self.num_nodes,
                    "decoded": len(children),
                    "predicates": len(self.predicates)},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PredicateMatrices({len(self.predicates)} predicates, "
                f"|V|={self.num_nodes}, nnz={int(self._c_p[-1])}, "
                f"{len(self._matrices)} decoded)")
