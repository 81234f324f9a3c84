"""The ring data structure (§3.4 of the paper).

The ring regards each triple ``(s, p, o)`` as a circular string and
keeps the last column of each of the three sorted rotation families:

* ``L_p`` — the predicate preceding each ``osp`` rotation: the
  predicate column of the triples sorted by ``(o, s)``;
* ``L_s`` — the subject preceding each ``pos`` rotation: the subject
  column of the triples sorted by ``(p, o)``;
* ``L_o`` — the object preceding each ``spo`` rotation: the object
  column of the triples sorted by ``(s, p)``.

``C_o`` partitions ``L_p`` by object, ``C_p`` partitions ``L_s`` by
predicate and ``C_s`` partitions ``L_o`` by subject.  ``L_p`` and
``L_s`` carry wavelet-matrix indexes; they are all the RPQ algorithm
needs (§4: *"we use the wavelet trees representing sequences L_p and
L_s, as well as all the arrays C"*).  ``L_o`` is optional — the RPQ
engine never touches it, but keeping it restores the full ring and
enables triple-pattern enumeration from any column, so it is retained
behind a flag for the join-support use case of the original ring paper.

All positions are 0-based and ranges half-open, unlike the paper's
1-based prose; the worked-example tests translate explicitly.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.errors import ConstructionError
from repro.obs.metrics import NULL_METRICS
from repro.succinct.elias_fano import EliasFano
from repro.succinct.wavelet_matrix import WaveletMatrix

IntTriple = tuple[int, int, int]


class BoundaryArray:
    """A monotone boundary array, plain (numpy) or Elias-Fano encoded.

    The ring's ``C`` arrays are non-decreasing sequences of triple
    positions; the paper's implementation stores ``C_o`` as a (sparse)
    bitvector, which is exactly what the Elias-Fano option provides
    here while keeping the plain-array representation as the fast
    default.
    """

    __slots__ = ("_plain", "_ef", "_py")

    def __init__(self, values: np.ndarray, compressed: bool = False):
        if compressed:
            self._plain = None
            self._ef = EliasFano(int(v) for v in values)
        else:
            self._plain = values
            self._ef = None
        self._py = None

    def gather(self, indices) -> np.ndarray:
        """Vectorized multi-index read, as an ``int64`` array.

        Plain arrays use one numpy fancy-index gather; the Elias-Fano
        encoding falls back to a per-index loop.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if self._plain is not None:
            return self._plain[idx].astype(np.int64, copy=False)
        return np.fromiter(
            (self._ef.get(int(i)) for i in idx), dtype=np.int64,
            count=len(idx),
        )

    def fast_list(self) -> "list[int] | None":
        """Plain Python-int list view, or ``None`` when Elias-Fano
        encoded (callers then fall back to ``__getitem__``)."""
        if self._plain is None:
            return None
        if self._py is None:
            self._py = self._plain.tolist()
        return self._py

    def __len__(self) -> int:
        return len(self._plain) if self._plain is not None else len(self._ef)

    def __getitem__(self, i: int) -> int:
        if self._plain is not None:
            return int(self._plain[i])
        return self._ef.get(i)

    def bracket(self, position: int) -> int:
        """Largest index ``i`` with ``self[i] <= position``."""
        if self._plain is not None:
            return int(
                np.searchsorted(self._plain, position, side="right")
            ) - 1
        return self._ef.successor_index(position + 1) - 1

    def to_array(self) -> np.ndarray:
        """Decode to a plain int64 numpy array (persistence, bulk decode).

        Free for a plain array; an Elias-Fano one takes a Python step
        per entry, so callers that need it repeatedly keep the result.
        """
        if self._plain is not None:
            return self._plain
        return np.fromiter(self._ef, dtype=np.int64, count=len(self._ef))

    @property
    def is_compressed(self) -> bool:
        """True when backed by the Elias-Fano encoding."""
        return self._ef is not None

    def size_in_bits(self) -> int:
        """Actually allocated bits."""
        if self._plain is not None:
            return self._plain.nbytes * 8
        return self._ef.size_in_bits()

    def measure(self, name: str = "boundary"):
        """Space-audit node, reporting which form backs the array.

        The lazy ``_py`` decode cache is excluded by the library-wide
        mirror convention.
        """
        from repro.obs.space import SpaceNode

        if self._plain is not None:
            child = SpaceNode("plain_int64", self._plain.nbytes, kind="buffer",
                              detail={"dtype": str(self._plain.dtype)})
            form = "plain-int64"
        else:
            child = self._ef.measure("elias_fano")
            form = "elias-fano"
        return SpaceNode(name, children=[child], kind="boundary_array",
                         detail={"form": form, "entries": len(self)})


class Ring:
    """BWT-style index over a set of integer triples.

    Parameters
    ----------
    triples:
        The triples of the *completed* graph, integer-encoded.
    num_nodes, num_predicates:
        Alphabet sizes (``|V|`` and ``|P⁺|``).
    keep_object_column:
        Also build ``L_o`` (with its wavelet matrix); off by default
        since RPQ evaluation does not need it.
    compressed_boundaries:
        Store the ``C`` arrays Elias-Fano encoded (the sdsl
        ``sd_vector`` representation the paper's code uses for
        ``C_o``) instead of plain int64 arrays: considerably smaller,
        slightly slower per access.
    """

    def __init__(
        self,
        triples: Sequence[IntTriple],
        num_nodes: int,
        num_predicates: int,
        keep_object_column: bool = False,
        compressed_boundaries: bool = False,
    ):
        triples = sorted(set(triples))
        n = len(triples)
        self._n = n
        self._num_nodes = int(num_nodes)
        self._num_preds = int(num_predicates)
        #: Observability sink for the *coarse* batch entry points
        #: (``backward_step_many`` / ``object_ranges_many``); the engine
        #: installs its registry here for the span of one ``evaluate``.
        #: Scalar per-operation methods take no sink: their cost is
        #: counted in the query's ``QueryStats``.
        self.obs = NULL_METRICS

        if n:
            arr = np.asarray(triples, dtype=np.int64)
            s_col, p_col, o_col = arr[:, 0], arr[:, 1], arr[:, 2]
            if s_col.min() < 0 or o_col.min() < 0 or p_col.min() < 0:
                raise ConstructionError("negative ids in triples")
            if max(int(s_col.max()), int(o_col.max())) >= num_nodes:
                raise ConstructionError("node id out of range")
            if int(p_col.max()) >= num_predicates:
                raise ConstructionError("predicate id out of range")
        else:
            s_col = p_col = o_col = np.zeros(0, dtype=np.int64)

        # L_p: predicates of triples sorted by (o, s); C_o partitions it.
        order_osp = np.lexsort((p_col, s_col, o_col))
        lp_values = p_col[order_osp]
        self.L_p = WaveletMatrix(lp_values, sigma=num_predicates)
        self.C_o = BoundaryArray(
            _boundaries(o_col[order_osp], num_nodes, n),
            compressed_boundaries,
        )

        # L_s: subjects of triples sorted by (p, o); C_p partitions it.
        order_pos = np.lexsort((s_col, o_col, p_col))
        ls_values = s_col[order_pos]
        self.L_s = WaveletMatrix(ls_values, sigma=num_nodes)
        self.C_p = BoundaryArray(
            _boundaries(p_col[order_pos], num_predicates, n),
            compressed_boundaries,
        )

        # L_o: objects of triples sorted by (s, p); C_s partitions it.
        self.L_o: WaveletMatrix | None = None
        self.C_s: BoundaryArray | None = None
        if keep_object_column:
            order_spo = np.lexsort((o_col, p_col, s_col))
            self.L_o = WaveletMatrix(o_col[order_spo], sigma=num_nodes)
            self.C_s = BoundaryArray(
                _boundaries(s_col[order_spo], num_nodes, n),
                compressed_boundaries,
            )

    @classmethod
    def from_parts(
        cls,
        L_p: WaveletMatrix,
        C_o: BoundaryArray,
        L_s: WaveletMatrix,
        C_p: BoundaryArray,
        n: int,
        num_nodes: int,
        num_predicates: int,
        L_o: "WaveletMatrix | None" = None,
        C_s: "BoundaryArray | None" = None,
    ) -> "Ring":
        """Reassemble a ring from prebuilt columns and boundaries.

        The *view* construction path of the snapshot plane
        (:mod:`repro.ring.snapshot`): the columns are typically
        :meth:`WaveletMatrix.from_parts` views over one shared-memory
        segment, so no sorting, packing or copying happens here — this
        is how N worker processes serve one physical index copy.
        """
        self = cls.__new__(cls)
        self._n = int(n)
        self._num_nodes = int(num_nodes)
        self._num_preds = int(num_predicates)
        self.obs = NULL_METRICS
        self.L_p = L_p
        self.C_o = C_o
        self.L_s = L_s
        self.C_p = C_p
        self.L_o = L_o
        self.C_s = C_s
        return self

    # ------------------------------------------------------------------
    # Basic facts
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def num_nodes(self) -> int:
        """Number of node ids, ``|V|``."""
        return self._num_nodes

    @property
    def num_predicates(self) -> int:
        """Number of predicate ids in the completed alphabet."""
        return self._num_preds

    # ------------------------------------------------------------------
    # Ranges
    # ------------------------------------------------------------------

    def full_range(self) -> tuple[int, int]:
        """The ``L_p`` range covering every triple."""
        return (0, self._n)

    def object_range(self, o: int) -> tuple[int, int]:
        """``L_p`` range of the triples whose object is ``o``.

        This is the paper's ``L_p[C_o[o]+1 .. C_o[o+1]]`` in 0-based,
        half-open form; part three of the NFA step (§4.3) calls this.
        """
        return (int(self.C_o[o]), int(self.C_o[o + 1]))

    def predicate_range(self, p: int) -> tuple[int, int]:
        """``L_s`` range of the triples whose predicate is ``p``.

        Used by the §5 fast paths: the subjects of all ``p``-edges are
        exactly the symbols of ``L_s`` within this range (ordered by
        object).
        """
        return (int(self.C_p[p]), int(self.C_p[p + 1]))

    def predicate_count(self, p: int) -> int:
        """Number of edges labeled ``p`` (a selectivity statistic)."""
        lo, hi = self.predicate_range(p)
        return hi - lo

    # ------------------------------------------------------------------
    # Selectivity statistics (§6)
    # ------------------------------------------------------------------

    def count_distinct_predicates_into(self, o: int) -> int:
        """Distinct edge labels arriving at object ``o``."""
        b, e = self.object_range(o)
        return self.L_p.range_count_distinct(b, e)

    def count_distinct_subjects_of(self, p: int) -> int:
        """Distinct source nodes of edges labeled ``p``."""
        b, e = self.predicate_range(p)
        return self.L_s.range_count_distinct(b, e)

    # ------------------------------------------------------------------
    # Backward search (Eqs. 4–5)
    # ------------------------------------------------------------------

    def backward_step(self, b_o: int, e_o: int, p: int) -> tuple[int, int]:
        """One backward-search step by predicate ``p``.

        Maps an ``L_p`` range of triples (grouped by object) to the
        ``L_s`` range of the same triples restricted to predicate ``p``.
        """
        rank_b, rank_e = self.L_p.rank_pair(p, b_o, e_o)
        base = int(self.C_p[p])
        return (base + rank_b, base + rank_e)

    def backward_step_many(self, ranges, p: int, obs=None) -> np.ndarray:
        """Bulk Eq. 4–5 steps: many ``L_p`` ranges, one predicate.

        ``ranges`` is a sequence of ``(b_o, e_o)`` pairs (or a
        ``(k, 2)`` array); the result is the ``(k, 2)`` int64 array of
        the corresponding ``L_s`` ranges.  All ranges ride one
        root-to-leaf path walk of ``L_p`` with vectorized rank calls,
        so the per-step Python overhead of :meth:`backward_step` is
        paid once per *batch* instead of once per range.

        ``obs`` overrides the ring's registry for this one call — the
        engine passes its per-query context's registry so concurrent
        queries never share span stacks (the ring itself is immutable).
        """
        arr = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
        if obs is None:
            obs = self.obs
        span = None
        if obs.enabled:
            spans = obs.spans
            if spans is not None:
                span = spans.start("ring.backward_step_many")
                span.set(k=len(arr), pid=p)
        rank_b, rank_e = self.L_p.rank_pair_many(p, arr[:, 0], arr[:, 1])
        base = int(self.C_p[p])
        out = np.empty_like(arr)
        out[:, 0] = base + rank_b
        out[:, 1] = base + rank_e
        if span is not None:
            obs.spans.end(span)
        return out

    def object_ranges_many(self, nodes, obs=None) -> np.ndarray:
        """Bulk :meth:`object_range`: a ``(k, 2)`` array for ``k`` objects.

        ``obs`` overrides the ring's registry for this call (see
        :meth:`backward_step_many`).
        """
        idx = np.asarray(nodes, dtype=np.int64)
        if obs is None:
            obs = self.obs
        span = None
        if obs.enabled:
            spans = obs.spans
            if spans is not None:
                span = spans.start("ring.object_ranges_many")
                span.set(k=len(idx))
        out = np.empty((len(idx), 2), dtype=np.int64)
        out[:, 0] = self.C_o.gather(idx)
        out[:, 1] = self.C_o.gather(idx + 1)
        if span is not None:
            obs.spans.end(span)
        return out

    def subject_backward_step(self, b_s: int, e_s: int, s: int) -> tuple[int, int]:
        """Backward step from an ``L_s`` range by subject ``s``.

        Maps to the ``L_o`` range of the matching triples.  Only
        available when the object column was kept.
        """
        if self.C_s is None:
            raise ConstructionError("ring was built without L_o / C_s")
        rank_b, rank_e = self.L_s.rank_pair(s, b_s, e_s)
        base = int(self.C_s[s])
        return (base + rank_b, base + rank_e)

    # ------------------------------------------------------------------
    # LF-steps and triple extraction (Eq. 3)
    # ------------------------------------------------------------------

    def lf_p(self, i: int) -> int:
        """LF-step on ``L_p``: position of the same triple in ``L_s``."""
        p = self.L_p.access(i)
        return int(self.C_p[p]) + self.L_p.rank(p, i)

    def lf_s(self, i: int) -> int:
        """LF-step on ``L_s``: position of the same triple in ``L_o``.

        Needs only ``C_s`` conceptually, but our ``C_s`` exists only
        when the object column is kept; otherwise this still works by
        falling back to the subject boundaries computed from ``C_o``'s
        sibling role — hence the explicit guard.
        """
        if self.C_s is None:
            raise ConstructionError("ring was built without L_o / C_s")
        s = self.L_s.access(i)
        return int(self.C_s[s]) + self.L_s.rank(s, i)

    def lf_o(self, i: int) -> int:
        """LF-step on ``L_o``: position of the same triple in ``L_p``."""
        if self.L_o is None:
            raise ConstructionError("ring was built without L_o / C_s")
        o = self.L_o.access(i)
        return int(self.C_o[o]) + self.L_o.rank(o, i)

    def triple_at_lp(self, i: int) -> IntTriple:
        """Decode the triple referenced by ``L_p`` position ``i``.

        Works without ``L_o``: the object is recovered from the ``C_o``
        bracket containing ``i`` and the subject via one LF-step.
        """
        if not 0 <= i < self._n:
            raise IndexError(f"L_p position {i} out of range [0, {self._n})")
        o = self.C_o.bracket(i)
        p = self.L_p.access(i)
        s = self.L_s.access(self.lf_p(i))
        return (s, p, o)

    def triples_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every triple, as ``(subjects, predicates, objects)`` ``int64``
        arrays in ``L_p`` order — element ``i`` is :meth:`triple_at_lp`
        of ``i``, so the triples come sorted by ``(o, s, p)``.

        One vectorized decode of the whole ring: predicates are the
        inverted ``L_p``, objects the run lengths of ``C_o``, and the
        LF map of *all* positions at once is one stable argsort of the
        predicates (``L_s`` lists the same triples by predicate, ties
        in ``L_p`` order).  Nothing is cached on the ring.
        """
        predicates = self.L_p.access_range()
        objects = np.repeat(
            np.arange(self._num_nodes, dtype=np.int64),
            np.diff(self.C_o.to_array()),
        )
        subjects = np.empty(self._n, dtype=np.int64)
        subjects[np.argsort(predicates, kind="stable")] = \
            self.L_s.access_range()
        return subjects, predicates, objects

    def predicate_edges(
        self, p: int, object_bounds: "np.ndarray | None" = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The edges labeled ``p``, as ``(subjects, objects)`` ``int64``
        arrays sorted by ``(object, subject)``.

        Subjects are the decoded ``L_s`` slice of ``p``; the objects
        repeat each node by its count of incoming ``p``-edges, one
        vectorized ``L_p`` rank over the object boundaries.
        ``object_bounds`` is ``C_o`` as a plain array, for callers that
        decode many predicates: an Elias-Fano ``C_o`` takes O(|V|)
        Python steps to decode, worth paying once rather than per call.
        """
        if object_bounds is None:
            object_bounds = self.C_o.to_array()
        b, e = self.predicate_range(p)
        subjects = self.L_s.access_range(b, e)
        objects = np.repeat(
            np.arange(self._num_nodes, dtype=np.int64),
            np.diff(self.L_p.rank_many(p, object_bounds)),
        )
        return subjects, objects

    def iter_triples(self) -> Iterator[IntTriple]:
        """Enumerate all triples, in ``(o, s, p)`` order."""
        return zip(*(column.tolist() for column in self.triples_arrays()))

    def contains_triple(self, s: int, p: int, o: int) -> bool:
        """Membership test via one backward-search step plus a rank."""
        b_o, e_o = self.object_range(o)
        b_s, e_s = self.backward_step(b_o, e_o, p)
        if b_s >= e_s:
            return False
        rb, re = self.L_s.rank_pair(s, b_s, e_s)
        return re > rb

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def size_in_bits(self) -> int:
        """Actually allocated bits of all columns and boundary arrays."""
        total = self.L_p.size_in_bits() + self.L_s.size_in_bits()
        total += self.C_o.size_in_bits() + self.C_p.size_in_bits()
        if self.L_o is not None:
            total += self.L_o.size_in_bits()
        if self.C_s is not None:
            total += self.C_s.size_in_bits()
        return total

    def size_in_bits_model(self) -> int:
        """sdsl-style space model (what the paper's C++ build allocates).

        ``L_p``/``L_s`` wavelet matrices with 25% rank overhead, ``C_o``
        as a sparse bitvector of ``n + |V|`` bits, ``C_p`` as a plain
        integer array — matching §5 "Index construction".
        """
        total = self.L_p.size_in_bits_model() + self.L_s.size_in_bits_model()
        c_o_bits = (self._n + self._num_nodes) + (self._n + self._num_nodes) // 4
        c_p_bits = (self._num_preds + 1) * max(1, self._n.bit_length())
        total += c_o_bits + c_p_bits
        if self.L_o is not None:
            total += self.L_o.size_in_bits_model()
        return total

    def measure(self, name: str = "ring"):
        """Space-audit tree: per-column wavelet matrices and boundary
        arrays, telescoping exactly to the ring's audited total."""
        from repro.obs.space import SpaceNode

        children = [
            self.L_p.measure("L_p"),
            self.L_s.measure("L_s"),
            self.C_o.measure("C_o"),
            self.C_p.measure("C_p"),
        ]
        if self.L_o is not None:
            children.append(self.L_o.measure("L_o"))
        if self.C_s is not None:
            children.append(self.C_s.measure("C_s"))
        return SpaceNode(
            name,
            children=children,
            kind="ring",
            detail={
                "n": self._n,
                "num_nodes": self._num_nodes,
                "num_predicates": self._num_preds,
                "object_column": self.L_o is not None,
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Ring(n={self._n}, |V|={self._num_nodes}, "
            f"|P|={self._num_preds}, L_o={'yes' if self.L_o else 'no'})"
        )


#: The most pairs one run of a batched §5 listing may expand before its
#: caller looks up again (at the clock, the cancel token, the consumer
#: of a generator).  A work grain, not a switch: every listing is cut
#: the same way whatever its size.  At ≈ 1 µs per assembled pair a run
#: is some tens of milliseconds, two orders above the fixed cost of the
#: descent that feeds it (docs/performance.md has the sweep).
LISTING_RUN_PAIRS = 1 << 16


def listing_runs(bounds: np.ndarray, limit: int | None = None, taken=()):
    """Cut the items of a batched §5 listing into runs of bounded work.

    ``bounds[i]`` is an upper bound on the pairs item ``i`` (a subject,
    a mid-point) can add: the width of its step range, or the product
    of two.  Yields half-open ``(lo, hi)`` index runs in order.  A run
    is the longest whose bounds sum to less than its *room* — it can be
    expanded at once and stays under the room — or else the single
    next item, which may not.  The room is :data:`LISTING_RUN_PAIRS`,
    and under a ``limit`` no more than what the cap still leaves,
    ``limit - len(taken)``, read afresh before each run; so a capped
    listing expands at most one item past its cap, and an uncapped one
    never holds more than a run (or one item) between two yields.
    """
    n = len(bounds)
    ceiling = LISTING_RUN_PAIRS
    if limit is not None:
        ceiling = min(ceiling, limit)
    # An item at or above the ceiling is a run of its own either way;
    # clipping it keeps the running total far from overflow.
    total = np.cumsum(np.minimum(bounds, ceiling))
    lo = 0
    while lo < n:
        room = ceiling
        if limit is not None:
            room = min(room, limit - len(taken))
        fits = (total[lo - 1] if lo else 0) + room
        hi = max(lo + 1, int(np.searchsorted(total, fits, side="left")))
        yield lo, hi
        lo = hi


def _boundaries(sorted_keys: np.ndarray, alphabet: int, n: int) -> np.ndarray:
    """Cumulative boundary array: out[x] = #items with key < x.

    ``sorted_keys`` must be the key column of the sorted triple order;
    the result has ``alphabet + 1`` entries with ``out[alphabet] == n``.
    """
    counts = np.bincount(sorted_keys, minlength=alphabet) if n else \
        np.zeros(alphabet, dtype=np.int64)
    out = np.zeros(alphabet + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out
