"""Wavelet matrix: a wavelet tree layout for large alphabets.

The ring represents its BWT columns ``L_s`` and ``L_p`` with wavelet
matrices (Claude, Navarro & Ordóñez 2015), exactly as the paper's C++
implementation does.  Besides the classical ``access``/``rank``/``select``
operations, this implementation exposes the *virtual node* interface the
Ring-RPQ engine needs:

* :meth:`WaveletMatrix.root` / :meth:`WaveletMatrix.children` let a
  caller walk the conceptual wavelet tree restricted to a position range
  ``[b, e)``, pruning subtrees at will — the engine prunes with its
  ``B[v]`` and ``D[v]`` automaton masks (paper §4.1–§4.2);
* :meth:`WaveletMatrix.range_distinct` enumerates the distinct symbols
  in a range in :math:`O(\\log\\sigma)` time per reported symbol;
* :meth:`WaveletMatrix.range_intersect` intersects the symbol sets of
  two ranges (used by the §5 fast path for length-2 paths).

Every conceptual node is identified by ``(level, prefix)`` where
``prefix`` is the top ``level`` bits of the symbols below it; this id is
hashable, so per-node annotations live in plain dicts, which gives the
lazy initialisation the paper performs explicitly in C++.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
import numpy as np

from repro._util.bits import rank1_many_words
from repro.errors import ConstructionError
from repro.succinct.bitvector import BitVector


def _bit_reverse(value: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``value``."""
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


class WaveletNode:
    """A conceptual wavelet tree node restricted to a query range.

    A plain ``__slots__`` value type (not a dataclass): the RPQ engine
    creates millions of these in its inner loop.

    Attributes
    ----------
    level:
        Depth; 0 is the root, ``matrix.height`` is a leaf.
    prefix:
        The top ``level`` bits shared by all symbols below this node.
    begin, end:
        Half-open position range of the query's occurrences inside this
        node's interval of the level-``level`` sequence.
    """

    __slots__ = ("level", "prefix", "begin", "end")

    def __init__(self, level: int, prefix: int, begin: int, end: int):
        self.level = level
        self.prefix = prefix
        self.begin = begin
        self.end = end

    @property
    def node_id(self) -> tuple[int, int]:
        """Hashable identity of the conceptual node (ignores the range)."""
        return (self.level, self.prefix)

    def __len__(self) -> int:
        return self.end - self.begin

    def is_empty(self) -> bool:
        """True when the query range has no occurrence below this node."""
        return self.end <= self.begin

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WaveletNode):
            return NotImplemented
        return (self.level, self.prefix, self.begin, self.end) == (
            other.level, other.prefix, other.begin, other.end
        )

    def __hash__(self) -> int:
        return hash((self.level, self.prefix, self.begin, self.end))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WaveletNode(level={self.level}, prefix={self.prefix}, "
            f"range=[{self.begin}, {self.end}))"
        )


class WaveletMatrix:
    """Immutable sequence over ``[0, sigma)`` with wavelet-matrix indexing.

    Parameters
    ----------
    values:
        The sequence, as any iterable of non-negative ints.
    sigma:
        Alphabet size; defaults to ``max(values) + 1``.
    """

    __slots__ = ("_n", "_sigma", "_height", "_levels", "_zeros",
                 "_counts", "_bottom_start", "_class_cum")

    def __init__(self, values: Iterable[int] | np.ndarray, sigma: int | None = None):
        seq = np.asarray(
            values if isinstance(values, np.ndarray) else list(values),
            dtype=np.int64,
        )
        if seq.size and seq.min() < 0:
            raise ConstructionError("wavelet matrix stores non-negative ints")
        if sigma is None:
            sigma = int(seq.max()) + 1 if seq.size else 1
        if seq.size and int(seq.max()) >= sigma:
            raise ConstructionError(
                f"value {int(seq.max())} outside alphabet [0, {sigma})"
            )
        if sigma < 1:
            raise ConstructionError("alphabet size must be at least 1")
        self._n = int(seq.size)
        self._sigma = int(sigma)
        self._height = max(1, (self._sigma - 1).bit_length())

        levels: list[BitVector] = []
        zeros: list[int] = []
        current = seq
        for level in range(self._height):
            shift = self._height - 1 - level
            bits = ((current >> shift) & 1).astype(np.uint8)
            bv = BitVector(bits)
            levels.append(bv)
            zeros.append(bv.num_zeros)
            # Stable partition: zero-bit symbols first, one-bit after.
            current = np.concatenate((current[bits == 0], current[bits == 1]))
        self._levels = levels
        self._zeros = zeros

        counts = np.zeros(self._sigma, dtype=np.int64)
        if seq.size:
            binc = np.bincount(seq, minlength=self._sigma)
            counts[: len(binc)] = binc
        self._counts = counts
        # Numeric-order cumulative counts; used to answer "how many
        # sequence positions fall under conceptual node v" in O(1).
        class_cum = np.zeros(self._sigma + 1, dtype=np.int64)
        np.cumsum(counts, out=class_cum[1:])
        self._class_cum = class_cum
        # Start offset of each symbol's run in the (conceptual) bottom
        # sequence.  The matrix partitions by MSB first and LSB last, so
        # the bottom orders symbols by their *bit-reversed* value.
        bottom_start = np.zeros(self._sigma, dtype=np.int64)
        order = sorted(
            range(self._sigma), key=lambda c: _bit_reverse(c, self._height)
        )
        acc = 0
        for c in order:
            bottom_start[c] = acc
            acc += int(counts[c])
        self._bottom_start = bottom_start

    @classmethod
    def from_parts(
        cls,
        levels: "list[BitVector]",
        n: int,
        sigma: int,
        counts: np.ndarray,
        class_cum: np.ndarray,
        bottom_start: np.ndarray,
    ) -> "WaveletMatrix":
        """Reassemble a wavelet matrix from prebuilt components.

        The *view* construction path of the snapshot plane: ``levels``
        are (typically :meth:`BitVector.from_packed`-constructed) level
        bitvectors and the three per-symbol tables are externally owned
        ``int64`` arrays — nothing is copied or recomputed except the
        per-level zero counts, which are O(height) reads off the rank
        directories.  All arrays must be treated as immutable.
        """
        height = max(1, (int(sigma) - 1).bit_length())
        if len(levels) != height:
            raise ConstructionError(
                f"expected {height} levels for sigma={sigma}, "
                f"got {len(levels)}"
            )
        self = cls.__new__(cls)
        self._n = int(n)
        self._sigma = int(sigma)
        self._height = height
        self._levels = list(levels)
        self._zeros = [bv.num_zeros for bv in levels]
        self._counts = counts
        self._class_cum = class_cum
        self._bottom_start = bottom_start
        return self

    # ------------------------------------------------------------------
    # Basic facts
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def sigma(self) -> int:
        """Alphabet size."""
        return self._sigma

    @property
    def height(self) -> int:
        """Number of levels, ``ceil(log2(sigma))`` (at least 1)."""
        return self._height

    def count(self, symbol: int) -> int:
        """Total occurrences of ``symbol`` in the sequence."""
        self._check_symbol(symbol)
        return int(self._counts[symbol])

    # ------------------------------------------------------------------
    # access / rank / select
    # ------------------------------------------------------------------

    def access(self, i: int) -> int:
        """The symbol at position ``i``; O(log sigma)."""
        if not 0 <= i < self._n:
            raise IndexError(f"position {i} out of range [0, {self._n})")
        symbol = 0
        for level in range(self._height):
            bv = self._levels[level]
            bit = bv[i]
            symbol = (symbol << 1) | bit
            if bit:
                i = self._zeros[level] + bv.rank1(i)
            else:
                i = bv.rank0(i)
        return symbol

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self._n
        return self.access(i)

    def rank(self, symbol: int, i: int) -> int:
        """Occurrences of ``symbol`` in positions ``[0, i)``; O(log sigma)."""
        self._check_symbol(symbol)
        if i <= 0:
            return 0
        i = min(i, self._n)
        pos = self._walk_down(symbol, i)
        return pos - int(self._bottom_start[symbol])

    def rank_pair(self, symbol: int, b: int, e: int) -> tuple[int, int]:
        """``(rank(symbol, b), rank(symbol, e))`` sharing the path walk."""
        self._check_symbol(symbol)
        b = max(0, min(b, self._n))
        e = max(0, min(e, self._n))
        start = int(self._bottom_start[symbol])
        for level in range(self._height):
            bv = self._levels[level]
            bit = (symbol >> (self._height - 1 - level)) & 1
            if bit:
                z = self._zeros[level]
                b = z + bv.rank1(b)
                e = z + bv.rank1(e)
            else:
                b = bv.rank0(b)
                e = bv.rank0(e)
        return b - start, e - start

    def rank_pair_many(self, symbol: int, bs, es) -> tuple[
            np.ndarray, np.ndarray]:
        """Vectorized :meth:`rank_pair`: many ranges, one symbol.

        :meth:`rank_many` over the concatenated endpoints, split in two:
        all of them ride one root-to-leaf path walk — the bulk shape of
        the backward-search step (Eqs. 4–5).
        """
        bs = np.asarray(bs, dtype=np.int64)
        ranks = self.rank_many(
            symbol, np.concatenate((bs, np.asarray(es, dtype=np.int64)))
        )
        return ranks[:len(bs)], ranks[len(bs):]

    def select(self, symbol: int, j: int) -> int:
        """Position of the ``j``-th (0-based) occurrence of ``symbol``."""
        self._check_symbol(symbol)
        if j < 0 or j >= self._counts[symbol]:
            raise IndexError(
                f"select({symbol}, {j}): only {int(self._counts[symbol])} "
                "occurrences"
            )
        # Walk up from the bottom occurrence back to the top level.
        pos = int(self._bottom_start[symbol]) + j
        for level in range(self._height - 1, -1, -1):
            bv = self._levels[level]
            bit = (symbol >> (self._height - 1 - level)) & 1
            if bit:
                pos = bv.select1(pos - self._zeros[level])
            else:
                pos = bv.select0(pos)
        return pos

    def to_list(self) -> list[int]:
        """Decode the full sequence (slow; for tests and small data)."""
        return [self.access(i) for i in range(self._n)]

    # ------------------------------------------------------------------
    # Array kernels over the held level arrays
    # ------------------------------------------------------------------

    def _held_levels(self) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """``(words, cum, n_bits)`` per level, straight from the arrays
        the level bit-vectors already hold.

        Every array kernel — the decode and query-path kernels of this
        class and the traversal runner's merged waves — reads these:
        neither a decode nor a query may leave anything behind on the
        index, and :func:`rank1_many_words` takes the un-widened,
        sentinel-free form as it is.
        """
        return [(bv._words, bv._cum, len(bv)) for bv in self._levels]

    def access_range(self, b: int = 0, e: int | None = None) -> np.ndarray:
        """Vectorized :meth:`access`: the symbols at ``[b, e)``, ``int64``.

        Level-wise inversion — the whole slice walks down together and
        each level costs one vectorized rank call over the concatenated
        ``(pos, pos + 1)`` pairs, whose difference is the level's bit.
        """
        if e is None:
            e = self._n
        b = max(0, min(b, self._n))
        e = max(b, min(e, self._n))
        k = e - b
        pos = np.arange(b, e, dtype=np.int64)
        symbols = np.zeros(k, dtype=np.int64)
        if k == 0:
            return symbols
        for (words, cum, n_bits), z in zip(self._held_levels(), self._zeros):
            ranks = rank1_many_words(
                words, cum, n_bits, np.concatenate((pos, pos + 1))
            )
            before = ranks[:k]
            bit = ranks[k:] - before
            symbols = (symbols << 1) | bit
            pos = np.where(bit == 1, z + before, pos - before)
        return symbols

    def rank_many(self, symbol: int, positions) -> np.ndarray:
        """Vectorized :meth:`rank`: one symbol, many positions.

        One walk of the symbol's root-to-leaf path, each level a single
        vectorized rank call over the held arrays (see
        :meth:`_held_levels`), so it leaves no batch mirror on the
        matrix.
        """
        self._check_symbol(symbol)
        pos = np.clip(np.asarray(positions, dtype=np.int64), 0, self._n)
        for level, (words, cum, n_bits) in enumerate(self._held_levels()):
            ranks = rank1_many_words(words, cum, n_bits, pos)
            if (symbol >> (self._height - 1 - level)) & 1:
                pos = self._zeros[level] + ranks
            else:
                pos = pos - ranks
        return pos - int(self._bottom_start[symbol])

    # ------------------------------------------------------------------
    # Virtual-node traversal API (used by the Ring-RPQ engine)
    # ------------------------------------------------------------------

    def root(self, b: int = 0, e: int | None = None) -> WaveletNode:
        """The root node restricted to range ``[b, e)`` of the sequence."""
        if e is None:
            e = self._n
        b = max(0, min(b, self._n))
        e = max(0, min(e, self._n))
        return WaveletNode(level=0, prefix=0, begin=b, end=e)

    def is_leaf(self, node: WaveletNode) -> bool:
        """True when ``node`` sits at the bottom level (one symbol)."""
        return node.level == self._height

    def leaf_symbol(self, node: WaveletNode) -> int:
        """The single symbol represented by a leaf node."""
        if not self.is_leaf(node):
            raise ValueError("leaf_symbol() called on an internal node")
        return node.prefix

    def node_symbol_range(self, node: WaveletNode) -> tuple[int, int]:
        """Half-open symbol interval ``[lo, hi)`` covered by ``node``.

        ``hi`` may exceed ``sigma`` for the rightmost nodes when sigma
        is not a power of two; such symbols simply never occur.
        """
        span = 1 << (self._height - node.level)
        lo = node.prefix << (self._height - node.level)
        return lo, lo + span

    def traversal_data(self) -> tuple:
        """Low-level arrays for external high-performance walkers.

        Returns ``(levels, zeros, height, sigma, class_cum,
        bottom_start)`` where ``levels[l]`` is ``(words, cum, n_bits)``
        with ``words``/``cum`` as plain Python-int lists (the bitvector
        rank fast path).  The RPQ engine's inner loops use this instead
        of the object-based node API: the traversal logic is identical,
        but skipping per-node object construction and method dispatch
        is worth ~2x under CPython.  Treat the arrays as read-only.
        """
        levels = [
            (bv._words_py, bv._cum_py, len(bv)) for bv in self._levels
        ]
        return (
            levels,
            list(self._zeros),
            self._height,
            self._sigma,
            self._class_cum.tolist(),
            self._bottom_start.tolist(),
        )

    def batch_data(self) -> tuple:
        """Numpy counterpart of :meth:`traversal_data`, for export.

        Returns ``(levels, zeros, height, sigma, class_cum,
        bottom_start)`` where ``levels[l]`` is the level's
        :meth:`BitVector.batch_data` triple ``(words_ext, cum64,
        n_bits)``.  Nothing is cached: on a built matrix every call
        makes the level arrays anew, so kernels read
        :meth:`_held_levels` instead.
        """
        return (
            [bv.batch_data() for bv in self._levels],
            list(self._zeros),
            self._height,
            self._sigma,
            self._class_cum,
            self._bottom_start,
        )

    def descend_batch(self, ranges, prune_fn=None) -> tuple[
            np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Level-synchronous batched descent over many root ranges.

        The frontier of surviving ``(origin, prefix, begin, end)``
        nodes is carried *whole* from level to level: each level costs
        one vectorized rank call over the concatenated range endpoints
        instead of two scalar ranks per node.  Because the wavelet
        matrix is a perfect tree (every leaf sits at ``height``) and
        children are emitted in ``[left, right]`` order, the surviving
        leaves appear exactly in the order the scalar stack walk of
        :meth:`range_distinct` reports them: origin-major, symbol
        ascending.

        Parameters
        ----------
        ranges:
            Sequence of ``(b, e)`` root ranges (or an ``(k, 2)``
            array).  Endpoints are clamped into ``[0, n]``.
        prune_fn:
            Optional ``prune_fn(level, origins, prefixes, begins,
            ends) -> bool mask`` called once per level on the
            *non-empty* frontier; ``False`` entries are dropped with
            their whole subtree.  At the leaf level (``level ==
            height``) ``begins``/``ends`` are bottom-sequence
            positions (the per-symbol offset is subtracted only for
            the returned values).

        Returns ``(origins, symbols, rank_bs, rank_es)`` int64 arrays:
        one entry per distinct symbol of each surviving range, where
        ``rank_b``/``rank_e`` are the symbol ranks at the range
        endpoints — the same triples :meth:`range_distinct` yields,
        with the originating range index alongside.
        """
        arr = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
        height, sigma = self._height, self._sigma
        empty = np.zeros(0, dtype=np.int64)
        if arr.size == 0:
            return empty, empty, empty, empty
        origin = np.arange(len(arr), dtype=np.int64)
        prefix = np.zeros(len(arr), dtype=np.int64)
        b = np.clip(arr[:, 0], 0, self._n)
        e = np.clip(arr[:, 1], 0, self._n)
        for level, (words, cum, n_bits) in enumerate(self._held_levels()):
            keep = e > b
            if prune_fn is not None and keep.any():
                origin, prefix, b, e = (
                    origin[keep], prefix[keep], b[keep], e[keep]
                )
                keep = prune_fn(level, origin, prefix, b, e)
            if not keep.all():
                origin, prefix, b, e = (
                    origin[keep], prefix[keep], b[keep], e[keep]
                )
            k = len(b)
            if k == 0:
                return empty, empty, empty, empty
            ranks = rank1_many_words(
                words, cum, n_bits, np.concatenate((b, e))
            )
            r1b, r1e = ranks[:k], ranks[k:]
            z = self._zeros[level]
            origin = np.repeat(origin, 2)
            next_prefix = np.empty(2 * k, dtype=np.int64)
            next_b = np.empty(2 * k, dtype=np.int64)
            next_e = np.empty(2 * k, dtype=np.int64)
            next_prefix[0::2] = prefix << 1
            next_prefix[1::2] = (prefix << 1) | 1
            next_b[0::2] = b - r1b
            next_b[1::2] = z + r1b
            next_e[0::2] = e - r1e
            next_e[1::2] = z + r1e
            prefix, b, e = next_prefix, next_b, next_e
        keep = (e > b) & (prefix < sigma)
        origin, prefix, b, e = origin[keep], prefix[keep], b[keep], e[keep]
        if prune_fn is not None and len(b):
            keep = prune_fn(height, origin, prefix, b, e)
            origin, prefix, b, e = (
                origin[keep], prefix[keep], b[keep], e[keep]
            )
        start = self._bottom_start[prefix]
        return origin, prefix, b - start, e - start

    def node_occurrences(self, node: WaveletNode) -> int:
        """Total sequence positions under conceptual node ``node``.

        When this equals ``len(node)`` the query range *covers* the
        node: every occurrence of every symbol below it lies inside the
        range.  The RPQ engine may only record its ``D[v]`` visited
        masks on covered nodes — recording on a partially covered node
        would claim visits to subjects the traversal never reached.
        """
        lo, hi = self.node_symbol_range(node)
        hi = min(hi, self._sigma)
        if lo >= hi:
            return 0
        return int(self._class_cum[hi] - self._class_cum[lo])

    def children(self, node: WaveletNode) -> tuple[WaveletNode, WaveletNode]:
        """Left and right child nodes with mapped ranges.

        Either child may be empty (``is_empty()``); callers typically
        skip those.  Calling this on a leaf is an error.
        """
        if self.is_leaf(node):
            raise ValueError("children() called on a leaf node")
        bv = self._levels[node.level]
        b0 = bv.rank0(node.begin)
        e0 = bv.rank0(node.end)
        z = self._zeros[node.level]
        b1 = z + (node.begin - b0)
        e1 = z + (node.end - e0)
        left = WaveletNode(node.level + 1, node.prefix << 1, b0, e0)
        right = WaveletNode(node.level + 1, (node.prefix << 1) | 1, b1, e1)
        return left, right

    def leaf_global_range(self, node: WaveletNode) -> tuple[int, int]:
        """Rank interval of a leaf: occurrences of its symbol before the
        query range's start and end, as ``(rank_b, rank_e)``.

        For a leaf reached from root range ``[b, e)`` this equals
        ``(rank(c, b), rank(c, e))`` — exactly what a backward-search
        step (Eqs. 4–5 of the paper) needs, obtained without re-walking.
        """
        if not self.is_leaf(node):
            raise ValueError("leaf_global_range() called on an internal node")
        start = int(self._bottom_start[node.prefix])
        return node.begin - start, node.end - start

    # ------------------------------------------------------------------
    # Range algorithms
    # ------------------------------------------------------------------

    def range_distinct(self, b: int, e: int) -> Iterator[tuple[int, int, int]]:
        """Yield ``(symbol, rank_b, rank_e)`` for each distinct symbol in
        ``[b, e)``, in increasing symbol order.

        ``rank_e - rank_b`` is the symbol's multiplicity in the range.
        Runs in O(log sigma) per reported symbol.
        """
        stack = [self.root(b, e)]
        out: list[tuple[int, int, int]] = []
        while stack:
            node = stack.pop()
            if node.is_empty():
                continue
            if self.is_leaf(node):
                if node.prefix < self._sigma:
                    rb, re = self.leaf_global_range(node)
                    out.append((node.prefix, rb, re))
                continue
            left, right = self.children(node)
            stack.append(right)
            stack.append(left)
        # DFS pushed right after left then popped LIFO; ensure symbol order.
        out.sort(key=lambda t: t[0])
        yield from out

    def range_list_symbols(self, b: int, e: int) -> list[int]:
        """Distinct symbols occurring in ``[b, e)``, ascending."""
        return [sym for sym, _, _ in self.range_distinct(b, e)]

    def range_intersect(
        self, b1: int, e1: int, b2: int, e2: int
    ) -> list[tuple[int, int, int, int, int]]:
        """Symbols occurring in *both* ranges.

        Returns tuples ``(symbol, rank1_b, rank1_e, rank2_b, rank2_e)``
        in ascending symbol order; O(log sigma) per node of the
        intersected traversal (Gagie, Navarro & Puglisi 2012).

        Level-synchronous like :meth:`descend_batch`: the frontier of
        node *pairs* whose two ranges are both non-empty is one
        ``(4, k)`` endpoint array, and each level costs one vectorized
        rank call over all ``4k`` endpoints.
        """
        ends = np.array(
            [[max(0, min(x, self._n))] for x in (b1, e1, b2, e2)],
            dtype=np.int64,
        )
        prefix = np.zeros(1, dtype=np.int64)
        for (words, cum, n_bits), z in zip(self._held_levels(), self._zeros):
            keep = (ends[1] > ends[0]) & (ends[3] > ends[2])
            if not keep.all():
                ends, prefix = ends[:, keep], prefix[keep]
            k = len(prefix)
            if k == 0:
                return []
            ranks = rank1_many_words(
                words, cum, n_bits, ends.ravel()
            ).reshape(4, k)
            below = np.empty((4, 2 * k), dtype=np.int64)
            below[:, 0::2] = ends - ranks
            below[:, 1::2] = z + ranks
            ends = below
            prefix = np.repeat(prefix << 1, 2)
            prefix[1::2] |= 1
        keep = (
            (ends[1] > ends[0]) & (ends[3] > ends[2])
            & (prefix < self._sigma)
        )
        prefix = prefix[keep]
        ends = ends[:, keep] - self._bottom_start[prefix]
        return list(zip(prefix.tolist(), *ends.tolist()))

    def range_count_distinct(self, b: int, e: int) -> int:
        """Number of distinct symbols in ``[b, e)``.

        The §6 selectivity statistic ("the amount of distinct
        predicates labeling edges towards a given range of objects").
        This is the exact traversal count, O(log σ) per distinct
        symbol; the paper sketches an O(log) *total* variant at roughly
        double the space (colored range counting), which this library
        does not implement.
        """
        count = 0
        stack = [self.root(b, e)]
        while stack:
            node = stack.pop()
            if node.is_empty():
                continue
            if self.is_leaf(node):
                if node.prefix < self._sigma:
                    count += 1
                continue
            left, right = self.children(node)
            stack.append(left)
            stack.append(right)
        return count

    def range_next_value(self, b: int, e: int, lower: int) -> int | None:
        """Smallest symbol ``>= lower`` occurring in ``[b, e)``.

        Used by the Leapfrog-style seek extension (§6 of the paper).
        Returns ``None`` when no such symbol exists.
        """
        if lower >= self._sigma or b >= e:
            return None
        lower = max(lower, 0)
        return self._next_value(self.root(b, e), lower)

    def _next_value(self, node: WaveletNode, lower: int) -> int | None:
        if node.is_empty():
            return None
        lo, hi = self.node_symbol_range(node)
        if hi <= lower:
            return None
        if self.is_leaf(node):
            return node.prefix if node.prefix < self._sigma else None
        left, right = self.children(node)
        found = self._next_value(left, lower)
        if found is not None:
            return found
        return self._next_value(right, lower)

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def size_in_bits(self) -> int:
        """Actually allocated bits: level bitvectors + per-symbol tables."""
        total = sum(bv.size_in_bits() for bv in self._levels)
        total += self._counts.nbytes * 8 + self._bottom_start.nbytes * 8
        return total

    def size_in_bits_model(self) -> int:
        """sdsl-style model: n·ceil(log sigma)(1 + 25% rank) + C array."""
        payload = sum(bv.size_in_bits_model() for bv in self._levels)
        c_array = (self._sigma + 1) * max(1, (self._n + 1).bit_length())
        return payload + c_array

    def measure(self, name: str = "wavelet_matrix"):
        """Space-audit node: per-level bitvectors plus the symbol tables.

        Unlike :meth:`size_in_bits` (which pins the paper's Table-2
        accounting and omits the derived ``class_cum`` prefix sums), the
        audit counts every allocated buffer, ``class_cum`` included, so
        audited totals telescope to real memory.
        """
        from repro.obs.space import SpaceNode

        children = [
            bv.measure(f"level{i}") for i, bv in enumerate(self._levels)
        ]
        children.append(
            SpaceNode(
                "tables",
                children=[
                    SpaceNode("counts", self._counts.nbytes, kind="buffer",
                              detail={"dtype": "int64"}),
                    SpaceNode("class_cum", self._class_cum.nbytes,
                              kind="buffer", detail={"dtype": "int64"}),
                    SpaceNode("bottom_start", self._bottom_start.nbytes,
                              kind="buffer", detail={"dtype": "int64"}),
                ],
                kind="symbol_tables",
            )
        )
        return SpaceNode(
            name,
            children=children,
            kind="wavelet_matrix",
            detail={"n": self._n, "sigma": self._sigma, "height": self._height},
        )

    def _check_symbol(self, symbol: int) -> None:
        if not 0 <= symbol < self._sigma:
            raise ValueError(
                f"symbol {symbol} outside alphabet [0, {self._sigma})"
            )

    def _walk_down(self, symbol: int, i: int) -> int:
        """Map position ``i`` down the path of ``symbol`` to the bottom."""
        for level in range(self._height):
            bv = self._levels[level]
            bit = (symbol >> (self._height - 1 - level)) & 1
            if bit:
                i = self._zeros[level] + bv.rank1(i)
            else:
                i = bv.rank0(i)
        return i

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WaveletMatrix(n={self._n}, sigma={self._sigma}, "
            f"height={self._height})"
        )
