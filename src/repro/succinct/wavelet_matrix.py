"""Wavelet matrix: a wavelet tree layout for large alphabets.

The ring represents its BWT columns ``L_s`` and ``L_p`` with wavelet
matrices (Claude, Navarro & Ordóñez 2015), exactly as the paper's C++
implementation does.  Besides the classical ``access``/``rank``/``select``
operations, the matrix answers range queries over the conceptual wavelet
tree restricted to a position range ``[b, e)``:

* :meth:`WaveletMatrix.range_distinct`, :meth:`~WaveletMatrix.range_count_distinct`
  and :meth:`~WaveletMatrix.range_next_value` share one scalar stack walk
  over plain ``(level, prefix, b, e)`` ints, O(log sigma) per reported
  symbol;
* :meth:`WaveletMatrix.descend_batch` carries many ranges down together,
  one vectorized rank call per level, with an optional per-level prune
  hook — the shape the RPQ engine's ``B[v]``/``D[v]`` pruning takes
  (paper §4.1–§4.2);
* :meth:`WaveletMatrix.range_intersect` intersects the symbol sets of
  two ranges (used by the §5 fast path for length-2 paths).

A conceptual node is ``(level, prefix)``, where ``prefix`` is the top
``level`` bits of the symbols below it.  The engine's own hot loops walk
the raw level arrays (:meth:`~WaveletMatrix.traversal_data`) the same way.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
import numpy as np

from repro._util.bits import position_dtype, rank1_many_words
from repro.errors import ConstructionError
from repro.succinct.bitvector import BitVector


def _bit_reverse(value: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``value``."""
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


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
                 "_bottom_start", "_class_cum")

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
        # Numeric-order cumulative counts: symbol c occurs
        # ``class_cum[c + 1] - class_cum[c]`` times, and a conceptual
        # node v covers ``class_cum[hi] - class_cum[lo]`` positions, in
        # O(1).  Both tables hold positions ``0..n``, so they take the
        # narrowest signed width that does.
        width = position_dtype(self._n)
        class_cum = np.zeros(self._sigma + 1, dtype=width)
        np.cumsum(counts, out=class_cum[1:])
        self._class_cum = class_cum
        # Start offset of each symbol's run in the (conceptual) bottom
        # sequence.  The matrix partitions by MSB first and LSB last, so
        # the bottom orders symbols by their *bit-reversed* value.
        bottom_start = np.zeros(self._sigma, dtype=width)
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
        class_cum: np.ndarray,
        bottom_start: np.ndarray,
    ) -> "WaveletMatrix":
        """Reassemble a wavelet matrix from prebuilt components.

        The *view* construction path of the snapshot plane: ``levels``
        are (typically :meth:`BitVector.from_packed`-constructed) level
        bitvectors and the two per-symbol tables are externally owned
        integer arrays of any width — nothing is copied or recomputed
        except the per-level zero counts, which are O(height) reads off
        the rank directories.  All arrays must be treated as immutable.
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
        return int(self._class_cum[symbol + 1]) - int(self._class_cum[symbol])

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
        return self.rank_pair(symbol, 0, i)[1]

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
        occurrences = self.count(symbol)
        if j < 0 or j >= occurrences:
            raise IndexError(
                f"select({symbol}, {j}): only {occurrences} occurrences"
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
        pos = np.minimum(
            np.maximum(np.asarray(positions, dtype=np.int64), 0), self._n
        )
        for level, (words, cum, n_bits) in enumerate(self._held_levels()):
            ranks = rank1_many_words(words, cum, n_bits, pos)
            if (symbol >> (self._height - 1 - level)) & 1:
                pos = self._zeros[level] + ranks
            else:
                pos = pos - ranks
        return pos - int(self._bottom_start[symbol])

    # ------------------------------------------------------------------
    # Raw arrays and the batched descent
    # ------------------------------------------------------------------

    def traversal_data(self) -> tuple:
        """Low-level arrays for external high-performance walkers.

        Returns ``(levels, zeros, height, sigma, class_cum,
        bottom_start)`` where ``levels[l]`` is ``(words, cum, n_bits)``
        with ``words``/``cum`` as plain Python-int lists (the bitvector
        rank fast path).  The RPQ engine's inner loops walk these
        inline instead of calling back into the matrix: skipping the
        method dispatch per node matters under CPython.  Treat the
        arrays as read-only.
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
        :meth:`BitVector.batch_data` triple ``(words_ext, cum,
        n_bits)``.  Nothing is cached: on a built matrix every call
        makes the sentinel-extended words anew, so kernels read
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
        b = np.minimum(np.maximum(arr[:, 0], 0), self._n)
        e = np.minimum(np.maximum(arr[:, 1], 0), self._n)
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

    # ------------------------------------------------------------------
    # Range algorithms
    # ------------------------------------------------------------------

    def _leaves(self, b: int, e: int,
                lower: int = 0) -> Iterator[tuple[int, int, int]]:
        """The scalar walk: yield ``(symbol, b, e)`` per distinct symbol
        ``>= lower`` in ``[b, e)``, ascending, with ``b``/``e`` in
        bottom-sequence positions.

        A stack of plain ``(level, prefix, b, e)`` ints; an internal
        node costs two rank calls.  Empty ranges and subtrees whose
        symbols all lie below ``lower`` are skipped, and the right child
        is pushed before the left, so leaves pop in symbol order.
        """
        height, sigma, n = self._height, self._sigma, self._n
        levels, zeros = self._levels, self._zeros
        stack = [(0, 0, max(0, min(b, n)), max(0, min(e, n)))]
        while stack:
            level, prefix, b, e = stack.pop()
            if e <= b or (prefix + 1) << (height - level) <= lower:
                continue
            if level == height:
                if prefix < sigma:
                    yield prefix, b, e
                continue
            bv = levels[level]
            r1b, r1e = bv.rank1(b), bv.rank1(e)
            z = zeros[level]
            level += 1
            prefix <<= 1
            stack.append((level, prefix | 1, z + r1b, z + r1e))
            stack.append((level, prefix, b - r1b, e - r1e))

    def range_distinct(self, b: int, e: int) -> Iterator[tuple[int, int, int]]:
        """Yield ``(symbol, rank_b, rank_e)`` for each distinct symbol in
        ``[b, e)``, in increasing symbol order.

        ``rank_e - rank_b`` is the symbol's multiplicity in the range.
        Runs in O(log sigma) per reported symbol.
        """
        start = self._bottom_start
        for symbol, rb, re in self._leaves(b, e):
            offset = int(start[symbol])
            yield symbol, rb - offset, re - offset

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
        return sum(1 for _ in self._leaves(b, e))

    def range_next_value(self, b: int, e: int, lower: int) -> int | None:
        """Smallest symbol ``>= lower`` occurring in ``[b, e)``.

        Used by the Leapfrog-style seek extension (§6 of the paper).
        Returns ``None`` when no such symbol exists.
        """
        if lower >= self._sigma or b >= e:
            return None
        return next((symbol for symbol, _, _ in self._leaves(b, e, lower)),
                    None)

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def measure(self, name: str = "wavelet_matrix"):
        """Space-audit node: per-level bitvectors plus the symbol tables.

        Every allocated buffer counts, so audited totals telescope to
        real memory.  A ring whose ``C_o`` shares ``class_cum`` counts
        that buffer here, and its ``C_o`` node as 0 bytes.
        """
        from repro.obs.space import SpaceNode

        children = [
            bv.measure(f"level{i}") for i, bv in enumerate(self._levels)
        ]
        children.append(
            SpaceNode(
                "tables",
                children=[
                    SpaceNode(table, array.nbytes, kind="buffer",
                              detail={"dtype": str(array.dtype)})
                    for table, array in (
                        ("class_cum", self._class_cum),
                        ("bottom_start", self._bottom_start),
                    )
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WaveletMatrix(n={self._n}, sigma={self._sigma}, "
            f"height={self._height})"
        )
