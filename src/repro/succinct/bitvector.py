"""Packed bitvector with constant-time rank and fast select.

The bitvector stores its payload in little-endian ``numpy.uint64`` words
and keeps a per-word cumulative popcount directory, so ``rank`` is two
array reads plus one in-word popcount.  ``select`` binary-searches the
directory and then scans a single word.

This is the Python analogue of sdsl-lite's ``bit_vector`` +
``rank_support_v`` + ``select_support_mcl`` combination used by the
paper's C++ implementation.  The directory here is word-granular (one
32-bit counter per 64 payload bits) because in CPython the dominant cost
is interpreter overhead, not cache misses; :meth:`size_in_bits` reports
the actually allocated bits and :meth:`size_in_bits_model` the space an
sdsl-style 25%-overhead build would use, so benchmarks can report both.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro._util.bits import (
    WORD_BITS,
    pack_bool_array,
    popcount_words_cumulative,
    rank1_many_words,
    unpack_words,
)
from repro.errors import InvariantViolation


class BitVector:
    """An immutable sequence of bits supporting access/rank/select.

    Parameters
    ----------
    bits:
        Iterable of truthy/falsy values, or a numpy array of 0/1.

    Notes
    -----
    All positional arguments are 0-based and ranges are half-open, i.e.
    ``rank1(i)`` counts ones strictly before position ``i``.
    """

    __slots__ = ("_n", "_words", "_cum", "_words_py", "_cum_py", "_words_ext")

    def __init__(self, bits: Iterable[int] | np.ndarray):
        if isinstance(bits, np.ndarray):
            bit_array = bits.astype(np.uint8, copy=False)
        else:
            bit_array = np.fromiter(
                (1 if b else 0 for b in bits), dtype=np.uint8
            )
        self._n = int(len(bit_array))
        self._words = pack_bool_array(bit_array)
        per_word = popcount_words_cumulative(self._words)
        cum = np.zeros(len(self._words) + 1, dtype=np.uint32)
        np.cumsum(per_word, out=cum[1:])
        self._cum = cum
        # Python-int mirrors of the packed words and the directory:
        # plain-list indexing plus int arithmetic is several times
        # faster under CPython than extracting numpy scalars, and rank
        # is the single hottest operation of the whole library.  The
        # mirrors are views of the same information, not extra payload,
        # so space accounting keeps using the numpy buffers.
        self._words_py: list[int] = self._words.tolist()
        self._cum_py: list[int] = cum.tolist()
        # Only a from_packed view has one: the sentinel-extended buffer
        # it was handed, of which ``_words`` is a slice.
        self._words_ext: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_packed(cls, words_ext: np.ndarray, cum64: np.ndarray,
                    n: int) -> "BitVector":
        """Wrap externally owned packed buffers without copying.

        This is the *view* construction path used by the shared-memory
        snapshot plane (:mod:`repro.ring.snapshot`): ``words_ext`` is
        the ``uint64`` payload **plus one zero sentinel word** and
        ``cum64`` the ``int64`` rank directory — exactly what
        :meth:`batch_data` exports — and every kernel runs directly on
        the caller's buffers (typically views over one
        ``multiprocessing.shared_memory`` segment or an ``mmap``-ed
        file).  The Python-int mirrors that back the scalar hot paths
        are materialised lazily on first scalar access, so a worker
        that only runs the batched kernels never pays for (or
        duplicates) them.

        The buffers must be treated as immutable; nothing is validated
        beyond the length arithmetic.
        """
        if len(words_ext) != len(cum64):
            raise InvariantViolation(
                "words_ext must carry exactly one sentinel word "
                f"({len(words_ext)} words vs {len(cum64)} directory entries)"
            )
        self = cls.__new__(cls)
        self._n = int(n)
        self._words = words_ext[:-1]
        self._cum = cum64
        self._words_ext = words_ext
        # _words_py / _cum_py deliberately left unset: __getattr__
        # materialises them on first scalar-path access.
        return self

    def __getattr__(self, name: str):
        # Only reachable while a slot is still unset (slot descriptors
        # win once assigned): build the scalar-path mirrors lazily for
        # view-constructed bitvectors.
        if name == "_words_py":
            mirror = self._words.tolist()
            self._words_py = mirror
            return mirror
        if name == "_cum_py":
            mirror = self._cum.tolist()
            self._cum_py = mirror
            return mirror
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @classmethod
    def from_indices(cls, n: int, ones: Iterable[int]) -> "BitVector":
        """Build a length-``n`` bitvector with 1s at the given positions."""
        bit_array = np.zeros(n, dtype=np.uint8)
        positions = np.fromiter(ones, dtype=np.int64)
        if positions.size:
            if positions.min() < 0 or positions.max() >= n:
                raise IndexError("one-position out of range")
            bit_array[positions] = 1
        return cls(bit_array)

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        """Build an all-zero bitvector of length ``n``."""
        return cls(np.zeros(n, dtype=np.uint8))

    # ------------------------------------------------------------------
    # Basic access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(f"bit index {i} out of range [0, {self._n})")
        # Index the Python-int mirror: under CPython a list access plus
        # int shift is several times faster than a numpy scalar extract.
        return (self._words_py[i >> 6] >> (i & 63)) & 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_array())

    def to_array(self) -> np.ndarray:
        """The bits as a 0/1 ``uint8`` numpy array."""
        return unpack_words(self._words, self._n)

    @property
    def num_ones(self) -> int:
        """Total number of 1-bits."""
        return int(self._cum[-1])

    @property
    def num_zeros(self) -> int:
        """Total number of 0-bits."""
        return self._n - self.num_ones

    # ------------------------------------------------------------------
    # Rank / select
    # ------------------------------------------------------------------

    def rank1(self, i: int) -> int:
        """Number of 1-bits in positions ``[0, i)``; O(1)."""
        if i <= 0:
            return 0
        if i >= self._n:
            return self._cum_py[-1]
        word = i >> 6
        offset = i & 63
        count = self._cum_py[word]
        if offset:
            count += (self._words_py[word] & ((1 << offset) - 1)).bit_count()
        return count

    def batch_data(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The packed export ``(words_ext, cum64, n)`` that
        :meth:`from_packed` accepts: the payload plus one zero sentinel
        word, and the rank directory as ``int64``.

        A view hands back the buffers it wraps; a built vector makes
        the two arrays for the caller and keeps neither, so exporting
        (a snapshot flatten) leaves its audited size as it was.
        """
        if self._words_ext is not None:
            return self._words_ext, self._cum, self._n
        return (
            np.concatenate((self._words, np.zeros(1, dtype=np.uint64))),
            self._cum.astype(np.int64),
            self._n,
        )

    def rank1_many(self, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rank1` over an ``int64`` position array.

        Positions are clamped into ``[0, n]`` like the scalar path.
        One gather + mask + popcount pass over the held arrays (a view
        gives the kernel its sentinel-extended buffer, which spares the
        boundary clamp); the per-position Python cost of the scalar
        loop is what the batched traversal kernels avoid.
        """
        words = self._words if self._words_ext is None else self._words_ext
        return rank1_many_words(words, self._cum, self._n, positions)

    def rank_pair_many(self, bs: np.ndarray, es: np.ndarray) -> tuple[
            np.ndarray, np.ndarray]:
        """Vectorized rank over range endpoint pairs.

        Equivalent to ``(rank1_many(bs), rank1_many(es))`` but with a
        single kernel invocation over the concatenated endpoints, which
        halves the fixed numpy dispatch overhead per batch — the shape
        every wavelet-descent level needs.
        """
        bs = np.asarray(bs, dtype=np.int64)
        es = np.asarray(es, dtype=np.int64)
        both = self.rank1_many(np.concatenate((bs, es)))
        return both[: len(bs)], both[len(bs):]

    def rank0(self, i: int) -> int:
        """Number of 0-bits in positions ``[0, i)``; O(1)."""
        if i <= 0:
            return 0
        if i >= self._n:
            return self.num_zeros
        return i - self.rank1(i)

    def rank(self, bit: int, i: int) -> int:
        """``rank1(i)`` if ``bit`` else ``rank0(i)``."""
        return self.rank1(i) if bit else self.rank0(i)

    def select1(self, j: int) -> int:
        """Position of the ``j``-th 1-bit (0-based); O(log n).

        Raises :class:`IndexError` when fewer than ``j + 1`` ones exist.
        """
        if j < 0 or j >= self.num_ones:
            raise IndexError(f"select1({j}) out of range: {self.num_ones} ones")
        word = int(np.searchsorted(self._cum, j, side="right")) - 1
        remaining = j - self._cum_py[word]
        bits = self._words_py[word]
        return word * WORD_BITS + _select_in_word(bits, remaining)

    def select0(self, j: int) -> int:
        """Position of the ``j``-th 0-bit (0-based); O(log n)."""
        if j < 0 or j >= self.num_zeros:
            raise IndexError(
                f"select0({j}) out of range: {self.num_zeros} zeros"
            )
        # Zero-count prefix per word boundary: w*64 - cum[w], monotone in w.
        cum_py = self._cum_py
        lo, hi = 0, len(self._words)
        while lo < hi:
            mid = (lo + hi) // 2
            zeros_before = mid * WORD_BITS - cum_py[mid]
            if zeros_before <= j:
                lo = mid + 1
            else:
                hi = mid
        word = lo - 1
        remaining = j - (word * WORD_BITS - cum_py[word])
        bits = ~self._words_py[word] & ((1 << WORD_BITS) - 1)
        return word * WORD_BITS + _select_in_word(bits, remaining)

    def select(self, bit: int, j: int) -> int:
        """``select1(j)`` if ``bit`` else ``select0(j)``."""
        return self.select1(j) if bit else self.select0(j)

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def size_in_bits(self) -> int:
        """Bits actually allocated: payload words plus rank directory."""
        return self._words.nbytes * 8 + self._cum.nbytes * 8

    def size_in_bits_model(self) -> int:
        """Space model of an sdsl-style build: ``n`` payload + 25% rank."""
        return self._n + self._n // 4

    def measure(self, name: str = "bitvector"):
        """Space-audit node: payload words and rank directory, separately.

        Counts each numpy buffer exactly once.  A view-constructed
        vector (:meth:`from_packed`) aliases ``_words`` onto the
        caller's ``words_ext`` buffer, so the sentinel word is
        attributed to ``words`` via ``words_ext`` and nothing is double
        counted.  The Python-int mirrors are decode caches of the same
        information and are excluded by the library-wide convention.
        """
        from repro.obs.space import SpaceNode

        view = self._words_ext is not None
        words = self._words_ext if view else self._words
        detail = {"dtype": "uint64"}
        if view:
            detail["sentinel_words"] = 1
        children = [
            SpaceNode("words", words.nbytes, kind="buffer", detail=detail),
            SpaceNode("rank_directory", self._cum.nbytes, kind="buffer",
                      detail={"dtype": str(self._cum.dtype)}),
        ]
        return SpaceNode(name, children=children, kind="bitvector",
                         detail={"n": self._n, "view": view})

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Validate the rank directory against a recount (slow)."""
        per_word = popcount_words_cumulative(self._words)
        expected = np.zeros(len(self._words) + 1, dtype=np.uint32)
        np.cumsum(per_word, out=expected[1:])
        if not np.array_equal(expected, self._cum):
            raise InvariantViolation("bitvector rank directory is stale")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = "".join(str(b) for b in self.to_array()[:32])
        suffix = "…" if self._n > 32 else ""
        return f"BitVector(n={self._n}, bits={preview}{suffix})"


def _select_in_word(bits: int, j: int) -> int:
    """Offset of the ``j``-th set bit within a 64-bit word."""
    for _ in range(j):
        bits &= bits - 1  # clear lowest set bit
    if bits == 0:
        raise InvariantViolation("select directory pointed at a short word")
    return (bits & -bits).bit_length() - 1
