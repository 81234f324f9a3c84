"""Low-level bit manipulation helpers.

These helpers are shared by the succinct data structures and the
bit-parallel automaton simulation.  NFA state sets are represented as
plain Python integers (arbitrary precision), while bitvector payloads
live in packed ``numpy.uint64`` word arrays; this module provides the
glue between the two worlds.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

#: Number of payload bits per machine word used by the packed structures.
WORD_BITS = 64

# Byte-indexed popcount table; np.unpackbits-based counting is slower for
# the short word runs rank() touches, so we count bytes via a table.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint32)


def popcount_words_cumulative(words: np.ndarray) -> np.ndarray:
    """Per-word popcounts of a ``uint64`` array as a ``uint32`` vector."""
    if words.size == 0:
        return np.zeros(0, dtype=np.uint32)
    as_bytes = words.view(np.uint8).reshape(-1, 8)
    return _POPCOUNT8[as_bytes].sum(axis=1, dtype=np.uint32)


# numpy >= 2.0 ships a native vectorized popcount; pyproject only pins
# numpy >= 1.24, so fall back to the byte table when it is missing.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount_u64(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array, as ``int64``.

    The batch-kernel analogue of ``int.bit_count()``: one vectorized
    pass instead of a Python-level loop per element.
    """
    if words.size == 0:
        return np.zeros(0, dtype=np.int64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    as_bytes = np.ascontiguousarray(words).view(np.uint8).reshape(-1, 8)
    return _POPCOUNT8[as_bytes].sum(axis=1, dtype=np.int64)


def position_dtype(n: int) -> np.dtype:
    """The narrowest signed dtype that holds every position ``0..n``.

    ``int32`` while ``n`` fits, else ``int64``.  Signed on purpose: the
    difference of two table reads stays exact (``uint32 - uint32``
    wraps below zero), and an ``int32`` read combined with an ``int64``
    array promotes to ``int64`` (``uint64`` with ``int64`` would go to
    ``float64``).
    """
    return np.dtype(np.int32 if n <= np.iinfo(np.int32).max else np.int64)


# Low-bit masks per in-word offset: _LOW_MASKS[k] has the k lowest bits
# set.  A 64-entry gather replaces a shift + subtract pass per batch.
_LOW_MASKS = (
    np.uint64(1) << np.arange(64, dtype=np.uint64)
) - np.uint64(1)


def rank1_many_words(
    words: np.ndarray,
    cum: np.ndarray,
    n_bits: int,
    positions: np.ndarray,
) -> np.ndarray:
    """Vectorized ``rank1`` over packed words with a cumulative directory.

    Parameters
    ----------
    words:
        Packed little-endian ``uint64`` payload.  May carry one zero
        sentinel word beyond the directory (``len(words) == len(cum)``);
        callers on hot paths pass that extended form so the boundary
        position needs no index clamp.
    cum:
        Cumulative per-word popcounts, word count + 1 entries, of any
        integer width (a built vector's ``uint32``, or the ``int64`` of
        an old snapshot); the gathered counts promote to ``int64``.
    n_bits:
        Logical length; positions are clipped into ``[0, n_bits]``
        exactly like the scalar ``BitVector.rank1`` clamps.
    positions:
        ``int64`` array of rank arguments.

    Returns the number of 1-bits strictly before each position.  The
    whole computation is gather + mask + popcount — no per-position
    Python bytecode.
    """
    pos = np.asarray(positions, dtype=np.int64)
    if pos.size == 0:
        return np.zeros(0, dtype=np.int64)
    if n_bits == 0 or words.size == 0:
        return np.zeros(pos.shape, dtype=np.int64)
    # minimum(maximum()) rather than np.clip: same values, a fraction
    # of the per-call overhead at the batch sizes the kernels use.
    clipped = np.minimum(np.maximum(pos, 0), n_bits)
    word = clipped >> 6
    if len(words) == len(cum):
        # Sentinel-extended payload: position n_bits on a word boundary
        # gathers the zero sentinel (offset 0 masks it out anyway).
        payload = words[word]
    else:
        # ``word`` equals len(words) only when clipped == n_bits on a
        # word boundary; the offset is 0 there, so the masked payload
        # does not matter — gather a safe index instead.
        payload = words[np.minimum(word, len(words) - 1)]
    in_word = payload & _LOW_MASKS[clipped & 63]
    return cum[word] + popcount_u64(in_word)


def pack_bool_array(bit_array: np.ndarray) -> np.ndarray:
    """Pack a 0/1 ``uint8`` array into uint64 words (little-endian bits)."""
    n = len(bit_array)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    n_words = (n + WORD_BITS - 1) // WORD_BITS
    padded = np.zeros(n_words * WORD_BITS, dtype=np.uint8)
    padded[:n] = bit_array
    packed_bytes = np.packbits(padded, bitorder="little")
    return packed_bytes.view(np.uint64)


def unpack_words(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_array`: words back to a 0/1 array."""
    if n_bits == 0:
        return np.zeros(0, dtype=np.uint8)
    as_bytes = words.view(np.uint8)
    bits = np.unpackbits(as_bytes, bitorder="little")
    return bits[:n_bits]


def iter_set_bits(x: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low
