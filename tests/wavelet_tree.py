"""Pointer-based (balanced) wavelet tree.

This is the textbook structure of §3.5 of the paper: a perfect binary
tree over the alphabet where each internal node stores one bitvector.
The production index used by the ring is the wavelet matrix
(:mod:`repro.succinct.wavelet_matrix`); this pointer version is the
reference implementation the matrix is differential-tested against in
``tests/test_wavelet.py`` (``range_intersect`` included).

Both classes deliberately share method names (``access``, ``rank``,
``select``, ``range_distinct``, ``measure``) so tests can run the
same scenario against either.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import ConstructionError
from repro.succinct.bitvector import BitVector


class _Node:
    """One internal wavelet tree node covering symbols ``[lo, hi)``."""

    __slots__ = ("lo", "hi", "bits", "left", "right")

    def __init__(self, lo: int, hi: int, bits: BitVector,
                 left: "_Node | None", right: "_Node | None"):
        self.lo = lo
        self.hi = hi
        self.bits = bits
        self.left = left
        self.right = right

    @property
    def mid(self) -> int:
        """Split point: symbols < mid go left, >= mid go right."""
        return (self.lo + self.hi) // 2


class WaveletTree:
    """Balanced wavelet tree over the alphabet ``[0, sigma)``.

    Ranges are half-open and 0-based, matching
    :class:`~repro.succinct.wavelet_matrix.WaveletMatrix`.
    """

    def __init__(self, values: Iterable[int] | np.ndarray, sigma: int | None = None):
        seq = np.asarray(
            values if isinstance(values, np.ndarray) else list(values),
            dtype=np.int64,
        )
        if seq.size and seq.min() < 0:
            raise ConstructionError("wavelet tree stores non-negative ints")
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
        self._counts = np.bincount(seq, minlength=sigma).astype(np.int64) \
            if seq.size else np.zeros(sigma, dtype=np.int64)
        self._root = self._build(seq, 0, sigma)

    def _build(self, seq: np.ndarray, lo: int, hi: int) -> _Node | None:
        if hi - lo <= 1:
            return None  # conceptual leaf; not materialised
        mid = (lo + hi) // 2
        go_right = seq >= mid
        bits = BitVector(go_right.astype(np.uint8))
        left = self._build(seq[~go_right], lo, mid)
        right = self._build(seq[go_right], mid, hi)
        return _Node(lo, hi, bits, left, right)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def sigma(self) -> int:
        """Alphabet size."""
        return self._sigma

    def count(self, symbol: int) -> int:
        """Total occurrences of ``symbol``."""
        self._check_symbol(symbol)
        return int(self._counts[symbol])

    def access(self, i: int) -> int:
        """Symbol at position ``i``; O(log sigma)."""
        if not 0 <= i < self._n:
            raise IndexError(f"position {i} out of range [0, {self._n})")
        node = self._root
        lo, hi = 0, self._sigma
        while node is not None:
            if node.bits[i]:
                i = node.bits.rank1(i)
                lo = node.mid
                node = node.right
            else:
                i = node.bits.rank0(i)
                hi = node.mid
                node = node.left
        return lo

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self._n
        return self.access(i)

    def rank(self, symbol: int, i: int) -> int:
        """Occurrences of ``symbol`` in ``[0, i)``; O(log sigma)."""
        self._check_symbol(symbol)
        if i <= 0:
            return 0
        i = min(i, self._n)
        node = self._root
        lo, hi = 0, self._sigma
        while node is not None:
            if symbol >= node.mid:
                i = node.bits.rank1(i)
                lo = node.mid
                node = node.right
            else:
                i = node.bits.rank0(i)
                hi = node.mid
                node = node.left
        return i

    def select(self, symbol: int, j: int) -> int:
        """Position of the ``j``-th (0-based) occurrence of ``symbol``."""
        self._check_symbol(symbol)
        if j < 0 or j >= self._counts[symbol]:
            raise IndexError(
                f"select({symbol}, {j}): only {int(self._counts[symbol])} "
                "occurrences"
            )
        # Collect the root-to-leaf path, then walk back up with select.
        path: list[tuple[_Node, int]] = []
        node = self._root
        while node is not None:
            bit = 1 if symbol >= node.mid else 0
            path.append((node, bit))
            node = node.right if bit else node.left
        pos = j
        for node, bit in reversed(path):
            pos = node.bits.select(bit, pos)
        return pos

    def to_list(self) -> list[int]:
        """Decode the full sequence (slow; tests only)."""
        return [self.access(i) for i in range(self._n)]

    # ------------------------------------------------------------------

    def range_distinct(self, b: int, e: int) -> Iterator[tuple[int, int, int]]:
        """Yield ``(symbol, rank_b, rank_e)`` per distinct symbol in
        ``[b, e)``, ascending; the §3.5 warm-up algorithm."""
        b = max(0, min(b, self._n))
        e = max(0, min(e, self._n))
        if b >= e:
            return
        yield from self._distinct(self._root, 0, self._sigma, b, e)

    def _distinct(self, node: _Node | None, lo: int, hi: int,
                  b: int, e: int) -> Iterator[tuple[int, int, int]]:
        if b >= e:
            return
        if node is None:
            yield (lo, b, e)
            return
        b0, e0 = node.bits.rank0(b), node.bits.rank0(e)
        b1, e1 = b - b0, e - e0
        yield from self._distinct(node.left, lo, node.mid, b0, e0)
        yield from self._distinct(node.right, node.mid, hi, b1, e1)

    def range_intersect(
        self, b1: int, e1: int, b2: int, e2: int
    ) -> list[tuple[int, int, int, int, int]]:
        """Symbols present in both ranges; see the matrix docstring."""
        clamp = lambda x: max(0, min(x, self._n))  # noqa: E731
        out: list[tuple[int, int, int, int, int]] = []
        self._intersect(self._root, 0, self._sigma,
                        clamp(b1), clamp(e1), clamp(b2), clamp(e2), out)
        return out

    def _intersect(self, node: _Node | None, lo: int, hi: int,
                   b1: int, e1: int, b2: int, e2: int,
                   out: list[tuple[int, int, int, int, int]]) -> None:
        if b1 >= e1 or b2 >= e2:
            return
        if node is None:
            out.append((lo, b1, e1, b2, e2))
            return
        l1b, l1e = node.bits.rank0(b1), node.bits.rank0(e1)
        l2b, l2e = node.bits.rank0(b2), node.bits.rank0(e2)
        self._intersect(node.left, lo, node.mid, l1b, l1e, l2b, l2e, out)
        self._intersect(node.right, node.mid, hi,
                        b1 - l1b, e1 - l1e, b2 - l2b, e2 - l2e, out)

    # ------------------------------------------------------------------

    def measure(self, name: str = "wavelet_tree"):
        """Space-audit node: every node bitvector plus the counts table."""
        from repro.obs.space import SpaceNode

        children = []

        def walk(node: _Node | None) -> None:
            if node is not None:
                children.append(node.bits.measure(f"node{len(children)}"))
                walk(node.left)
                walk(node.right)

        walk(self._root)
        children.append(SpaceNode("counts", self._counts.nbytes, kind="buffer"))
        return SpaceNode(name, children=children, kind="wavelet_tree")

    def _check_symbol(self, symbol: int) -> None:
        if not 0 <= symbol < self._sigma:
            raise ValueError(
                f"symbol {symbol} outside alphabet [0, {self._sigma})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WaveletTree(n={self._n}, sigma={self._sigma})"
