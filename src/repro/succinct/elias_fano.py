"""Elias-Fano encoding of monotone integer sequences.

The sdsl ``sd_vector`` the paper's implementation uses for sparse
bitvectors is an Elias-Fano structure; here it encodes the ring's
boundary arrays (``C_o``, ``C_p``, ``C_s``), which are non-decreasing
sequences of ``m + 1`` values in ``[0, n]``.  Space is
``m·(2 + log(n/m))`` bits plus a select directory — typically far below
the 64 bits/entry of a plain array — and random access stays O(1)
amortised through the upper-bits select structure.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import ConstructionError
from repro.succinct.bitvector import BitVector
from repro.succinct.int_array import PackedIntArray


class EliasFano:
    """Random-access Elias-Fano sequence of non-decreasing integers."""

    __slots__ = ("_n", "_universe", "_low_bits", "_lows", "_highs")

    def __init__(self, values: Iterable[int] | Sequence[int]):
        values = list(values)
        self._n = len(values)
        if self._n == 0:
            self._universe = 0
            self._low_bits = 0
            self._lows = PackedIntArray([], width=1)
            self._highs = BitVector([])
            return
        previous = -1
        for v in values:
            if v < previous:
                raise ConstructionError(
                    "EliasFano requires a non-decreasing sequence"
                )
            previous = v
        universe = values[-1] + 1
        self._universe = universe
        low_bits = max(0, (universe // self._n).bit_length() - 1)
        self._low_bits = low_bits
        mask = (1 << low_bits) - 1
        if low_bits:
            self._lows = PackedIntArray(
                [v & mask for v in values], width=low_bits
            )
        else:
            self._lows = PackedIntArray([], width=1)
        # Upper part: unary-encode the gaps of the high halves.
        n_high_slots = (universe >> low_bits) + self._n + 1
        bits = np.zeros(n_high_slots, dtype=np.uint8)
        for i, v in enumerate(values):
            bits[(v >> low_bits) + i] = 1
        self._highs = BitVector(bits)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def get(self, i: int) -> int:
        """The ``i``-th value; O(1) via one select on the upper bits."""
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range [0, {self._n})")
        high = self._highs.select1(i) - i
        if self._low_bits:
            return (high << self._low_bits) | self._lows[i]
        return high

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self._n
        return self.get(i)

    def __iter__(self):
        for i in range(self._n):
            yield self.get(i)

    def successor_index(self, value: int) -> int:
        """Smallest ``i`` with ``self[i] >= value`` (``n`` if none).

        Binary search over the random-access view; O(log n).
        """
        lo, hi = 0, self._n
        while lo < hi:
            mid = (lo + hi) // 2
            if self.get(mid) < value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def measure(self, name: str = "elias_fano"):
        """Space-audit node: packed low halves + upper-bits bitvector."""
        from repro.obs.space import SpaceNode

        return SpaceNode(
            name,
            children=[
                self._lows.measure("lows"),
                self._highs.measure("highs"),
            ],
            kind="elias_fano",
            detail={
                "n": self._n,
                "universe": self._universe,
                "low_bits": self._low_bits,
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EliasFano(n={self._n}, universe={self._universe}, "
            f"low_bits={self._low_bits})"
        )
