"""Fixed-width packed integer array.

The paper reports its dataset size in "packed form": each triple
component stored in exactly ``ceil(log2(alphabet))`` bits.  This module
provides that representation so the benchmark harness can report the
same baseline, and so dictionaries / C-arrays can be stored compactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import ConstructionError


def bits_for(max_value: int) -> int:
    """Number of bits needed to store values in ``[0, max_value]``."""
    if max_value < 0:
        raise ConstructionError("max_value must be non-negative")
    return max(1, int(max_value).bit_length())


class PackedIntArray:
    """An immutable array of ``n`` integers, each stored in ``width`` bits.

    Values are packed little-endian into a ``uint64`` word buffer; random
    access unpacks at most two adjacent words.
    """

    __slots__ = ("_n", "_width", "_words")

    def __init__(self, values: Iterable[int] | np.ndarray, width: int | None = None):
        values = np.asarray(
            values if isinstance(values, np.ndarray) else list(values),
            dtype=np.int64,
        )
        if values.size and values.min() < 0:
            raise ConstructionError("PackedIntArray stores non-negative ints")
        if width is None:
            width = bits_for(int(values.max()) if values.size else 0)
        if not 1 <= width <= 64:
            raise ConstructionError(f"width must be in [1, 64], got {width}")
        if values.size and int(values.max()).bit_length() > width:
            raise ConstructionError(
                f"value {int(values.max())} does not fit in {width} bits"
            )
        self._n = int(values.size)
        self._width = width
        total_bits = self._n * width
        n_words = (total_bits + 63) // 64
        words = np.zeros(n_words + 1, dtype=np.uint64)  # +1 pad word
        # Pack via bit arithmetic on Python ints per value; construction
        # is offline so clarity beats vectorisation here.
        for i, v in enumerate(values):
            bit = i * width
            word, offset = divmod(bit, 64)
            chunk = int(v) << offset
            words[word] |= np.uint64(chunk & 0xFFFFFFFFFFFFFFFF)
            if offset + width > 64:
                words[word + 1] |= np.uint64(chunk >> 64)
        self._words = words

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def width(self) -> int:
        """Bits per element."""
        return self._width

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range [0, {self._n})")
        bit = i * self._width
        word, offset = divmod(bit, 64)
        value = int(self._words[word]) >> offset
        if offset + self._width > 64:
            value |= int(self._words[word + 1]) << (64 - offset)
        return value & ((1 << self._width) - 1)

    def __iter__(self) -> Iterator[int]:
        for i in range(self._n):
            yield self[i]

    def to_array(self) -> np.ndarray:
        """Unpack into an ``int64`` numpy array."""
        return np.fromiter(self, dtype=np.int64, count=self._n)

    def measure(self, name: str = "packed_int_array"):
        """Space-audit node: the packed word buffer (pad word included)."""
        from repro.obs.space import SpaceNode

        return SpaceNode(
            name,
            children=[
                SpaceNode("words", self._words.nbytes, kind="buffer",
                          detail={"dtype": "uint64", "pad_words": 1}),
            ],
            kind="packed_int_array",
            detail={"n": self._n, "width": self._width},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedIntArray(n={self._n}, width={self._width})"
