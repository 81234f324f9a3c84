"""Succinct data structures: bitvectors, packed arrays and wavelet indexes.

This subpackage is the substrate layer of the reproduction.  It mirrors
the role the sdsl-lite C++ library plays in the paper's implementation:

* :class:`~repro.succinct.bitvector.BitVector` — packed bit array with
  constant-time ``rank`` and logarithmic ``select``;
* :class:`~repro.succinct.int_array.PackedIntArray` — fixed-width packed
  integer array (the "packed form" baseline for space accounting);
* :class:`~repro.succinct.wavelet_matrix.WaveletMatrix` — the wavelet
  matrix of Claude, Navarro & Ordóñez, used by the ring for its large
  node/predicate alphabets: ``access``/``rank``/``select``, scalar range
  queries over one stack walk, and the batched ``descend_batch``.
"""

from repro.succinct.bitvector import BitVector
from repro.succinct.int_array import PackedIntArray
from repro.succinct.wavelet_matrix import WaveletMatrix

__all__ = [
    "BitVector",
    "PackedIntArray",
    "WaveletMatrix",
]
