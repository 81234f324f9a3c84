"""Unit and property tests for the packed bitvector."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct.bitvector import BitVector


class TestBasics:
    def test_empty(self):
        bv = BitVector([])
        assert len(bv) == 0
        assert bv.num_ones == 0
        assert bv.num_zeros == 0
        assert bv.rank1(0) == 0
        assert bv.rank0(5) == 0

    def test_single_bits(self):
        assert BitVector([1])[0] == 1
        assert BitVector([0])[0] == 0

    def test_access_and_iter(self):
        bits = [1, 0, 0, 1, 1, 0, 1]
        bv = BitVector(bits)
        assert [bv[i] for i in range(len(bits))] == bits
        assert list(bv) == bits
        assert bv[-1] == 1
        assert bv[-7] == 1

    def test_access_out_of_range(self):
        bv = BitVector([1, 0])
        with pytest.raises(IndexError):
            bv[2]
        with pytest.raises(IndexError):
            bv[-3]

    def test_from_indices(self):
        bv = BitVector.from_indices(10, [0, 3, 9])
        assert list(bv) == [1, 0, 0, 1, 0, 0, 0, 0, 0, 1]

    def test_from_indices_out_of_range(self):
        with pytest.raises(IndexError):
            BitVector.from_indices(4, [4])

    def test_zeros(self):
        bv = BitVector.zeros(100)
        assert bv.num_ones == 0
        assert bv.rank0(100) == 100

    def test_word_boundaries(self):
        # Bits around the 64-bit word edges are the classic off-by-one
        # location; place ones exactly there.
        ones = [0, 63, 64, 127, 128, 191]
        bv = BitVector.from_indices(200, ones)
        for i, pos in enumerate(ones):
            assert bv.select1(i) == pos
            assert bv.rank1(pos) == i
            assert bv.rank1(pos + 1) == i + 1

    def test_counts(self):
        bv = BitVector([1, 1, 0, 1])
        assert bv.num_ones == 3
        assert bv.num_zeros == 1

    def test_rank_clamps(self):
        bv = BitVector([1, 0, 1])
        assert bv.rank1(1000) == 2
        assert bv.rank0(-5) == 0
        assert bv.rank(1, 3) == 2
        assert bv.rank(0, 3) == 1

    def test_select_errors(self):
        bv = BitVector([1, 0])
        with pytest.raises(IndexError):
            bv.select1(1)
        with pytest.raises(IndexError):
            bv.select0(1)
        with pytest.raises(IndexError):
            bv.select1(-1)

    def test_select_generic(self):
        bv = BitVector([0, 1, 1, 0, 1])
        assert bv.select(1, 0) == 1
        assert bv.select(0, 1) == 3

    def test_check_passes(self):
        BitVector([1, 0] * 100).check()

    def test_numpy_input(self):
        arr = np.array([1, 0, 1], dtype=np.uint8)
        assert list(BitVector(arr)) == [1, 0, 1]

    def test_size_accounting(self):
        bv = BitVector([1] * 1000)
        node = bv.measure()
        # 1000 bits fill 16 payload words; the directory has one
        # counter per word plus the total.
        assert node.find("bitvector.words").nbytes == 16 * 8
        assert node.find("bitvector.rank_directory").nbytes == 17 * 4
        assert node.nbytes * 8 >= 1000


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), max_size=600))
def test_rank_matches_naive(bits):
    bv = BitVector(bits)
    prefix = 0
    for i, bit in enumerate(bits):
        assert bv.rank1(i) == prefix
        assert bv.rank0(i) == i - prefix
        prefix += bit
    assert bv.rank1(len(bits)) == prefix


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), max_size=600))
def test_select_inverts_rank(bits):
    bv = BitVector(bits)
    ones = [i for i, b in enumerate(bits) if b]
    zeros = [i for i, b in enumerate(bits) if not b]
    for j, pos in enumerate(ones):
        assert bv.select1(j) == pos
        assert bv.rank1(bv.select1(j)) == j
    for j, pos in enumerate(zeros):
        assert bv.select0(j) == pos


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2000), st.random_module())
def test_roundtrip_to_array(n, _):
    rng = np.random.default_rng(n)
    bits = (rng.random(n) < 0.3).astype(np.uint8)
    bv = BitVector(bits)
    assert np.array_equal(bv.to_array(), bits)
    bv.check()
