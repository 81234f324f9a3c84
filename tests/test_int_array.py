"""Tests for the fixed-width packed integer array."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConstructionError
from repro.succinct.int_array import PackedIntArray, bits_for


class TestBitsFor:
    def test_small_values(self):
        assert bits_for(0) == 1
        assert bits_for(1) == 1
        assert bits_for(2) == 2
        assert bits_for(255) == 8
        assert bits_for(256) == 9

    def test_negative_rejected(self):
        with pytest.raises(ConstructionError):
            bits_for(-1)


class TestPackedIntArray:
    def test_empty(self):
        arr = PackedIntArray([])
        assert len(arr) == 0
        assert list(arr) == []
        assert arr.width == 1

    def test_roundtrip(self):
        values = [0, 5, 1023, 17, 512]
        arr = PackedIntArray(values)
        assert arr.width == 10
        assert list(arr) == values
        assert arr.to_array().tolist() == values

    def test_explicit_width(self):
        arr = PackedIntArray([1, 2, 3], width=16)
        assert arr.width == 16
        assert list(arr) == [1, 2, 3]

    def test_width_too_small(self):
        with pytest.raises(ConstructionError):
            PackedIntArray([256], width=8)

    def test_width_out_of_range(self):
        with pytest.raises(ConstructionError):
            PackedIntArray([1], width=0)
        with pytest.raises(ConstructionError):
            PackedIntArray([1], width=65)

    def test_negative_rejected(self):
        with pytest.raises(ConstructionError):
            PackedIntArray([-1])

    def test_negative_index(self):
        arr = PackedIntArray([10, 20, 30])
        assert arr[-1] == 30

    def test_index_out_of_range(self):
        arr = PackedIntArray([10])
        with pytest.raises(IndexError):
            arr[1]

    def test_cross_word_values(self):
        # width 37 guarantees values straddle 64-bit word boundaries
        values = [(1 << 37) - 1, 0, 123456789, (1 << 36) + 17]
        arr = PackedIntArray(values, width=37)
        assert list(arr) == values

    def test_size_in_bits(self):
        arr = PackedIntArray(list(range(100)), width=7)
        # 700 payload bits rounded to words, plus one pad word
        assert arr.measure().nbytes * 8 >= 700


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1), max_size=80)
)
def test_roundtrip_property(values):
    arr = PackedIntArray(values)
    assert list(arr) == values
    for i, v in enumerate(values):
        assert arr[i] == v
