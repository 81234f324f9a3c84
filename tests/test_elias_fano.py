"""Tests for the Elias-Fano monotone sequence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConstructionError
from repro.succinct.elias_fano import EliasFano


class TestBasics:
    def test_empty(self):
        ef = EliasFano([])
        assert len(ef) == 0
        assert ef.successor_index(0) == 0

    def test_simple(self):
        values = [0, 0, 3, 7, 7, 12, 40]
        ef = EliasFano(values)
        assert list(ef) == values
        assert ef[3] == 7
        assert ef[-1] == 40

    def test_all_equal(self):
        ef = EliasFano([5, 5, 5])
        assert list(ef) == [5, 5, 5]

    def test_starts_at_zero_dense(self):
        values = list(range(100))
        ef = EliasFano(values)
        assert list(ef) == values

    def test_sparse(self):
        values = [0, 1_000_000, 2_000_000]
        ef = EliasFano(values)
        assert list(ef) == values
        # heavily sparse sequences compress far below 64 bits/entry
        assert ef.measure().nbytes * 8 < 3 * 64 * 10

    def test_non_monotone_rejected(self):
        with pytest.raises(ConstructionError):
            EliasFano([3, 1])

    def test_index_errors(self):
        ef = EliasFano([1, 2])
        with pytest.raises(IndexError):
            ef.get(2)
        with pytest.raises(IndexError):
            ef.get(-1)

    def test_successor_index(self):
        ef = EliasFano([2, 4, 4, 9])
        assert ef.successor_index(0) == 0
        assert ef.successor_index(2) == 0
        assert ef.successor_index(3) == 1
        assert ef.successor_index(4) == 1
        assert ef.successor_index(5) == 3
        assert ef.successor_index(9) == 3
        assert ef.successor_index(10) == 4

    def test_size_model(self):
        values = list(range(0, 1000, 7))
        ef = EliasFano(values)
        node = ef.measure()
        node.check()
        assert 0 < node.nbytes < 8 * len(values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=150))
def test_roundtrip_property(raw):
    values = sorted(raw)
    ef = EliasFano(values)
    assert list(ef) == values
    for probe in (0, 1, 5_000, 10_001):
        expected = next(
            (i for i, v in enumerate(values) if v >= probe), len(values)
        )
        assert ef.successor_index(probe) == expected
