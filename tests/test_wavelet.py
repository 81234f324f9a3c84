"""Tests for the wavelet matrix and the pointer wavelet tree.

Both structures expose the same operations, so most tests are run
against both via the ``structure`` fixture; the matrix is additionally
differential-tested against the tree under hypothesis.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConstructionError
from repro.succinct.wavelet_matrix import WaveletMatrix, _bit_reverse
from tests.wavelet_tree import WaveletTree

SEQ = [3, 1, 4, 1, 5, 2, 0, 5, 3, 3, 1, 0]
SIGMA = 6


@pytest.fixture(params=[WaveletMatrix, WaveletTree])
def structure(request):
    return request.param(SEQ, SIGMA)


class TestCommonOperations:
    def test_len_and_sigma(self, structure):
        assert len(structure) == len(SEQ)
        assert structure.sigma == SIGMA

    def test_access(self, structure):
        assert [structure.access(i) for i in range(len(SEQ))] == SEQ
        assert structure[0] == 3
        assert structure[-1] == 0

    def test_access_out_of_range(self, structure):
        with pytest.raises(IndexError):
            structure.access(len(SEQ))

    def test_rank(self, structure):
        for c in range(SIGMA):
            for i in range(len(SEQ) + 1):
                assert structure.rank(c, i) == SEQ[:i].count(c), (c, i)

    def test_rank_clamps(self, structure):
        assert structure.rank(3, 10_000) == SEQ.count(3)
        assert structure.rank(3, -2) == 0

    def test_rank_bad_symbol(self, structure):
        with pytest.raises(ValueError):
            structure.rank(SIGMA, 1)

    def test_select(self, structure):
        for c in range(SIGMA):
            positions = [i for i, v in enumerate(SEQ) if v == c]
            for j, pos in enumerate(positions):
                assert structure.select(c, j) == pos

    def test_select_out_of_range(self, structure):
        with pytest.raises(IndexError):
            structure.select(3, SEQ.count(3))

    def test_count(self, structure):
        for c in range(SIGMA):
            assert structure.count(c) == SEQ.count(c)

    def test_range_distinct(self, structure):
        for b, e in [(0, len(SEQ)), (2, 9), (5, 5), (9, 3)]:
            got = list(structure.range_distinct(b, e))
            window = SEQ[max(0, b):max(0, e)]
            assert [s for s, _, _ in got] == sorted(set(window))
            for sym, rb, re in got:
                assert rb == SEQ[:b].count(sym)
                assert re == SEQ[:e].count(sym)

    def test_range_intersect(self, structure):
        got = structure.range_intersect(0, 6, 6, 12)
        expected = sorted(set(SEQ[0:6]) & set(SEQ[6:12]))
        assert [t[0] for t in got] == expected
        for sym, r1b, r1e, r2b, r2e in got:
            assert r1e - r1b == SEQ[0:6].count(sym)
            assert r2e - r2b == SEQ[6:12].count(sym)

    def test_to_list(self, structure):
        assert structure.to_list() == SEQ

    def test_size_in_bits_positive(self, structure):
        assert structure.measure().nbytes > 0


class TestConstruction:
    @pytest.mark.parametrize("cls", [WaveletMatrix, WaveletTree])
    def test_empty_sequence(self, cls):
        wm = cls([], 4)
        assert len(wm) == 0
        assert wm.rank(0, 10) == 0
        assert list(wm.range_distinct(0, 5)) == []

    @pytest.mark.parametrize("cls", [WaveletMatrix, WaveletTree])
    def test_sigma_one(self, cls):
        wm = cls([0, 0, 0], 1)
        assert wm.to_list() == [0, 0, 0]
        assert wm.rank(0, 2) == 2
        assert wm.select(0, 2) == 2

    @pytest.mark.parametrize("cls", [WaveletMatrix, WaveletTree])
    def test_value_outside_alphabet(self, cls):
        with pytest.raises(ConstructionError):
            cls([4], 4)

    @pytest.mark.parametrize("cls", [WaveletMatrix, WaveletTree])
    def test_negative_value(self, cls):
        with pytest.raises(ConstructionError):
            cls([-1], 4)

    @pytest.mark.parametrize("cls", [WaveletMatrix, WaveletTree])
    def test_bad_sigma(self, cls):
        with pytest.raises(ConstructionError):
            cls([0], 0)

    def test_infers_sigma(self):
        wm = WaveletMatrix([5, 2, 7])
        assert wm.sigma == 8


class TestMatrixSpecific:
    def test_bit_reverse(self):
        assert _bit_reverse(0b001, 3) == 0b100
        assert _bit_reverse(0b110, 3) == 0b011
        assert _bit_reverse(0, 4) == 0
        assert _bit_reverse(0b1011, 4) == 0b1101

    def test_rank_pair(self):
        wm = WaveletMatrix(SEQ, SIGMA)
        for c in range(SIGMA):
            for b, e in [(0, 12), (3, 8), (5, 5)]:
                assert wm.rank_pair(c, b, e) == (
                    SEQ[:b].count(c), SEQ[:e].count(c)
                )

    def test_range_next_value(self):
        wm = WaveletMatrix(SEQ, SIGMA)
        for b, e in [(0, 12), (2, 7)]:
            for lower in range(SIGMA + 2):
                window = [v for v in SEQ[b:e] if v >= lower]
                expected = min(window) if window else None
                assert wm.range_next_value(b, e, lower) == expected

    def test_range_count_distinct(self):
        wm = WaveletMatrix(SEQ, SIGMA)
        for b in range(len(SEQ) + 1):
            for e in range(b, len(SEQ) + 1):
                assert wm.range_count_distinct(b, e) == \
                    len(set(SEQ[b:e])), (b, e)

    def test_traversal_data_consistency(self):
        wm = WaveletMatrix(SEQ, SIGMA)
        levels, zeros, height, sigma, class_cum, bottom_start = \
            wm.traversal_data()
        assert height == wm.height and sigma == wm.sigma
        assert len(levels) == height
        assert class_cum[-1] == len(SEQ)
        # replicate rank via the raw arrays and compare
        for c in range(SIGMA):
            for i in (0, 3, 7, 12):
                b = i
                for level in range(height):
                    words, cum, n_bits = levels[level]
                    if b <= 0:
                        r1 = 0
                    elif b >= n_bits:
                        r1 = cum[-1]
                    else:
                        w, off = b >> 6, b & 63
                        r1 = cum[w]
                        if off:
                            r1 += (words[w]
                                   & ((1 << off) - 1)).bit_count()
                    bit = (c >> (height - 1 - level)) & 1
                    b = zeros[level] + r1 if bit else b - r1
                assert b - bottom_start[c] == wm.rank(c, i), (c, i)


@pytest.mark.hypothesis
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    sigma=st.integers(min_value=1, max_value=40),
)
def test_matrix_matches_tree(data, sigma):
    seq = data.draw(
        st.lists(st.integers(min_value=0, max_value=sigma - 1), max_size=200)
    )
    wm = WaveletMatrix(seq, sigma)
    wt = WaveletTree(seq, sigma)
    assert wm.to_list() == wt.to_list() == seq
    b = data.draw(st.integers(min_value=0, max_value=len(seq)))
    e = data.draw(st.integers(min_value=0, max_value=len(seq)))
    distinct = list(wm.range_distinct(b, e))
    assert distinct == list(wt.range_distinct(b, e))
    assert wm.range_count_distinct(b, e) == len(set(seq[b:e]))
    origins, symbols, rank_bs, rank_es = wm.descend_batch([(b, e)])
    assert not origins.any()
    assert list(zip(symbols.tolist(), rank_bs.tolist(),
                    rank_es.tolist())) == distinct
    lower = data.draw(st.integers(min_value=-1, max_value=sigma + 1))
    above = [v for v in seq[b:e] if v >= lower]
    assert wm.range_next_value(b, e, lower) == \
        (min(above) if above else None)
    b2 = data.draw(st.integers(min_value=0, max_value=len(seq)))
    e2 = data.draw(st.integers(min_value=0, max_value=len(seq)))
    assert wm.range_intersect(b, e, b2, e2) == \
        wt.range_intersect(b, e, b2, e2)
    c = data.draw(st.integers(min_value=0, max_value=sigma - 1))
    i = data.draw(st.integers(min_value=0, max_value=len(seq)))
    assert wm.rank(c, i) == wt.rank(c, i)
    if seq.count(c):
        j = data.draw(st.integers(min_value=0, max_value=seq.count(c) - 1))
        assert wm.select(c, j) == wt.select(c, j)


# ----------------------------------------------------------------------
# range_intersect: the level-synchronous kernel at its edges
# ----------------------------------------------------------------------


def _view_of(wm: WaveletMatrix) -> WaveletMatrix:
    """The same matrix reassembled from packed level buffers, the way a
    snapshot attaches it (sentinel words, the directories as built)."""
    from repro.succinct.bitvector import BitVector

    return WaveletMatrix.from_parts(
        [BitVector.from_packed(*bv.batch_data()) for bv in wm._levels],
        len(wm), wm.sigma, wm._class_cum, wm._bottom_start,
    )


def _intersect_by_counting(seq, b1, e1, b2, e2):
    clamp = lambda x: max(0, min(x, len(seq)))  # noqa: E731
    b1, e1, b2, e2 = map(clamp, (b1, e1, b2, e2))
    return [
        (c, seq[:b1].count(c), seq[:e1].count(c),
         seq[:b2].count(c), seq[:e2].count(c))
        for c in sorted(set(seq[b1:e1]) & set(seq[b2:e2]))
    ]


@pytest.mark.parametrize("view", [False, True], ids=["built", "view"])
@pytest.mark.parametrize("ranges", [
    (0, 12, 0, 12),       # identical, everything
    (2, 9, 2, 9),         # identical, inner
    (0, 6, 6, 12),        # disjoint positions, shared symbols
    (4, 4, 0, 12),        # first empty
    (0, 12, 7, 7),        # second empty
    (9, 3, 0, 12),        # first inverted
    (0, 12, 12, 0),       # second inverted
    (-5, 4, 8, 40),       # endpoints outside [0, n], clamped
    (-9, -2, 0, 12),      # wholly left of the sequence
    (13, 99, 0, 12),      # wholly right of it
    (0, 10 ** 30, -10 ** 30, 12),  # beyond any machine word
    (0, 1, 8, 9),         # single positions, the same symbol
    (1, 2, 6, 7),         # single positions, nothing in common
], ids=str)
def test_range_intersect_edges(ranges, view):
    wm = WaveletMatrix(SEQ, SIGMA)
    before = wm.measure().nbytes
    got = (_view_of(wm) if view else wm).range_intersect(*ranges)
    assert got == _intersect_by_counting(SEQ, *ranges)
    assert got == WaveletTree(SEQ, SIGMA).range_intersect(*ranges)
    assert all(type(x) is int for row in got for x in row)
    if not view:
        assert wm.measure().nbytes == before  # no mirror left behind


@pytest.mark.parametrize("sigma", [1, 2, 5, 8, 9])
def test_range_intersect_small_alphabets(sigma):
    """σ = 1 (one padded level), powers of two, and the padded leaves
    of a non-power-of-two alphabet never leak into the answer."""
    seq = [(i * 7 + i // 3) % sigma for i in range(40)]
    wm = WaveletMatrix(seq, sigma)
    for ranges in [(0, 40, 0, 40), (0, 13, 11, 40), (5, 6, 0, 40)]:
        assert wm.range_intersect(*ranges) == \
            _intersect_by_counting(seq, *ranges)
    assert WaveletMatrix([], sigma).range_intersect(0, 5, 0, 5) == []
