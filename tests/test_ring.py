"""Tests for the ring data structure (§3.4)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConstructionError
from repro.graph.generators import random_graph
from repro.graph.model import Graph
from repro.ring.builder import RingIndex
from repro.ring.dictionary import Dictionary
from repro.ring.ring import Ring


def build_ring(triples, num_nodes, num_preds, **kwargs):
    return Ring(triples, num_nodes, num_preds, **kwargs)


class TestConstruction:
    def test_empty(self):
        ring = build_ring([], 3, 2)
        assert len(ring) == 0
        assert ring.full_range() == (0, 0)
        assert ring.object_range(1) == (0, 0)
        assert list(ring.iter_triples()) == []

    def test_single_triple(self):
        ring = build_ring([(0, 0, 1)], 2, 1)
        assert len(ring) == 1
        assert list(ring.iter_triples()) == [(0, 0, 1)]
        assert ring.contains_triple(0, 0, 1)
        assert not ring.contains_triple(1, 0, 0)

    def test_dedup(self):
        ring = build_ring([(0, 0, 1), (0, 0, 1)], 2, 1)
        assert len(ring) == 1

    def test_id_validation(self):
        with pytest.raises(ConstructionError):
            build_ring([(0, 0, 5)], 2, 1)
        with pytest.raises(ConstructionError):
            build_ring([(0, 3, 1)], 2, 1)
        with pytest.raises(ConstructionError):
            build_ring([(-1, 0, 1)], 2, 1)

    def test_object_column_optional(self):
        ring = build_ring([(0, 0, 1)], 2, 1)
        assert ring.L_o is None
        with pytest.raises(ConstructionError):
            ring.lf_s(0)
        with pytest.raises(ConstructionError):
            ring.lf_o(0)
        with pytest.raises(ConstructionError):
            ring.subject_backward_step(0, 1, 0)

    def test_with_object_column(self):
        triples = [(0, 0, 1), (1, 0, 0), (1, 1, 0)]
        ring = build_ring(triples, 2, 2, keep_object_column=True)
        assert ring.L_o is not None
        # LF cycle: L_p -> L_s -> L_o -> back to L_p
        for i in range(len(ring)):
            j = ring.lf_p(i)
            k = ring.lf_s(j)
            assert ring.lf_o(k) == i


class TestRangesAndSearch:
    def test_ranges_partition(self):
        rng = random.Random(3)
        triples = sorted({
            (rng.randrange(6), rng.randrange(3), rng.randrange(6))
            for _ in range(30)
        })
        ring = build_ring(triples, 6, 3)
        # object ranges partition [0, n)
        position = 0
        for o in range(6):
            b, e = ring.object_range(o)
            assert b == position
            position = e
        assert position == len(ring)
        # predicate ranges partition [0, n)
        position = 0
        for p in range(3):
            b, e = ring.predicate_range(p)
            assert b == position
            assert ring.predicate_count(p) == e - b
            position = e
        assert position == len(ring)

    def test_backward_step_matches_naive(self):
        rng = random.Random(9)
        triples = sorted({
            (rng.randrange(8), rng.randrange(4), rng.randrange(8))
            for _ in range(60)
        })
        ring = build_ring(triples, 8, 4)
        for o in range(8):
            b_o, e_o = ring.object_range(o)
            for p in range(4):
                b_s, e_s = ring.backward_step(b_o, e_o, p)
                subjects = sorted(
                    ring.L_s.access(i) for i in range(b_s, e_s)
                )
                naive = sorted(
                    s for (s, pp, oo) in triples if pp == p and oo == o
                )
                assert subjects == naive, (o, p)

    def test_triple_roundtrip(self):
        rng = random.Random(1)
        triples = sorted({
            (rng.randrange(10), rng.randrange(5), rng.randrange(10))
            for _ in range(80)
        })
        ring = build_ring(triples, 10, 5)
        assert sorted(ring.iter_triples()) == triples
        for s, p, o in triples[:20]:
            assert ring.contains_triple(s, p, o)

    def test_size_accounting(self):
        ring = build_ring([(0, 0, 1), (1, 1, 0)], 2, 2)
        node = ring.measure()
        node.check()
        assert node.nbytes > 0

    def test_selectivity_statistics(self):
        rng = random.Random(5)
        triples = sorted({
            (rng.randrange(6), rng.randrange(3), rng.randrange(6))
            for _ in range(40)
        })
        ring = build_ring(triples, 6, 3)
        for o in range(6):
            expected = len({p for (_, p, oo) in triples if oo == o})
            assert ring.count_distinct_predicates_into(o) == expected
        for p in range(3):
            expected = len({s for (s, pp, _) in triples if pp == p})
            assert ring.count_distinct_subjects_of(p) == expected


class TestRingIndex:
    def test_from_graph_roundtrip(self):
        g = random_graph(12, 40, 3, seed=11)
        index = RingIndex.from_graph(g)
        decoded = {
            index.dictionary.decode_triple(t)
            for t in index.ring.iter_triples()
        }
        assert decoded == set(g.completion())

    def test_from_triples(self):
        index = RingIndex.from_triples([("a", "p", "b")])
        assert len(index.ring) == 2  # edge + inverse

    def test_bytes_per_triple(self):
        g = random_graph(12, 40, 3, seed=11)
        index = RingIndex.from_graph(g)
        root = index.measure()
        ring = root.find("index.ring")
        assert ring.bits_per_triple(len(index.ring)) > 0
        assert root.nbytes > ring.nbytes
        assert root.find("index.dictionary").nbytes > 0

    def test_engine_property_cached(self):
        index = RingIndex.from_triples([("a", "p", "b")])
        assert index.engine is index.engine


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 7), st.integers(0, 3), st.integers(0, 7)
        ),
        max_size=60,
    )
)
def test_ring_roundtrip_property(triples):
    unique = sorted(set(triples))
    ring = Ring(unique, 8, 4)
    assert sorted(ring.iter_triples()) == unique
    # LF on L_p agrees with membership
    for s, p, o in unique:
        assert ring.contains_triple(s, p, o)
