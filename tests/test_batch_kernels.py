"""Batch kernels agree with their scalar counterparts, exactly.

Five layers of evidence:

* hypothesis property tests pin the vectorized rank/descent kernels to
  the scalar reference implementations, including the clamping and
  boundary behaviour (positions past ``n``, empty ranges, padded
  leaves);
* the ring's bulk operations (``backward_step_many``,
  ``object_ranges_many``) are checked element-wise against their
  scalar originals on a benchmark-shaped index;
* the decode kernels (``access_range``, ``rank_many``,
  ``Ring.triples_arrays``) and the matrix store that is a cache of
  them are pinned to the scalar triple walk over random completed
  graphs, on built and on view-attached rings, and must leave the
  ring's audited size exactly as they found it;
* an engine-level differential proves the batched traversal returns
  the *identical* pair sets and the identical operation counters as
  the scalar engine on tier-1 graphs — a batch of k must account
  exactly like k scalar steps;
* the §5 fast paths, which run as array pipelines under ``batch=True``,
  are held to their scalar ``batch=False`` reference at every result
  cap (pairs, ``truncated`` and counters), do bounded work under a
  cap, consult the budget between bounded runs of a listing (a
  deadline or a cancel stops a large one in the middle) and leave no
  mirror on the ring.

The differential runs with production thresholds, on single-anchor
runs that stop early (a result cap, a ``cc`` target), and — for the
array kernel every multi-anchor run takes — at phase-2 chunk widths
from one anchor to 1 024, with pruning on and off and with forbidden
nodes, so narrow frontiers cannot hide the merged paths from the test.
Single-anchor runs are also forced onto the array kernel from their
first or second wave, so the switch itself is held to the reference.
A constructed graph pins the one subtle step of that kernel: the
earlier tasks of the same anchor in the same wave.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.bits import rank1_many_words
from repro.core import batchrun
from repro.core import engine as engine_module
from repro.core.engine import RingRPQEngine
from repro.graph.generators import random_graph
from repro.graph.model import Graph
from repro.ring.builder import RingIndex
from repro.ring.dictionary import Dictionary
from repro.ring.ring import Ring
from repro.ring.snapshot import (
    SharedIndexHandle,
    _write_payload,
    attach_index,
    snapshot_index,
)
from repro.serve.keys import index_fingerprint
from repro.succinct.bitvector import BitVector
from repro.succinct.wavelet_matrix import WaveletMatrix
from repro.testing import brute_force_rpq

# Counters that must match between the scalar and the batched engine on
# untruncated runs (the full PR-1 bucket set plus the derived totals).
EXACT_COUNTERS = (
    "lp_descents", "lp_nodes", "lp_pruned", "lp_empty", "lp_children",
    "ls_descents", "ls_nodes", "ls_pruned", "ls_empty", "ls_children",
    "wavelet_nodes", "backward_steps", "product_nodes", "product_edges",
    "object_ranges", "storage_ops", "subqueries", "visited_nodes",
)

QUERIES = [
    "(?x, p0, ?y)",
    "(?x, p0/p1, ?y)",
    "(?x, (p0|p3)+, ?y)",
    "(?x, p2/p0*, ?y)",
    "(?x, (p1/p2)?, ?y)",
    "(?x, ^p0, ?y)",
    "(?x, p0, n5)",
    "(n3, p0/p1*, ?y)",
    "(n1, (p0|p1)+, n2)",
]

#: 72 NFA states — two positions per optional step, one for ``p2``, the
#: initial state: one bit too many for the ``int64`` mask columns of a
#: merged L_p wave, so every entry must expand on Python-int masks.
WIDE_EXPR = "/".join(["(p0|p1)?"] * 35 + ["p2"])
WIDE_QUERIES = [f"(?x, {WIDE_EXPR}, ?y)", f"(?x, {WIDE_EXPR}, n89)"]

#: Single-anchor runs that stop early, as ``(query, limit)``: a result
#: cap, and a ``cc`` target found in the middle of a wide wave.  At the
#: production switch width both stop before their waves grow wide, on
#: the entry-by-entry walk, so they count exactly as the reference does.
EARLY_EXITS = [
    ("(?x, (p0|p1)+, n3)", 20),
    ("(n21, (p0|p1|p2|p3)+, n242)", None),
]


# ----------------------------------------------------------------------
# Kernel-level properties
# ----------------------------------------------------------------------


@pytest.mark.hypothesis
@settings(max_examples=60, deadline=None)
@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), max_size=300),
    raw_positions=st.lists(
        st.integers(min_value=-10, max_value=400), max_size=40
    ),
)
def test_rank1_many_matches_scalar(bits, raw_positions):
    bv = BitVector(bits)
    positions = np.asarray(raw_positions, dtype=np.int64)
    got = bv.rank1_many(positions).tolist()
    want = [bv.rank1(p) for p in raw_positions]
    assert got == want


@pytest.mark.hypothesis
@settings(max_examples=60, deadline=None)
@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), max_size=300),
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=350),
            st.integers(min_value=-5, max_value=350),
        ),
        max_size=30,
    ),
)
def test_rank_pair_many_matches_scalar(bits, pairs):
    bv = BitVector(bits)
    bs = np.asarray([b for b, _ in pairs], dtype=np.int64)
    es = np.asarray([e for _, e in pairs], dtype=np.int64)
    rb, re = bv.rank_pair_many(bs, es)
    assert rb.tolist() == [bv.rank1(b) for b, _ in pairs]
    assert re.tolist() == [bv.rank1(e) for _, e in pairs]


def test_rank1_many_words_empty_inputs():
    empty = np.zeros(0, dtype=np.uint64)
    cum = np.zeros(1, dtype=np.int64)
    assert rank1_many_words(
        empty, cum, 0, np.zeros(0, dtype=np.int64)
    ).tolist() == []
    assert rank1_many_words(
        empty, cum, 0, np.asarray([0, 5], dtype=np.int64)
    ).tolist() == [0, 0]


@pytest.mark.hypothesis
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    sigma=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=0, max_value=200),
)
def test_wavelet_rank_pair_many_matches_scalar(data, sigma, n):
    seq = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=sigma - 1),
            min_size=n, max_size=n,
        )
    )
    matrix = WaveletMatrix(seq, sigma)
    symbol = data.draw(st.integers(min_value=0, max_value=sigma - 1))
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-5, max_value=n + 5),
                st.integers(min_value=-5, max_value=n + 5),
            ),
            max_size=20,
        )
    )
    bs = np.asarray([b for b, _ in pairs], dtype=np.int64)
    es = np.asarray([e for _, e in pairs], dtype=np.int64)
    rb, re = matrix.rank_pair_many(symbol, bs, es)
    want = [matrix.rank_pair(symbol, b, e) for b, e in pairs]
    assert list(zip(rb.tolist(), re.tolist())) == want


@pytest.mark.hypothesis
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    sigma=st.integers(min_value=1, max_value=50),
    n=st.integers(min_value=0, max_value=200),
)
def test_descend_batch_matches_range_distinct(data, sigma, n):
    seq = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=sigma - 1),
            min_size=n, max_size=n,
        )
    )
    matrix = WaveletMatrix(seq, sigma)
    ranges = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=n + 3),
                st.integers(min_value=-3, max_value=n + 3),
            ),
            max_size=12,
        )
    )
    origins, symbols, b_leaf, e_leaf = matrix.descend_batch(ranges)
    for oi, (b, e) in enumerate(ranges):
        mask = origins == oi
        want = list(matrix.range_distinct(b, e))
        got = list(zip(
            symbols[mask].tolist(),
            b_leaf[mask].tolist(),
            e_leaf[mask].tolist(),
        ))
        assert got == want, (oi, b, e)


def test_backward_step_many_matches_scalar(kg_index):
    ring = kg_index.ring
    ranges = []
    for node in range(ring.num_nodes):
        b, e = ring.object_range(node)
        ranges.append((b, e))
    for pid in range(ring.num_predicates):
        batched = ring.backward_step_many(ranges, pid)
        scalar = [ring.backward_step(b, e, pid) for b, e in ranges]
        assert [tuple(row) for row in batched.tolist()] == scalar


def test_object_ranges_many_matches_scalar(kg_index):
    ring = kg_index.ring
    nodes = list(range(ring.num_nodes))
    batched = ring.object_ranges_many(nodes)
    scalar = [ring.object_range(n) for n in nodes]
    assert [tuple(row) for row in batched.tolist()] == scalar


# ----------------------------------------------------------------------
# Decode kernels: the ring inverted in bulk, and the matrix store on top
# ----------------------------------------------------------------------


@pytest.mark.hypothesis
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    sigma=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=0, max_value=200),
)
def test_access_range_and_rank_many_match_scalar(data, sigma, n):
    seq = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=sigma - 1),
            min_size=n, max_size=n,
        )
    )
    matrix = WaveletMatrix(seq, sigma)
    before = matrix.measure().nbytes
    assert matrix.access_range().tolist() == seq
    b = data.draw(st.integers(min_value=-3, max_value=n + 3))
    e = data.draw(st.integers(min_value=-3, max_value=n + 3))
    assert matrix.access_range(b, e).tolist() == seq[max(0, b):max(0, e)]
    symbol = data.draw(st.integers(min_value=0, max_value=sigma - 1))
    positions = data.draw(
        st.lists(st.integers(min_value=-5, max_value=n + 5), max_size=20)
    )
    assert matrix.rank_many(symbol, positions).tolist() == [
        matrix.rank(symbol, i) for i in positions
    ]
    assert matrix.measure().nbytes == before  # no mirror left behind


@st.composite
def completed_graphs(draw):
    """``(num_nodes, inverse_ids, completed int triples)``: one to
    four ``p``/``^p`` twin pairs plus, sometimes, a symmetric predicate
    (so |P| is odd, even, a power of two or not), one to a dozen nodes,
    and an edge list that is free to leave predicates without edges."""
    num_nodes = draw(st.integers(min_value=1, max_value=12))
    pairs = draw(st.integers(min_value=1, max_value=4))
    inverse = [p ^ 1 for p in range(2 * pairs)]
    if draw(st.booleans()):
        inverse.append(len(inverse))  # its own inverse
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    edges = draw(st.lists(
        st.tuples(node, st.integers(min_value=0, max_value=len(inverse) - 1),
                  node),
        max_size=40,
    ))
    completed = {t for s, p, o in edges
                 for t in ((s, p, o), (o, inverse[p], s))}
    return num_nodes, inverse, sorted(completed)


def _index_of(graph, compressed: bool) -> RingIndex:
    num_nodes, inverse, triples = graph
    ring = Ring(triples, num_nodes, len(inverse),
                compressed_boundaries=compressed)
    dictionary = Dictionary(
        [f"n{i}" for i in range(num_nodes)],
        [f"p{i}" for i in range(len(inverse))],
        inverse,
    )
    return RingIndex(dictionary, ring)


def _attached(index: RingIndex) -> RingIndex:
    """The same index as views over a snapshot payload."""
    manifest, buffers = snapshot_index(index)
    payload = bytearray(manifest["total_bytes"])
    _write_payload(manifest, buffers, payload)
    return attach_index(manifest, payload)


@pytest.mark.hypothesis
@settings(max_examples=60, deadline=None)
@given(graph=completed_graphs(), compressed=st.booleans(),
       attach=st.booleans())
def test_triples_arrays_match_the_scalar_walk(graph, compressed, attach):
    index = _index_of(graph, compressed)
    ring = (_attached(index) if attach else index).ring
    before = ring.measure().nbytes
    want = [ring.triple_at_lp(i) for i in range(len(ring))]
    subjects, predicates, objects = ring.triples_arrays()
    got = list(zip(subjects.tolist(), predicates.tolist(), objects.tolist()))
    assert got == want == list(ring.iter_triples())
    assert sorted(got) == graph[2]
    assert ring.measure().nbytes == before


@pytest.mark.hypothesis
@settings(max_examples=60, deadline=None)
@given(graph=completed_graphs(), compressed=st.booleans(),
       attach=st.booleans())
def test_matrix_store_matches_eager_csr(graph, compressed, attach):
    sp = pytest.importorskip("scipy.sparse")
    from repro.matrix.matrices import PredicateMatrices

    num_nodes, inverse, _ = graph
    index = _index_of(graph, compressed)
    ring = (_attached(index) if attach else index).ring
    edges: dict = {}
    for s, p, o in ring.iter_triples():
        edges.setdefault(p, []).append((s, o))
    before = ring.measure().nbytes
    store = PredicateMatrices(ring)
    assert store.measure().nbytes == 0
    assert store.predicates == sorted(edges)
    for pid in range(len(inverse)):
        block = store.matrix(pid)
        assert store.nnz(pid) == len(edges.get(pid, ()))
        if pid not in edges:
            assert block is None
            continue
        rows, cols = zip(*edges[pid])
        eager = sp.csr_matrix(
            (np.ones(len(rows), dtype=bool), (rows, cols)),
            shape=(num_nodes, num_nodes),
        )
        assert block.nnz == eager.nnz and (block != eager).nnz == 0
        assert block.has_canonical_format
        assert block.indices.dtype == eager.indices.dtype
        assert store.matrix(pid) is block  # memoised
        twin = store.matrix(inverse[pid])
        assert (twin != block.T).nnz == 0
    assert store.measure().detail["decoded"] == len(edges)
    assert ring.measure().nbytes == before


def test_decoding_every_predicate_leaves_the_ring_untouched(kg_graph):
    pytest.importorskip("scipy")
    from repro.matrix.matrices import PredicateMatrices

    for index in (RingIndex.from_graph(kg_graph),
                  _attached(RingIndex.from_graph(kg_graph))):
        before = index.ring.measure().nbytes
        store = PredicateMatrices.from_index(index).decode_all()
        assert store.measure().detail["decoded"] == len(store.predicates)
        list(index.ring.iter_triples())
        assert index.ring.measure().nbytes == before


def test_concurrent_first_touch_yields_one_block(kg_graph):
    """Threads racing to decode the same predicates all get the block
    the store kept (and it is the right one): a first touch that
    overwrote a block another thread already holds would break it."""
    pytest.importorskip("scipy")
    import sys
    import threading

    from repro.matrix.matrices import PredicateMatrices

    index = RingIndex.from_graph(kg_graph)
    want = PredicateMatrices(index.ring)
    store = PredicateMatrices(index.ring)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    seen: list[dict] = []

    def touch():
        barrier.wait(timeout=30)
        seen.append({pid: store.matrix(pid) for pid in want.predicates})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=touch) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == n_threads
    for pid in want.predicates:
        kept = store.matrix(pid)
        assert all(blocks[pid] is kept for blocks in seen), pid
        assert (kept != want.matrix(pid)).nnz == 0


# ----------------------------------------------------------------------
# Engine-level differential: identical pairs, identical counters
# ----------------------------------------------------------------------


def _counter_diffs(rs, rb) -> dict:
    """``{counter: (scalar, batched)}`` where two results disagree."""
    return {
        name: (getattr(rs.stats, name), getattr(rb.stats, name))
        for name in EXACT_COUNTERS
        if getattr(rs.stats, name) != getattr(rb.stats, name)
    }


def _assert_engines_agree(index, queries, limit=None):
    scalar = RingRPQEngine(index, batch=False)
    batched = RingRPQEngine(index, batch=True)
    for query in queries:
        rs = scalar.evaluate(query, timeout=60.0, limit=limit)
        rb = batched.evaluate(query, timeout=60.0, limit=limit)
        assert not rs.stats.timed_out and not rb.stats.timed_out
        assert rb.pairs == rs.pairs, query
        assert not _counter_diffs(rs, rb), (query, _counter_diffs(rs, rb))


def test_engine_differential_default_thresholds(kg_index):
    _assert_engines_agree(kg_index, QUERIES + WIDE_QUERIES)
    for query, limit in EARLY_EXITS:
        _assert_engines_agree(kg_index, [query], limit=limit)


def _refuse(name):
    def called(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return called


def test_wide_automaton_never_enters_a_merged_wave(kg_index, monkeypatch):
    """More than 63 states: the default engine answers on the
    entry-by-entry path at any wave width (33 anchors share phase 2's
    waves here), and agrees with the product-graph oracle.  What this
    guards is ``np.fromiter(masks, np.int64)`` in ``_lp_wave``
    overflowing on a 72-bit state set."""
    for name in ("_lp_wave", "_ls_wave"):
        monkeypatch.setattr(batchrun.BatchedBackwardRun, name, _refuse(name))
    result = kg_index.evaluate(WIDE_QUERIES[0])
    assert result.stats.nfa_states == 72 and result.stats.subqueries > 8
    assert result.pairs and kg_index.evaluate(WIDE_QUERIES[1]).pairs

    graph = random_graph(12, 40, 3, seed=1)
    index = RingIndex.from_graph(graph)
    for query in (WIDE_QUERIES[0], f"(?x, {WIDE_EXPR}, n5)"):
        want = brute_force_rpq(graph, query)
        assert want and index.evaluate(query).pairs == want


def test_reference_engine_never_merges(kg_index, monkeypatch):
    """``batch=False`` is the reference because it cannot reach the
    merged kernels, even where ``batch=True`` takes them."""
    for name in ("_lp_wave", "_ls_wave"):
        monkeypatch.setattr(batchrun.BatchedBackwardRun, name, _refuse(name))
    reference = RingRPQEngine(kg_index, batch=False)
    for query in QUERIES:
        reference.evaluate(query, timeout=60.0)
    assert reference.evaluate(QUERIES[2]).pairs
    with pytest.raises(AssertionError, match="_lp_wave was called"):
        RingRPQEngine(kg_index, batch=True).evaluate(QUERIES[2])


def test_engine_differential_santiago(santiago_index):
    """The paper's Fig. 1 graph: small frontiers, scalar fallbacks."""
    queries = [
        "(?x, (l1|l2)+, ?y)",
        "(?x, bus/l1*, ?y)",
        "(?x, ^l1/l2, ?y)",
    ]
    _assert_engines_agree(santiago_index, queries)


def test_engine_differential_no_prune(kg_index):
    """Pruning off exercises the unpruned wave bookkeeping."""
    scalar = RingRPQEngine(kg_index, batch=False, prune=False)
    batched = RingRPQEngine(kg_index, batch=True, prune=False)
    for query in QUERIES[:4]:
        rs = scalar.evaluate(query, timeout=60.0)
        rb = batched.evaluate(query, timeout=60.0)
        assert rb.pairs == rs.pairs
        for name in EXACT_COUNTERS:
            assert getattr(rs.stats, name) == getattr(rb.stats, name), (
                query, name
            )


# ----------------------------------------------------------------------
# The array kernel of multi-anchor runs
# ----------------------------------------------------------------------

#: Phase-2 chunk widths: one anchor, a few, a width that leaves a short
#: last chunk, and the production width.
CHUNK_WIDTHS = (1, 2, 3, 33, 1024)

#: Nodes removed from every path (the §6 extension); a forbidden node
#: enters each anchor's ``D`` table at the full state set.
FORBIDDEN = ["n1", "n4", "n9", "n16", "n25"]


@pytest.mark.parametrize("width", CHUNK_WIDTHS)
def test_array_kernel_differential(kg_index, monkeypatch, width):
    """Every multi-anchor run takes the array kernel, at every chunk
    width: pairs and every counter equal the one-anchor-at-a-time
    reference, pruned or not, with and without forbidden nodes."""
    calls = []
    ls_wave = batchrun.BatchedBackwardRun._ls_wave

    def counted(self, *args):
        calls.append(len(args[0]))
        return ls_wave(self, *args)

    monkeypatch.setattr(batchrun.BatchedBackwardRun, "_ls_wave", counted)
    monkeypatch.setattr(engine_module, "_ANCHOR_BATCH", width)
    for prune in (True, False):
        scalar = RingRPQEngine(kg_index, batch=False, prune=prune)
        batched = RingRPQEngine(kg_index, batch=True, prune=prune)
        for forbidden in (None, FORBIDDEN):
            for query in QUERIES:
                rs = scalar.evaluate(query, timeout=60.0,
                                     forbidden_nodes=forbidden)
                rb = batched.evaluate(query, timeout=60.0,
                                      forbidden_nodes=forbidden)
                where = (query, prune, forbidden)
                assert not rs.stats.timed_out and not rb.stats.timed_out
                assert rb.pairs == rs.pairs, where
                assert not _counter_diffs(rs, rb), (
                    where, _counter_diffs(rs, rb))
    assert calls and max(calls) > 1


#: A both-variable query with a nullable closure: its phase 1 starts
#: on the array kernel with a base mark that holds a final state.
NULLABLE_QUERY = "(?x, p0*, ?y)"


@pytest.mark.parametrize("switch_at", (1, 2))
def test_switched_single_anchor_differential(kg_index, monkeypatch, switch_at):
    """Single-anchor runs forced onto the array kernel from their first
    wave, or their first wave of two: pairs and every counter equal the
    entry-by-entry reference, pruned or not, with and without forbidden
    nodes; runs that stop early keep their pairs, flag and target."""
    switched = []
    to_arrays = batchrun.BatchedBackwardRun._to_arrays

    def counted(self, wave):
        switched.append(len(wave))
        return to_arrays(self, wave)

    monkeypatch.setattr(batchrun.BatchedBackwardRun, "_to_arrays", counted)
    monkeypatch.setattr(batchrun, "_ARRAY_WAVE_MIN", switch_at)
    for prune in (True, False):
        scalar = RingRPQEngine(kg_index, batch=False, prune=prune)
        batched = RingRPQEngine(kg_index, batch=True, prune=prune)
        for forbidden in (None, FORBIDDEN):
            for query in QUERIES + [NULLABLE_QUERY]:
                rs = scalar.evaluate(query, timeout=60.0,
                                     forbidden_nodes=forbidden)
                rb = batched.evaluate(query, timeout=60.0,
                                      forbidden_nodes=forbidden)
                where = (query, prune, forbidden)
                assert not rs.stats.timed_out and not rb.stats.timed_out
                assert rb.pairs == rs.pairs, where
                assert not _counter_diffs(rs, rb), (
                    where, _counter_diffs(rs, rb))
    assert switched and min(switched) >= switch_at
    scalar = RingRPQEngine(kg_index, batch=False)
    batched = RingRPQEngine(kg_index, batch=True)
    for query, limit in EARLY_EXITS:
        switched.clear()
        rs = scalar.evaluate(query, timeout=60.0, limit=limit)
        rb = batched.evaluate(query, timeout=60.0, limit=limit)
        assert switched, query
        assert rb.pairs == rs.pairs and rs.pairs, query
        assert rb.stats.truncated == rs.stats.truncated, query


def test_phase1_that_reaches_no_node():
    """A full-range start whose steps all lead nowhere (``zz`` labels no
    edge) leaves the array ``D`` table empty: no pairs, no visits."""
    index = RingIndex.from_graph(Graph([
        ("a", "p0", "b"), ("b", "p1", "c"), ("c", "p2", "a"),
    ]))
    for batch in (False, True):
        result = RingRPQEngine(index, batch=batch).evaluate("(?x, zz/p0*, ?y)")
        assert not result.pairs and result.stats.visited_nodes == 0, batch


def test_array_kernel_earlier_tasks_of_one_anchor():
    """One anchor, one wave, two tasks on the same node.

    From ``n3``, ``p0/p2|p1/p2`` reaches ``n2`` twice in its first
    wave, with disjoint states, so ``n2`` enters the second wave twice
    and both copies step through ``p2`` onto the same ``L_s`` range.
    The first covers the node above the sources ``n0``, ``n1`` (ids 0
    and 1: siblings) and marks it; the second must be pruned there.
    ``(p0|p1)/p2`` reaches ``n2`` twice with the same states, and the
    second visit must be pruned at the leaf.  Both need the exclusive
    prefix-OR over the anchor's earlier tasks: a plain lookup of the
    stored marks misses a mark written in the same wave.
    """
    index = RingIndex.from_graph(Graph([
        ("n3", "p0", "n2"), ("n3", "p1", "n2"),
        ("n2", "p2", "n0"), ("n2", "p2", "n1"),
    ]))
    assert [index.dictionary.node_id(f"n{i}") for i in range(4)] \
        == [0, 1, 2, 3]
    for query in ("(?x, p0/p2|p1/p2, ?y)", "(?x, (p0|p1)/p2, ?y)"):
        for prune in (True, False):
            for planner in (True, False):
                rs, rb = (
                    RingRPQEngine(index, batch=batch, prune=prune,
                                  use_planner=planner).evaluate(query)
                    for batch in (False, True)
                )
                where = (query, prune, planner)
                assert rb.pairs == rs.pairs and rs.pairs, where
                assert not _counter_diffs(rs, rb), (
                    where, _counter_diffs(rs, rb))


#: A ``p/q*`` both-variable query whose phase 2 runs several waves on
#: the array kernel.
PHASE2_QUERY = "(?x, p2/p0*, ?y)"

#: A single-anchor query that runs several waves after a forced switch.
SWITCHED_QUERY = "(?x, (p0|p1|p2|p3)+, n21)"


def _stop_after_a_merged_descent(monkeypatch, stop):
    """Call ``stop(run)`` after the first merged L_s descent, and let
    every tick consult the budget."""
    monkeypatch.setattr(engine_module, "_TICK_EVERY", 1)
    ls_wave = batchrun.BatchedBackwardRun._ls_wave

    def wrapped(self, *args):
        next_wave = ls_wave(self, *args)
        stop(self)
        return next_wave

    monkeypatch.setattr(batchrun.BatchedBackwardRun, "_ls_wave", wrapped)


def _assert_timeout_leaves_the_buckets_balanced(index, monkeypatch, query):
    from tests.test_obs import _assert_bucket_invariants

    full = RingRPQEngine(index).evaluate(query)

    def expire(run):
        run.budget.deadline = run.budget.start

    _stop_after_a_merged_descent(monkeypatch, expire)
    result = RingRPQEngine(index).evaluate(query, timeout=60.0)
    assert result.stats.timed_out and result.stats.ls_descents
    assert result.pairs < full.pairs
    _assert_bucket_invariants(result.stats, query)


def _assert_cancel_returns_a_flagged_subset(index, monkeypatch, query):
    import threading

    full = RingRPQEngine(index).evaluate(query)
    token = threading.Event()
    _stop_after_a_merged_descent(monkeypatch, lambda run: token.set())
    result = RingRPQEngine(index).evaluate(query, cancel=token)
    assert result.stats.cancelled
    assert result.pairs < full.pairs


def test_phase2_timeout_leaves_the_buckets_balanced(kg_index, monkeypatch):
    _assert_timeout_leaves_the_buckets_balanced(
        kg_index, monkeypatch, PHASE2_QUERY)


def test_phase2_cancel_returns_a_flagged_subset(kg_index, monkeypatch):
    _assert_cancel_returns_a_flagged_subset(
        kg_index, monkeypatch, PHASE2_QUERY)


def test_switched_run_timeout_leaves_the_buckets_balanced(
    kg_index, monkeypatch
):
    monkeypatch.setattr(batchrun, "_ARRAY_WAVE_MIN", 1)
    _assert_timeout_leaves_the_buckets_balanced(
        kg_index, monkeypatch, SWITCHED_QUERY)


def test_switched_run_cancel_returns_a_flagged_subset(kg_index, monkeypatch):
    monkeypatch.setattr(batchrun, "_ARRAY_WAVE_MIN", 1)
    _assert_cancel_returns_a_flagged_subset(
        kg_index, monkeypatch, SWITCHED_QUERY)


def test_phase2_limit_cuts_inside_a_descent(kg_index):
    """A cap is cut at the leaf that fills it, in the middle of a
    merged descent: exactly ``limit`` pairs, flagged."""
    engine = RingRPQEngine(kg_index)
    full = engine.evaluate(PHASE2_QUERY).pairs
    n = len(full)
    assert n > 20
    for limit in (1, 2, 7, n // 3, n // 2, n - 1):
        result = engine.evaluate(PHASE2_QUERY, limit=limit)
        assert result.stats.truncated, limit
        assert len(result.pairs) == limit and result.pairs <= full, limit


# ----------------------------------------------------------------------
# §5 fast paths: the array pipelines against the scalar reference
# ----------------------------------------------------------------------

#: The §5 fast-path shapes over predicates ``a`` and ``b``, in their
#: six spellings: one predicate forward and inverse, a union, and the
#: three length-2 paths.
FAST_SHAPES = ("{a}", "^{a}", "{a}|{b}", "{a}/{b}", "^{a}/{b}", "{a}/^{b}")


def _assert_fast_paths_agree(index, query, limits):
    """``batch=True`` ≡ ``batch=False`` on pairs, flag and counters at
    every cap in ``limits`` (``"n-1"``/``"n"``/``"n+1"`` are taken
    around the answer count)."""
    scalar = RingRPQEngine(index, batch=False)
    batched = RingRPQEngine(index, batch=True)
    n = len(scalar.evaluate(query).pairs)
    around = {"n-1": n - 1, "n": n, "n+1": n + 1}
    for limit in limits:
        limit = around.get(limit, limit)
        rs = scalar.evaluate(query, limit=limit)
        rb = batched.evaluate(query, limit=limit)
        where = (query, limit, n)
        assert rb.pairs == rs.pairs, where
        assert rb.stats.truncated == rs.stats.truncated, where
        assert not _counter_diffs(rs, rb), (where, _counter_diffs(rs, rb))


@pytest.mark.parametrize("shape", FAST_SHAPES)
@pytest.mark.parametrize("a, b", [
    ("p6", "p1"), ("p1", "p0"), ("p0", "p0"), ("p2", "p3"), ("p7", "p6"),
    ("p11", "p0"),
])
def test_fast_path_limit_sweep(kg_index, shape, a, b):
    _assert_fast_paths_agree(
        kg_index, f"(?x, {shape.format(a=a, b=b)}, ?y)",
        (None, 1, 2, 7, 100, 1000, "n-1", "n", "n+1"),
    )


#: A graph with every corner the pipelines must survive at once: five
#: nodes (σ not a power of two), ``p0`` with a hub (node 0, in- and
#: out-degree 3: its ``p0/p0`` cross product alone is 9 pairs) and its
#: inverse twin ``p1``, ``p2`` with self-loops only and its own
#: inverse, ``p3``/``p4`` with no edges at all.
_CORNERS = (
    5, [1, 0, 2, 4, 3],
    sorted({t for s, o in [(1, 0), (2, 0), (3, 0), (0, 2), (0, 3), (0, 4)]
            for t in ((s, 0, o), (o, 1, s))}
           | {(1, 2, 1), (4, 2, 4)}),
)


@pytest.mark.parametrize("compressed", [False, True])
def test_fast_path_corner_graph(compressed):
    index = _index_of(_CORNERS, compressed)
    for a in ("p0", "p2", "p3"):
        for b in ("p0", "p1", "p2", "p4"):
            for shape in FAST_SHAPES:
                _assert_fast_paths_agree(
                    index, f"(?x, {shape.format(a=a, b=b)}, ?y)",
                    (None, 1, 2, 3, 8, "n-1", "n", "n+1"),
                )


@pytest.mark.hypothesis
@settings(max_examples=60, deadline=None)
@given(graph=completed_graphs(), compressed=st.booleans(),
       attach=st.booleans(), data=st.data())
def test_fast_paths_match_scalar_reference(graph, compressed, attach, data):
    index = _index_of(graph, compressed)
    if attach:
        index = _attached(index)
    predicate = st.sampled_from(index.dictionary.predicate_labels)
    query = "(?x, {}, ?y)".format(data.draw(st.sampled_from(FAST_SHAPES))
                                  .format(a=data.draw(predicate),
                                          b=data.draw(predicate)))
    _assert_fast_paths_agree(
        index, query, (None, 1, 2, 3, 7, "n-1", "n", "n+1")
    )


def _count_descended_ranges(monkeypatch) -> list:
    """Count the ranges handed to ``WaveletMatrix.descend_batch``; the
    running total is the returned list's one element."""
    counted = [0]
    descend_batch = WaveletMatrix.descend_batch

    def counting(self, ranges, *args, **kwargs):
        counted[0] += np.size(ranges) // 2
        return descend_batch(self, ranges, *args, **kwargs)

    monkeypatch.setattr(WaveletMatrix, "descend_batch", counting)
    return counted


def test_capped_fast_path_does_bounded_work(kg_index, monkeypatch):
    """A capped listing descends a few ranges past its cap, not one per
    subject of the predicate: the object descents run in chunks cut
    where the step-range widths say the cap can be reached."""
    ring = kg_index.ring
    pid = max(range(ring.num_predicates), key=ring.predicate_count)
    label = kg_index.dictionary.predicate_label(pid)
    n_subjects = ring.count_distinct_subjects_of(pid)
    limit = 5
    assert n_subjects > 10 * limit
    for query, cap in [(f"(?x, {label}, ?y)", limit),
                       (f"(?x, {label}/^{label}, ?y)", limit)]:
        counted = _count_descended_ranges(monkeypatch)
        result = kg_index.engine.evaluate(query, limit=cap)
        assert result.stats.truncated and len(result.pairs) == cap
        # ranges handed to descend_batch: the one listing of subjects,
        # then the chunks (two descents per mid-point for a path).
        assert 0 < counted[0] <= 3 * limit, query


@pytest.mark.parametrize("shape", FAST_SHAPES)
def test_fast_paths_honour_the_budget_contract(kg_index, shape):
    """Zero timeout / pre-tripped cancel: complete, or a flagged subset."""
    from tests.harness import check_budget_tagging

    query = f"(?x, {shape.format(a='p6', b='p7')}, ?y)"
    oracle = RingRPQEngine(kg_index, batch=False).evaluate(query).pairs
    assert oracle
    check_budget_tagging({"ring": RingRPQEngine(kg_index)}, query, oracle)


class _TripsOnConsult:
    """A cancel token that reads unset until its ``n``-th consultation."""

    def __init__(self, n: int):
        self.left = n

    def is_set(self) -> bool:
        self.left -= 1
        return self.left <= 0


@pytest.mark.parametrize("shape", FAST_SHAPES)
def test_fast_paths_stop_between_runs(kg_index, shape, monkeypatch):
    """The budget is consulted between the runs of a listing, not once
    up front: a token tripped after the listing started stops it there,
    with a flagged, non-empty, strict subset of the answer."""
    from repro.ring import ring as ring_module

    query = f"(?x, {shape.format(a='p6', b='p7')}, ?y)"
    engine = RingRPQEngine(kg_index)
    full = engine.evaluate(query)
    monkeypatch.setattr(ring_module, "LISTING_RUN_PAIRS", 8)
    assert engine.evaluate(query).pairs == full.pairs
    result = engine.evaluate(query, cancel=_TripsOnConsult(3))
    assert result.stats.cancelled
    assert result.pairs and result.pairs < full.pairs
    # Two runs got through, each of at most 7 subjects or mid-points
    # (every one of them can add a pair), a mid-point taking two steps.
    assert result.stats.backward_steps <= 2 * 7 * 2
    assert full.stats.backward_steps > 10 * result.stats.backward_steps


def test_fast_path_times_out_inside_a_large_listing():
    """A deadline shorter than the listing interrupts it: a 20 ms
    timeout on a predicate of 10⁵ edges, whose ``p/p`` has ≈ 10⁶ pairs,
    comes back flagged with a partial answer, and ``p/p`` long before
    its full listing would have."""
    import random
    import time

    from repro.graph.model import Graph

    rng = random.Random(3)
    index = RingIndex.from_graph(Graph(sorted({
        (f"n{rng.randrange(10_000)}", "p0", f"n{rng.randrange(10_000)}")
        for _ in range(100_000)
    })))
    for query in ("(?x, p0, ?y)", "(?x, p0/p0, ?y)"):
        started = time.perf_counter()
        full = index.evaluate(query)
        full_s = time.perf_counter() - started
        assert not full.stats.timed_out
        started = time.perf_counter()
        partial = index.evaluate(query, timeout=0.02)
        partial_s = time.perf_counter() - started
        assert partial.stats.timed_out, query
        assert partial.pairs and partial.pairs < full.pairs, query
        if "/" in query:  # the one that runs for most of a second
            assert partial_s < full_s / 2, (query, partial_s, full_s)


def test_listing_runs_partition_and_stay_under_their_room():
    from repro.ring.ring import LISTING_RUN_PAIRS, listing_runs

    rng = np.random.default_rng(5)
    bounds = rng.integers(0, 40_000, size=500)
    bounds[17] = 10 * LISTING_RUN_PAIRS
    for limit in (None, 1, 1000, 10 ** 9):
        room = LISTING_RUN_PAIRS if limit is None else min(
            limit, LISTING_RUN_PAIRS)
        runs = list(listing_runs(bounds, limit))
        assert [lo for lo, _ in runs] == [0] + [hi for _, hi in runs[:-1]]
        assert runs[-1][1] == len(bounds)
        for lo, hi in runs:
            assert hi - lo == 1 or bounds[lo:hi].sum() < room
            # greedy: the next item would not have fitted
            assert hi == len(bounds) or bounds[lo:hi + 1].sum() >= room
    assert list(listing_runs(np.zeros(0, dtype=np.int64))) == []
    # what is already taken shrinks the room of the next run
    taken = []
    runs = listing_runs(np.full(10, 3), 10, taken)
    assert next(runs) == (0, 3)
    taken.extend(range(9))
    assert next(runs) == (3, 4)


def test_match_pattern_streams_a_predicate_listing(kg_index, monkeypatch):
    """``(?s, p, ?o)`` lists one bounded run at a time: a consumer that
    stops after the first triple has paid for one run of subjects, not
    for the predicate."""
    from repro.ring import ring as ring_module

    ring = kg_index.ring
    pid = max(range(ring.num_predicates), key=ring.predicate_count)
    label = kg_index.dictionary.predicate_label(pid)
    everything = list(kg_index.match_pattern(None, label, None))
    monkeypatch.setattr(ring_module, "LISTING_RUN_PAIRS", 8)
    assert list(kg_index.match_pattern(None, label, None)) == everything
    assert ring.count_distinct_subjects_of(pid) > 50
    counted = _count_descended_ranges(monkeypatch)
    assert next(kg_index.match_pattern(None, label, None)) == everything[0]
    # the subject listing, then at most one run of fewer than 8 pairs
    assert 0 < counted[0] <= 1 + 8


def test_fast_paths_leave_the_ring_untouched(kg_graph):
    """Warm = cold.  Every kernel reads the arrays the bit-vectors
    already hold, so a whole session — the §5 pipelines, the general
    runner with and without a cap, a pattern match, the cache-key
    fingerprint, a snapshot — leaves the audited ring as it found it,
    built or attached."""
    for index in (RingIndex.from_graph(kg_graph),
                  _attached(RingIndex.from_graph(kg_graph))):
        before = index.ring.measure().nbytes
        for shape in FAST_SHAPES:
            query = f"(?x, {shape.format(a='p6', b='p7')}, ?y)"
            assert index.evaluate(query).pairs
            assert index.evaluate(query, limit=3).stats.truncated
        for query in QUERIES:
            index.evaluate(query)
            index.evaluate(query, limit=2)
        assert list(index.match_pattern(None, "p0", None))
        index_fingerprint(index)
        SharedIndexHandle.create(index).close()
        assert index.ring.measure().nbytes == before


def test_fingerprint_is_the_crc_of_the_packed_export(kg_graph):
    """Cache keys outlive a code version: the fingerprint stays the
    CRC-32 it was first defined as — over the packed export of every
    ``L_p`` level (its words, sentinel included), the level length, and
    the structural counts — and is the same built or attached."""
    import zlib

    index = RingIndex.from_graph(kg_graph)
    ring, dictionary = index.ring, index.dictionary
    crc = 0
    for words_ext, _, n_bits in ring.L_p.batch_data()[0]:
        crc = zlib.crc32(words_ext.tobytes(), crc)
        crc = zlib.crc32(n_bits.to_bytes(8, "little"), crc)
    for n in (len(ring), dictionary.num_nodes, dictionary.num_predicates):
        crc = zlib.crc32(n.to_bytes(8, "little"), crc)
    assert index_fingerprint(index) == f"{len(ring)}-{crc:08x}"
    assert index_fingerprint(_attached(index)) == index_fingerprint(index)


# ----------------------------------------------------------------------
# Prepared-expression caching
# ----------------------------------------------------------------------


def test_prepare_memo_within_one_evaluate(kg_index):
    """A v-to-v evaluation needs E, ^E, and E again — the per-call
    memo must collapse the repeats even with the LRU disabled."""
    engine = RingRPQEngine(kg_index, prepare_cache_size=0)
    result = engine.evaluate("(?x, p0/p1*, ?y)", timeout=60.0)
    stats = result.stats
    assert stats.prepares == 3
    # expr, expr again (phase 1 shares the memo entry), reverse(expr):
    # only the reverse is a genuinely new compilation.
    assert stats.prepare_cache_hits == 1


def test_prepare_lru_hits_across_evaluates(kg_index):
    engine = RingRPQEngine(kg_index, prepare_cache_size=8)
    first = engine.evaluate("(?x, p0/p1*, ?y)", timeout=60.0)
    assert first.stats.prepare_cache_hits < first.stats.prepares
    second = engine.evaluate("(?x, p0/p1*, ?y)", timeout=60.0)
    # Every compilation now comes from the LRU: equal expression trees
    # (and their reverses) hash to the cached entries.
    assert second.stats.prepare_cache_hits == second.stats.prepares
    assert second.pairs == first.pairs


def test_prepare_lru_is_bounded(kg_index):
    engine = RingRPQEngine(kg_index, prepare_cache_size=4)
    for pid in range(10):
        engine.evaluate(f"(?x, p{pid % 12}, n1)", timeout=60.0)
    assert len(engine._prepare_cache) <= 4


def test_prepare_lru_disabled_keeps_no_state(kg_index):
    engine = RingRPQEngine(kg_index, prepare_cache_size=0)
    engine.evaluate("(?x, p0, n1)", timeout=60.0)
    engine.evaluate("(?x, p0, n1)", timeout=60.0)
    assert len(engine._prepare_cache) == 0


def test_prepare_cache_keyed_on_expression(kg_index):
    """Different expressions must not collide; equal ones must."""
    engine = RingRPQEngine(kg_index, prepare_cache_size=8)
    engine.evaluate("(?x, p0, n1)", timeout=60.0)
    r_other = engine.evaluate("(?x, p1, n1)", timeout=60.0)
    assert r_other.stats.prepare_cache_hits == 0
    r_again = engine.evaluate("(?x, p0, n1)", timeout=60.0)
    assert r_again.stats.prepare_cache_hits == r_again.stats.prepares
