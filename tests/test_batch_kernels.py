"""Batch kernels agree with their scalar counterparts, exactly.

Four layers of evidence:

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
  exactly like k scalar steps.

The differential runs twice: once with production thresholds and once
with every batched code path forced on (merged L_p waves from one
entry, merged L_s rounds from width two), so narrow frontiers cannot
hide the merged paths from the test.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.bits import rank1_many_words
from repro.core import batchrun
from repro.core.engine import RingRPQEngine
from repro.ring.builder import RingIndex
from repro.ring.dictionary import Dictionary
from repro.ring.ring import Ring
from repro.ring.snapshot import _write_payload, attach_index, snapshot_index
from repro.succinct.bitvector import BitVector
from repro.succinct.wavelet_matrix import WaveletMatrix

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


def _assert_engines_agree(index, queries):
    scalar = RingRPQEngine(index, batch=False)
    batched = RingRPQEngine(index, batch=True)
    for query in queries:
        rs = scalar.evaluate(query, timeout=60.0)
        rb = batched.evaluate(query, timeout=60.0)
        assert not rs.stats.timed_out and not rb.stats.timed_out
        assert rb.pairs == rs.pairs, query
        diffs = {
            name: (getattr(rs.stats, name), getattr(rb.stats, name))
            for name in EXACT_COUNTERS
            if getattr(rs.stats, name) != getattr(rb.stats, name)
        }
        assert not diffs, (query, diffs)


def test_engine_differential_default_thresholds(kg_index):
    _assert_engines_agree(kg_index, QUERIES)


def test_engine_differential_forced_batch_paths(kg_index, monkeypatch):
    """Same differential with every merged code path forced on."""
    monkeypatch.setattr(batchrun, "_LP_WAVE_MIN", 1)
    monkeypatch.setattr(batchrun, "_LS_ROUND_MIN", 2)
    monkeypatch.setattr(batchrun, "_VEC_MIN", 1)
    _assert_engines_agree(kg_index, QUERIES)


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


def test_dfs_traversal_keeps_scalar_runner(kg_index):
    """DFS order is outside the batched runner's contract; the engine
    must transparently keep the scalar runner and stay correct."""
    dfs = RingRPQEngine(kg_index, traversal="dfs", batch=True)
    bfs = RingRPQEngine(kg_index, traversal="bfs", batch=True)
    for query in QUERIES[:4]:
        assert (
            dfs.evaluate(query, timeout=60.0).pairs
            == bfs.evaluate(query, timeout=60.0).pairs
        )


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
