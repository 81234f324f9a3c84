"""Micro-operation costs: the substrate-distortion calibration.

EXPERIMENTS.md explains why the paper's wall-clock ratios cannot
transfer to pure Python: the ring's elementary operation (a bitvector
rank inside a wavelet-matrix descent) costs interpreter time, while
the baselines' elementary operation (a dict/index probe) runs at
C speed.  These benchmarks measure both, so the distortion factor is a
number, not an assertion.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.baselines.base import EncodedGraph
from repro.succinct.bitvector import BitVector
from repro.succinct.wavelet_matrix import WaveletMatrix


@pytest.fixture(scope="module")
def bitvector():
    rng = np.random.default_rng(0)
    return BitVector((rng.random(200_000) < 0.5).astype(np.uint8))


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(1)
    return WaveletMatrix(rng.integers(0, 1024, size=100_000), 1024)


def test_bitvector_rank(benchmark, bitvector):
    benchmark.group = "micro-ops"
    positions = list(range(0, 200_000, 97))

    def ranks():
        total = 0
        for i in positions:
            total += bitvector.rank1(i)
        return total

    assert benchmark(ranks) > 0


def test_wavelet_rank(benchmark, matrix):
    benchmark.group = "micro-ops"

    def ranks():
        total = 0
        for c in range(0, 1024, 37):
            total += matrix.rank(c, 50_000)
        return total

    assert benchmark(ranks) >= 0


def test_wavelet_range_distinct(benchmark, matrix):
    benchmark.group = "micro-ops"

    def distinct():
        return sum(1 for _ in matrix.range_distinct(1_000, 1_400))

    assert benchmark(distinct) > 0


def test_ring_backward_step(benchmark, bench_index):
    benchmark.group = "micro-ops"
    ring = bench_index.ring

    def steps():
        total = 0
        for o in range(0, ring.num_nodes, 41):
            b, e = ring.object_range(o)
            if b == e:
                continue
            for p in range(0, ring.num_predicates, 11):
                bs, es = ring.backward_step(b, e, p)
                total += es - bs
        return total

    assert benchmark(steps) >= 0


def test_dict_adjacency_probe(benchmark, bench_index):
    """The baselines' elementary op, for the distortion ratio."""
    benchmark.group = "micro-ops"
    encoded = EncodedGraph.from_index(bench_index)

    def probes():
        total = 0
        for node in range(0, encoded.num_nodes, 7):
            for pid in range(0, encoded.num_predicates, 13):
                total += len(encoded.targets(node, pid))
        return total

    assert benchmark(probes) >= 0


# ----------------------------------------------------------------------
# Batch kernels: the same elementary ops, a frontier at a time
# ----------------------------------------------------------------------


def _best_of(fn, repeats: int = 50) -> float:
    """Min wall-clock of ``repeats`` calls (noise-robust microtiming)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bitvector_rank_batched(benchmark, bitvector):
    """One ``rank1_many`` call over the same positions the scalar
    benchmark walks; asserts batch/scalar agreement first."""
    benchmark.group = "micro-ops"
    positions = np.arange(0, 200_000, 97, dtype=np.int64)
    scalar = [bitvector.rank1(int(i)) for i in positions]
    assert bitvector.rank1_many(positions).tolist() == scalar

    def ranks():
        return int(bitvector.rank1_many(positions).sum())

    assert benchmark(ranks) > 0


def test_batched_rank_speedup(bitvector):
    """The batched rank kernel must beat the scalar loop by >= 3x once
    the batch amortises the numpy dispatch overhead.

    The crossover sits between batch 64 (the kernel roughly ties the
    scalar loop) and batch 256; the gate asserts the >= 3x bar from
    256 up and agreement at every size.
    """
    rng = np.random.default_rng(7)
    speedups = {}
    for batch in (64, 256, 2048):
        positions = rng.integers(0, 200_000, size=batch).astype(np.int64)
        pos_list = [int(p) for p in positions]
        expected = [bitvector.rank1(p) for p in pos_list]
        assert bitvector.rank1_many(positions).tolist() == expected
        scalar_t = _best_of(lambda: [bitvector.rank1(p) for p in pos_list])
        batched_t = _best_of(lambda: bitvector.rank1_many(positions))
        speedups[batch] = scalar_t / batched_t
    assert speedups[256] >= 3.0, speedups
    assert speedups[2048] >= 3.0, speedups


def test_fast_paths_beat_the_general_path(bench_index):
    """§5's claim, gated: over the A3 pattern set the fast paths must
    take at most half the general path's time, for the same pairs.

    The paper answers short patterns with pure backward search because
    that is cheaper than the product-graph traversal.  Batching only
    the general runner once inverted that (off ÷ on = 0.57–0.74 over
    three runs of this measurement at that commit, against 5.8–6.7
    with both on the batch kernels) and no test noticed.
    """
    from bench_ablations import SHORT_QUERIES, _run
    from repro.core.engine import RingRPQEngine

    fast = RingRPQEngine(bench_index, fast_paths=True)
    general = RingRPQEngine(bench_index, fast_paths=False)
    assert _run(fast, SHORT_QUERIES) == _run(general, SHORT_QUERIES)
    on = _best_of(lambda: _run(fast, SHORT_QUERIES), repeats=5)
    off = _best_of(lambda: _run(general, SHORT_QUERIES), repeats=5)
    print(f"\nfast paths off / on: {off / on:.2f}x "
          f"(on {on * 1e3:.1f} ms, off {off * 1e3:.1f} ms)")
    assert on <= off / 2, f"fast paths {on:.4f}s vs general {off:.4f}s"


#: Both-variable closures that reach phase 2 with many anchors: the
#: ``p/q*``, ``p+`` and ``p*`` shapes of Table 1.
PHASE2_QUERIES = [
    "(?x, p9/p0*, ?y)",
    "(?x, p1/p0*, ?y)",
    "(?x, p3/p2*, ?y)",
    "(?x, p0+, ?y)",
    "(?x, p2+, ?y)",
    "(?x, p1*, ?y)",
    "(?x, p4*, ?y)",
]


def test_phase2_arrays_beat_the_reference(bench_index):
    """Phase 2 on array-held marks, gated: over both-variable closures
    ``batch=True`` must take at most a third of the ``batch=False``
    reference's time, for the same pairs and the same counters.

    With the marks in per-anchor dicts, walked one round-robin round
    at a time, the batched runner was only 1.20-1.26x the reference on
    this set (min of 5, two runs); with one array descent per wave it
    is 5.7-6.5x.
    """
    from repro.core.engine import RingRPQEngine

    batched = RingRPQEngine(bench_index, batch=True)
    reference = RingRPQEngine(bench_index, batch=False)

    def run(engine):
        return [
            (result.pairs, result.stats.operation_counts())
            for result in (engine.evaluate(query, timeout=10.0)
                           for query in PHASE2_QUERIES)
        ]

    assert run(batched) == run(reference)
    on = _best_of(lambda: run(batched), repeats=5)
    off = _best_of(lambda: run(reference), repeats=5)
    print(f"\nphase 2 reference / batched: {off / on:.2f}x "
          f"(batched {on * 1e3:.1f} ms, reference {off * 1e3:.1f} ms)")
    assert on <= off / 3, f"batched {on:.4f}s vs reference {off:.4f}s"


#: Constant-object closures whose backward BFS waves grow wide.
WIDE_ANCHORED_QUERIES = [
    f"(?x, p1/p0*, n{node})" for node in (0, 3, 6, 9)
]


def test_wide_anchored_runs_beat_the_scalar_walk():
    """Single-anchor runs on the array kernel once their waves are
    wide, gated: ``batch=True`` must take at most two thirds of the
    ``batch=False`` reference's time, for the same pairs and counters.

    When every single-anchor run walked entry by entry the two took
    the same time here; with the switch to the array kernel at wide
    waves the reference takes about twice as long.
    """
    from repro.core.engine import RingRPQEngine
    from repro.graph.generators import wikidata_like
    from repro.ring.builder import RingIndex

    index = RingIndex.from_graph(wikidata_like(4000, 16000, 48, seed=0))
    batched = RingRPQEngine(index, batch=True)
    reference = RingRPQEngine(index, batch=False)

    def run(engine):
        return [
            (result.pairs, result.stats.operation_counts())
            for result in (engine.evaluate(query, timeout=10.0)
                           for query in WIDE_ANCHORED_QUERIES)
        ]

    assert run(batched) == run(reference)
    on = _best_of(lambda: run(batched), repeats=5)
    off = _best_of(lambda: run(reference), repeats=5)
    print(f"\nwide anchored reference / batched: {off / on:.2f}x "
          f"(batched {on * 1e3:.1f} ms, reference {off * 1e3:.1f} ms)")
    assert on <= off * 2 / 3, f"batched {on:.4f}s vs reference {off:.4f}s"


def test_wavelet_descend_batch(benchmark, matrix):
    """Level-synchronous batched descent over many ranges at once;
    asserts it reports exactly what per-range ``range_distinct`` does."""
    benchmark.group = "micro-ops"
    ranges = [(i * 1_000, i * 1_000 + 400) for i in range(64)]
    origins, symbols, _, _ = matrix.descend_batch(ranges)
    for oi, (b, e) in enumerate(ranges):
        want = [s for s, _, _ in matrix.range_distinct(b, e)]
        got = symbols[origins == oi].tolist()
        assert got == want

    def descend():
        return len(matrix.descend_batch(ranges)[0])

    assert benchmark(descend) > 0


def test_metrics_enabled_overhead_gate(bench_index):
    """Enabled-but-untraced telemetry must stay cheap.

    A live :class:`Metrics` registry with no trace buffer and no span
    stack turns on the counter/phase-timer paths but skips every
    allocation-heavy branch; this gate bounds its per-query overhead
    against the NULL_METRICS default.  The acceptance figure is 5%;
    the assertion is deliberately lenient (35%) because best-of-5
    query timing on a shared CI box is noisy, while the printed ratio
    tracks the real number run to run.
    """
    from repro.obs.metrics import Metrics

    engine = bench_index.engine
    query = "(?x, (p0|p1)+, ?y)"
    engine.evaluate(query)  # warm caches

    null_t = _best_of(lambda: engine.evaluate(query), repeats=5)
    enabled_t = _best_of(
        lambda: engine.evaluate(query, metrics=Metrics()), repeats=5
    )
    ratio = enabled_t / null_t
    print(f"\nenabled-but-untraced overhead: {ratio:.3f}x "
          f"(null {null_t * 1e3:.2f} ms, enabled {enabled_t * 1e3:.2f} ms)")
    assert ratio <= 1.35, (
        f"metrics-enabled run {ratio:.2f}x slower than NULL_METRICS"
    )


def test_ring_backward_step_batched(benchmark, bench_index):
    """Bulk Eq. 4-5 steps against the per-range scalar walk."""
    benchmark.group = "micro-ops"
    ring = bench_index.ring
    ranges = []
    for o in range(0, ring.num_nodes, 41):
        b, e = ring.object_range(o)
        if b < e:
            ranges.append((b, e))
    pid = 0
    batched = ring.backward_step_many(ranges, pid)
    scalar = [ring.backward_step(b, e, pid) for b, e in ranges]
    assert [tuple(row) for row in batched.tolist()] == scalar

    def steps():
        out = ring.backward_step_many(ranges, pid)
        return int(out[:, 1].sum())

    assert benchmark(steps) >= 0
