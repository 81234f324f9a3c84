"""Probe rows of the layer table: direct calls to a layer's public
functions on the graph ``G``, once, outside any timed pass.

Probes size what the request path never isolates (index build, the
snapshot plane, scalar vs batched rank kernels, the matrix backend on
v-to-v queries, cache-key and framing cost).  Positions and ranges are
seeded; the timings are this host's.
"""

from __future__ import annotations

import random
import time

import numpy as np

from measure import median, ratio

#: Seeded positions per scalar kernel probe.
POSITIONS = 100_000


def _timed(function, *args):
    start = time.perf_counter()
    value = function(*args)
    return value, time.perf_counter() - start


def run(ctx) -> dict[str, float]:
    """All probe metrics; ``ctx`` is ``run.Context``."""
    from repro import RingIndex
    from repro.graph.io import load_graph

    graph, load_s = _timed(load_graph, ctx.graph_path)
    index, build_s = _timed(RingIndex.from_graph, graph)
    triples = len(index.ring)
    space = index.ring.measure("ring")
    out = {
        "graph.load_s": load_s,
        "graph.completed_triples": triples,
        "ring.build_s": build_s,
        "ring.bits_per_triple": space.bits_per_triple(triples),
        "ring.ls_bits_per_triple":
            space.find("ring.L_s").bits_per_triple(triples),
        "ring.lp_bits_per_triple":
            space.find("ring.L_p").bits_per_triple(triples),
    }
    rng = random.Random(f"probe-{ctx.seed}")
    out.update(_succinct(index, graph, rng))
    out.update(_matrix(index, ctx))        # before the snapshot: it
    out.update(_snapshot(index, ctx))      # carries the compiled matrices
    out.update(_serve(index, ctx))
    out.update(_obs(index, ctx))
    return out


def _snapshot(index, ctx) -> dict[str, float]:
    from repro.ring.snapshot import (
        SharedIndexHandle,
        load_snapshot,
        save_snapshot,
    )

    triples = len(index.ring)
    handle, create_s = _timed(SharedIndexHandle.create, index)
    try:
        attached, attach_s = _timed(handle.attach_local)
        del attached  # its views pin the mapping
        out = {
            "ring.snapshot_create_s": create_s,
            "ring.snapshot_attach_ms": attach_s * 1e3,
            "ring.snapshot_bits_per_triple": handle.nbytes * 8 / triples,
            "ring.snapshot_buffers": len(handle.manifest["buffers"]),
        }
    finally:
        handle.close()
    path = ctx.work / "probe.snapshot"
    _, out["ring.save_s"] = _timed(save_snapshot, index, path)
    loaded, load_s = _timed(load_snapshot, path)
    del loaded
    out["ring.load_mmap_ms"] = load_s * 1e3
    path.unlink()
    return out


def _succinct(index, graph, rng) -> dict[str, float]:
    from repro.succinct.bitvector import BitVector
    from repro.succinct.wavelet_matrix import WaveletMatrix

    ring = index.ring
    n = len(ring)
    # the top level of L_s, through the public view constructor
    top = BitVector.from_packed(*ring.L_s.batch_data()[0][0])
    positions = [rng.randrange(n + 1) for _ in range(POSITIONS)]
    array = np.asarray(positions, dtype=np.int64)

    def scalar_ns(function, arguments) -> float:
        start = time.perf_counter()
        for argument in arguments:
            function(argument)
        return (time.perf_counter() - start) * 1e9 / len(arguments)

    def many_ns(k: int) -> float:
        start = time.perf_counter()
        for at in range(0, POSITIONS, k):
            top.rank1_many(array[at:at + k])
        return (time.perf_counter() - start) * 1e9 / POSITIONS

    ones = top.rank1(n)
    ranks = [rng.randrange(ones) for _ in range(POSITIONS // 5)]
    predicates = ring.num_predicates
    pairs = [(rng.randrange(predicates), *sorted(
        (rng.randrange(n + 1), rng.randrange(n + 1))))
        for _ in range(POSITIONS // 5)]
    start = time.perf_counter()
    for symbol, b, e in pairs:
        ring.L_p.rank_pair(symbol, b, e)
    rank_pair_ns = (time.perf_counter() - start) * 1e9 / len(pairs)

    ranges = np.sort(array[:4096].reshape(-1, 2), axis=1)
    ranges[:, 1] = np.minimum(ranges[:, 1], ranges[:, 0] + 64)
    _, descend_s = _timed(ring.L_s.descend_batch, ranges)

    encoded = index.dictionary.encode_triples(graph.completion())
    subjects = np.asarray(
        [s for s, _, _ in sorted(encoded, key=lambda t: (t[1], t[2], t[0]))],
        dtype=np.int64)
    _, build_s = _timed(WaveletMatrix, subjects, ring.num_nodes)
    return {
        "succinct.rank1_ns": scalar_ns(top.rank1, positions),
        "succinct.rank1_many_ns_per_pos_k64": many_ns(64),
        "succinct.rank1_many_ns_per_pos_k2048": many_ns(2048),
        "succinct.select1_ns": scalar_ns(top.select1, ranks),
        "succinct.wm_rank_pair_ns": rank_pair_ns,
        "succinct.descend_batch_us_per_range": descend_s * 1e6 / len(ranges),
        "succinct.wm_build_s": build_s,
    }


def _matrix(index, ctx) -> dict[str, float]:
    from repro.matrix import MatrixRPQEngine
    from repro.matrix.matrices import PredicateMatrices

    store, compile_s = _timed(PredicateMatrices.from_index, index)
    engine = MatrixRPQEngine(index)
    seconds, matmuls = [], 0
    for text in ctx.probe_var2var:
        result, elapsed = _timed(
            lambda: engine.evaluate(text, timeout=ctx.timeout,
                                    limit=ctx.limit))
        seconds.append(elapsed)
        matmuls += result.stats.matmuls
    return {
        "matrix.compile_s": compile_s,
        "matrix.bits_per_triple":
            store.measure().bits_per_triple(len(index.ring)),
        "matrix.evaluate_ms_p50": median(seconds) * 1e3,
        "matrix.matmuls_per_query": ratio(matmuls, len(seconds)),
    }


def _serve(index, ctx) -> dict[str, float]:
    from repro.core.query import RPQ
    from repro.serve.http import frame_records
    from repro.serve.keys import index_fingerprint, query_cache_key

    fingerprint = index_fingerprint(index)
    queries = [RPQ.parse(text) for text in ctx.probe_anchored]
    _, key_s = _timed(
        lambda: [query_cache_key(q, fingerprint) for q in queries])
    pairs = [(f"n{i}", f"n{i // 7}") for i in range(10_000)]
    stats = {"elapsed_seconds": 0.0, "timed_out": False, "truncated": False,
             "cancelled": False, "cached": False}
    _, frame_s = _timed(frame_records, "q0", "(?x, p0*, ?y)", pairs, stats)
    return {
        "serve.cache_key_us": key_s * 1e6 / len(queries),
        "serve.frame_us_per_pair": frame_s * 1e6 / len(pairs),
    }


def _obs(index, ctx) -> dict[str, float]:
    """Cost of the program's own metrics registry, switched on."""
    from repro.obs.metrics import Metrics

    engine = index.engine
    budget = {"timeout": ctx.timeout, "limit": ctx.limit}

    def sweep(**extra) -> float:
        start = time.perf_counter()
        for text in ctx.probe_anchored:
            engine.evaluate(text, **budget, **extra)
        return time.perf_counter() - start

    sweep()  # warm caches and lazy mirrors
    plain = sweep()
    return {"obs.metrics_on_ratio": ratio(sweep(metrics=Metrics()), plain)}
