"""What the benchmark measures: pinned sizes, workloads, metric names.

``BENCHMARK.json`` at the repository root repeats the workload and
metric names for the driver; ``test_smoke.py`` keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The shared graph ``G``.  Sized so that one pass over a workload's
#: request list takes ~3 s of pure Python (``var2var``: ~10 s, it needs
#: the sample) and a whole run fits the driver's budget (92 runs in
#: 3420 s).  16 000 edges over 4 000 nodes
#: keeps the most popular tail predicate's mean out-degree below 1:
#: above it, closure sizes sit at a percolation threshold and swing
#: several-fold from seed to seed.
GRAPH = {"nodes": 4_000, "edges": 16_000, "predicates": 48}
SMOKE_GRAPH = {"nodes": 300, "edges": 1_500, "predicates": 12}

#: Budget of every query, library and wire alike.
TIMEOUT_S = 10.0
LIMIT = 10_000

#: Default length of the timed phase (``run_seconds`` of BENCHMARK.json).
RUN_SECONDS = 10

#: Interpreter (or server) starts per run; ``setup_s`` is their median.
SETUPS = 3

#: Queries of a non-zero seed checked against the brute-force oracle
#: (seed 0 checks every answer against the committed goldens).
ORACLE_SAMPLE = 16


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "library" (in-process) or "wire" (HTTP server)
    why: str
    scale: float         # Table 1 × scale = distinct queries generated
    smoke_scale: float
    rows: str = "all"    # Table-1 rows used: "anchored", "var2var", "all"
    stream: int = 0      # > 0: requests drawn Zipf(1.0) from the log
    smoke_stream: int = 0
    server_args: tuple[str, ...] = ()


WORKLOADS = {w.name: w for w in (
    Workload(
        "anchored", "library",
        "Distinct Table-1 queries with a constant endpoint through "
        "RingRPQEngine.evaluate: per-query fixed cost (parse, Glushkov, "
        "prepare-LRU misses, planner) and the scalar runner do the work; "
        "batch kernels, matrix and serve do none.",
        scale=5.0, smoke_scale=0.08, rows="anchored",
    ),
    Workload(
        "var2var", "library",
        "Both-variable Table-1 queries through the same ring engine: "
        "BatchedBackwardRun, backward_step_many and rank1_many_words "
        "dominate and fixed per-query cost is negligible.",
        # x2: the median of 90 such queries (x0.5) moved 16-23 ms from
        # seed to seed by the draw alone; ~345 keep it within 3 %
        scale=2.0, smoke_scale=0.1, rows="var2var",
    ),
    Workload(
        "served_uncached", "wire",
        "Mixed Table-1 log over HTTP, 2 keep-alive callers, 1 worker "
        "process, cache off: every request pays framing, admission, "
        "pickle+pipe IPC and evaluation over the shared-memory snapshot.",
        scale=0.27, smoke_scale=0.02,
        server_args=("--pool", "processes", "--workers", "1",
                     "--cache-size", "0"),
    ),
    Workload(
        "served_cached", "wire",
        "Zipf(1.0) stream over the Table-1 pool, 2 callers, 1 worker "
        "thread, routed backend, 256-entry cache smaller than the key "
        "set, every 4th repeat respelled: cache hits, key normalisation, "
        "the router and NDJSON paging share one GIL.",
        scale=1.0, smoke_scale=0.05, stream=3_000, smoke_stream=600,
        server_args=("--pool", "threads", "--workers", "1",
                     "--backend", "routed", "--cache-size", "256"),
    ),
)}

#: Closed loop on the wire: this many callers each wait for their reply.
CONNECTIONS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_slowest5pct_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("cpu_ms_per_query", "ms"),
    ("index_bits_per_triple", "bits"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("graph.load_s", "s"),
    ("graph.completed_triples", "count"),
    ("automata.parse_us_p50", "us"),
    ("automata.glushkov_us_p50", "us"),
    ("automata.states_mean", "count"),
    ("automata.self_share", "ratio"),
    ("core.self_share", "ratio"),
    ("core.prepare_hit_ratio", "ratio"),
    ("core.backward_steps_per_query", "count"),
    ("core.product_nodes_per_query", "count"),
    ("core.subqueries_per_query", "count"),
    ("core.ops_per_result", "ratio"),
    ("core.timed_out", "count"),
    ("core.truncated", "count"),
    ("ring.backward_step_us", "us"),
    ("ring.backward_step_calls_per_query", "count"),
    ("ring.object_range_us", "us"),
    ("ring.backward_step_many_us_per_range", "us"),
    ("ring.object_ranges_many_us_per_node", "us"),
    ("ring.self_share", "ratio"),
    ("ring.build_s", "s"),
    ("ring.bits_per_triple", "bits"),
    ("ring.ls_bits_per_triple", "bits"),
    ("ring.lp_bits_per_triple", "bits"),
    ("ring.snapshot_create_s", "s"),
    ("ring.snapshot_attach_ms", "ms"),
    ("ring.snapshot_bits_per_triple", "bits"),
    ("ring.snapshot_buffers", "count"),
    ("ring.save_s", "s"),
    ("ring.load_mmap_ms", "ms"),
    ("succinct.rank_ops_per_query", "count"),
    ("succinct.wavelet_nodes_per_query", "count"),
    ("succinct.prune_ratio", "ratio"),
    ("succinct.descend_batch_us_per_range", "us"),
    ("succinct.rank1_many_ns_per_pos", "ns"),
    ("succinct.self_share", "ratio"),
    ("succinct.rank1_ns", "ns"),
    ("succinct.rank1_many_ns_per_pos_k64", "ns"),
    ("succinct.rank1_many_ns_per_pos_k2048", "ns"),
    ("succinct.select1_ns", "ns"),
    ("succinct.wm_rank_pair_ns", "ns"),
    ("succinct.wm_build_s", "s"),
    ("matrix.compile_s", "s"),
    ("matrix.bits_per_triple", "bits"),
    ("matrix.routed_share", "ratio"),
    ("matrix.evaluate_ms_p50", "ms"),
    ("matrix.matmuls_per_query", "count"),
    ("serve.http_overhead_ms_p50", "ms"),
    ("serve.http_overhead_ms_p95", "ms"),
    ("serve.admission_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.execute_ms_p50", "ms"),
    ("serve.execute_ms_p95", "ms"),
    ("serve.ipc_ms_p50", "ms"),
    ("serve.ipc_ms_p95", "ms"),
    ("serve.settle_ms_p50", "ms"),
    ("serve.worker_utilization", "ratio"),
    ("serve.stream_mb_per_s", "MB/s"),
    ("serve.bytes_per_pair", "bytes"),
    ("serve.rejected_429", "count"),
    ("serve.shm_mb", "MiB"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_bytes", "bytes"),
    ("serve.cache_key_us", "us"),
    ("serve.frame_us_per_pair", "us"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.metrics_on_ratio", "ratio"),
)
