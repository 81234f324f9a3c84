"""Command-line interface: ``ring-rpq`` (or ``python -m repro``).

Subcommands::

    ring-rpq query GRAPH.nt "(?x, p1/p2*, ?y)"    evaluate one RPQ
    ring-rpq explain GRAPH.nt "(?x, p1+, ?y)"     plan + cost estimates
                                                   (--analyze: run it; est
                                                   vs actual, phases, spans)
    ring-rpq match GRAPH.nt ? p ?                  triple-pattern lookup
    ring-rpq stats GRAPH.nt                        index statistics
    ring-rpq serve GRAPH.nt                        interactive query loop
                                                   over the thread pool
    ring-rpq query-batch GRAPH.nt QUERIES.txt      drain a query file
                                                   through the pool
    ring-rpq bench table1|table2|fig8 [...]        regenerate artifacts
    ring-rpq generate OUT.nt --nodes N --edges M   synthetic dataset

Graphs are whitespace-separated triple files (one ``s p o`` per line;
see :mod:`repro.graph.io`).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.baselines.registry import (
    BASELINE_CLASSES,
    MATRIX_ENGINES,
    make_engine,
)
from repro.graph.generators import wikidata_like
from repro.graph.io import load_graph, save_graph
from repro.ring.builder import RingIndex


def _load_index(path: str, symmetric: list[str]) -> RingIndex:
    graph = load_graph(path, symmetric_predicates=symmetric)
    return RingIndex.from_graph(graph)


def cmd_query(args: argparse.Namespace) -> int:
    index = _load_index(args.graph, args.symmetric)
    engine = (
        index.engine
        if args.engine == "ring"
        else make_engine(args.engine, index)
    )
    started = time.monotonic()
    result = engine.evaluate(
        args.query, timeout=args.timeout, limit=args.limit
    )
    elapsed = time.monotonic() - started
    for s, o in result:
        print(f"{s}\t{o}")
    flags = []
    if result.stats.timed_out:
        flags.append("TIMEOUT")
    if result.stats.truncated:
        flags.append("TRUNCATED")
    suffix = f" [{', '.join(flags)}]" if flags else ""
    print(
        f"# {len(result)} result(s) in {elapsed:.3f}s via "
        f"{args.engine}{suffix}",
        file=sys.stderr,
    )
    return 0


def _backend_engine(args: argparse.Namespace, index):
    """The engine override for --backend (None means the ring)."""
    backend = getattr(args, "backend", "ring")
    return None if backend == "ring" else make_engine(backend, index)


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.explain import explain_analyze, format_plan, plan_dict

    index = _load_index(args.graph, args.symmetric)
    engine = _backend_engine(args, index)
    analyze = args.analyze or args.trace is not None
    if not analyze:
        if args.json:
            import json

            print(json.dumps(
                plan_dict(index, args.query, engine=engine), indent=2
            ))
        else:
            print(format_plan(index, args.query, engine=engine))
        return 0
    report = explain_analyze(
        index,
        args.query,
        timeout=args.timeout,
        limit=args.limit,
        span_capacity=args.span_capacity,
        engine=engine,
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.format())
    if args.trace is not None:
        report.write_chrome_trace(args.trace)
        print(f"# chrome trace written to {args.trace}", file=sys.stderr)
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    index = _load_index(args.graph, args.symmetric)

    def component(token: str) -> str | None:
        return None if token in ("?", "_", "*") else token

    triples = index.match_pattern(
        component(args.s), component(args.p), component(args.o)
    )
    count = 0
    for s, p, o in triples:
        print(f"{s}\t{p}\t{o}")
        count += 1
        if args.limit is not None and count >= args.limit:
            break
    print(f"# {count} triple(s)", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.bench.space import (
        packed_bytes_per_edge,
        ring_bytes_per_edge,
        working_space_bytes_per_edge,
    )

    index = _load_index(args.graph, args.symmetric)
    d = index.dictionary
    completed = len(index.ring)
    print(f"nodes            : {d.num_nodes}")
    print(f"predicates (P+)  : {d.num_predicates}")
    print(f"completed triples: {completed}")
    print(f"ring size        : {index.ring.size_in_bits() / 8 / 1024:.1f} KiB")
    print(f"bytes/edge       : {ring_bytes_per_edge(index):.2f}")
    print(f"packed baseline  : {packed_bytes_per_edge(index):.2f}")
    print(f"working space    : +{working_space_bytes_per_edge(index):.2f}")
    return 0


def cmd_space(args: argparse.Namespace) -> int:
    """The ``repro space`` report: bit-level space audit of every tier.

    Audits the built ring (per-column, per-level breakdown), the sparse
    backend's block cache when scipy is available — cold, as a service
    starts with it, and fully decoded, its upper bound — and the
    snapshot-segment layout (the ring's buffers, nothing else), then
    cross-checks the serving form: a ring *attached* over the
    snapshot payload must audit within a few percent of the segment's
    byte size (the delta is the segment's int64-widened rank
    directories vs the built ring's uint32 ones, plus alignment
    padding).
    """
    import json

    from repro.obs.space import audit_index, audit_manifest
    from repro.ring.snapshot import _write_payload, attach_index, \
        snapshot_index

    index = _load_index(args.graph, args.symmetric)
    n = len(index.ring)
    matrix_cold = None
    try:
        from repro.matrix.matrices import PredicateMatrices
    except ImportError:
        pass
    else:
        store = PredicateMatrices.from_index(index)
        matrix_cold = store.measure("matrix")
        store.decode_all()
    root = audit_index(index)
    manifest, buffers = snapshot_index(index)
    snap = audit_manifest(manifest)
    # Attach a view-backed ring over the snapshot payload: its audit is
    # the serving tier's in-memory form, directly comparable to the
    # segment size.
    payload = bytearray(manifest["total_bytes"])
    _write_payload(manifest, buffers, payload)
    attached = attach_index(manifest, payload)
    attached_ring = attached.ring.measure("ring")
    ring_node = root.find("index.ring")
    segment_bytes = int(manifest["total_bytes"])
    agreement = attached_ring.nbytes / segment_bytes if segment_bytes else 1.0
    totals = {
        "n_triples": n,
        "ring_bytes": ring_node.nbytes,
        "ring_bits_per_triple": ring_node.bits_per_triple(n),
        "snapshot_bytes": segment_bytes,
        "snapshot_bits_per_triple": snap.bits_per_triple(n),
        "attached_ring_bytes": attached_ring.nbytes,
        "attached_ring_segment_agreement": agreement,
    }
    matrix_node = root.find("index.matrix")
    if matrix_node is not None:
        totals["matrix_cold_bytes"] = matrix_cold.nbytes
        totals["matrix_bytes"] = matrix_node.nbytes
        totals["matrix_bits_per_triple"] = matrix_node.bits_per_triple(n)
    if args.json:
        print(json.dumps({
            "totals": totals,
            "index": root.to_dict(n),
            "snapshot": snap.to_dict(n),
            "attached_ring": attached_ring.to_dict(n),
        }, indent=2))
        return 0
    print(root.format_tree(n))
    print()
    print(snap.format_tree(n))
    print()
    print(f"ring (built)      : {ring_node.nbytes:,} bytes "
          f"({ring_node.bits_per_triple(n):.2f} bits/triple)")
    if matrix_node is not None:
        print(f"matrix (cold)     : {matrix_cold.nbytes:,} bytes "
              f"({matrix_cold.detail['decoded']} of "
              f"{matrix_cold.detail['predicates']} blocks decoded)")
        print(f"matrix (decoded)  : {matrix_node.nbytes:,} bytes "
              f"({matrix_node.bits_per_triple(n):.2f} bits/triple, all "
              f"{matrix_node.detail['decoded']} blocks)")
    print(f"snapshot segment  : {segment_bytes:,} bytes "
          f"({snap.bits_per_triple(n):.2f} bits/triple)")
    print(f"ring (attached)   : {attached_ring.nbytes:,} bytes — "
          f"{agreement:.1%} of the segment (remainder: 64-byte "
          "alignment padding)")
    return 0


def _build_service(args: argparse.Namespace, metrics=None, slow_log=None):
    from repro.obs.flight import FlightRecorder
    from repro.obs.querylog import QueryLogWriter
    from repro.serve import ProcessQueryService, QueryService

    backend = getattr(args, "backend", "ring")
    pool = getattr(args, "pool", "threads")
    if pool == "processes" and backend != "ring":
        raise SystemExit(
            "--pool processes serves the ring engine only; "
            f"--backend {backend} needs --pool threads"
        )
    index = _load_index(args.graph, args.symmetric)
    flight_capacity = getattr(args, "flight", 256)
    common = dict(
        workers=args.workers,
        max_pending=args.max_pending,
        cache_size=args.cache_size,
        default_timeout=args.timeout,
        default_limit=args.limit,
        metrics=metrics,
        slow_log=slow_log,
        query_log=(QueryLogWriter(args.query_log)
                   if args.query_log else None),
        flight=(FlightRecorder(flight_capacity)
                if flight_capacity > 0 else None),
    )
    if pool == "processes":
        return ProcessQueryService(
            index,
            start_method=getattr(args, "start_method", None),
            **common,
        )
    engine = None
    if backend != "ring":
        # The service's slow log stays authoritative; the engine is
        # built without one (same division as the default ring path).
        engine = make_engine(backend, index)
    return QueryService(index, engine=engine, **common)


def _close_service(service) -> None:
    """Drain and stop ``service``, then close the query log it wrote."""
    service.close()
    if service.query_log is not None:
        service.query_log.close()


def cmd_serve(args: argparse.Namespace) -> int:
    """Interactive loop: one query per stdin line, results to stdout.

    Commands: ``.stats`` prints service statistics, ``.metrics`` the
    Prometheus exposition, ``.vars`` the ``/debug/vars`` snapshot,
    ``.slow`` the slow-query log, ``.space`` the space audit, ``.quit``
    exits (EOF also exits).  With ``--http-port`` the query API
    (``POST /query`` streaming chunked NDJSON pages — see
    ``docs/http.md``) and the same telemetry (``/metrics``,
    ``/healthz``, ``/debug/vars``, ``/debug/flight``, ``/debug/space``)
    are served over HTTP on that one port alongside the REPL.
    """
    import json

    from repro.obs.export import debug_vars, scrape_metrics
    from repro.obs.metrics import Metrics
    from repro.obs.slowlog import SlowQueryLog

    metrics = Metrics(span_capacity=args.span_capacity)
    slow_log = SlowQueryLog(capacity=args.slow_log)
    service = _build_service(args, metrics=metrics, slow_log=slow_log)
    front_door = None
    if getattr(args, "http_port", None) is not None:
        from repro.serve.http import HTTPQueryServer

        kwargs = {}
        if getattr(args, "http_page_size", None):
            kwargs["default_page_size"] = args.http_page_size
        front_door = HTTPQueryServer(
            service, port=args.http_port, **kwargs
        ).start()
        url = front_door.url
        print(f"# query API: {url}/query (NDJSON streaming), "
              f"{url}/healthz; telemetry: {url}/metrics {url}/debug/vars",
              file=sys.stderr)
    print(
        f"# serving {args.graph} with {args.workers} worker(s); "
        "one query per line, .quit to exit",
        file=sys.stderr,
    )
    try:
        for line in sys.stdin:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line in (".quit", ".exit"):
                break
            if line == ".stats":
                print(json.dumps(service.stats(), indent=2))
                continue
            if line == ".metrics":
                print(scrape_metrics(service), end="")
                continue
            if line == ".slow":
                print(slow_log.format_table())
                continue
            if line == ".space":
                from repro.obs.space import audit_service

                with service.obs_lock:
                    tree = audit_service(service)
                print(tree.format_tree(len(service.index.ring)))
                continue
            if line == ".vars":
                print(json.dumps(debug_vars(service), indent=2))
                continue
            try:
                result = service.evaluate(line)
            except Exception as exc:  # noqa: BLE001 - REPL keeps going
                print(f"# error: {exc}", file=sys.stderr)
                continue
            for s, o in result:
                print(f"{s}\t{o}")
            stats = result.stats
            flags = [
                name for name, on in (
                    ("TIMEOUT", stats.timed_out),
                    ("TRUNCATED", stats.truncated),
                    ("CANCELLED", stats.cancelled),
                    ("CACHED", stats.cached),
                ) if on
            ]
            suffix = f" [{', '.join(flags)}]" if flags else ""
            print(
                f"# {len(result)} result(s) in "
                f"{stats.elapsed:.3f}s{suffix}",
                file=sys.stderr,
            )
    finally:
        # Shutdown ordering: stop accepting HTTP connections first,
        # then drain the service — a front door stopped after close
        # would map late submissions to 503s rather than settling them.
        if front_door is not None:
            front_door.stop()
        _close_service(service)
    return 0


def cmd_query_batch(args: argparse.Namespace) -> int:
    import json

    from repro.obs.metrics import Metrics
    from repro.serve import drain_queries, load_query_file

    queries = load_query_file(args.queries)
    service = _build_service(args, metrics=Metrics())
    try:
        summary = drain_queries(
            service, queries, rounds=args.rounds,
            timeout=args.timeout, limit=args.limit,
        )
    finally:
        _close_service(service)
    if not args.verbose:
        summary = {k: v for k, v in summary.items() if k != "per_query"}
    print(json.dumps(summary, indent=2))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    graph = wikidata_like(
        n_nodes=args.nodes,
        n_edges=args.edges,
        n_predicates=args.predicates,
        seed=args.seed,
    )
    save_graph(graph, args.out)
    print(f"wrote {len(graph)} triples to {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    driver = importlib.import_module(f"repro.bench.{args.artifact}")
    rest = args.rest
    if rest and rest[0] == "--":
        rest = rest[1:]
    driver.main(rest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ring-rpq", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="evaluate one RPQ against a graph")
    q.add_argument("graph", help="triple file (s p o per line)")
    q.add_argument("query", help='e.g. "(?x, p1/p2*, ?y)"')
    q.add_argument("--engine", default="ring",
                   choices=["ring", *sorted(BASELINE_CLASSES),
                            *MATRIX_ENGINES])
    q.add_argument("--timeout", type=float, default=None)
    q.add_argument("--limit", type=int, default=1_000_000)
    q.add_argument("--symmetric", nargs="*", default=[],
                   help="predicates stored bidirectionally")
    q.set_defaults(func=cmd_query)

    e = sub.add_parser(
        "explain",
        help="show the query plan (automaton, B table, strategy, cost "
             "estimates); --analyze also runs it and compares estimated "
             "vs. actual work",
    )
    e.add_argument("graph", help="triple file (s p o per line)")
    e.add_argument("query", help='e.g. "(?x, p1/p2*, ?y)"')
    e.add_argument("--analyze", action="store_true",
                   help="run the query and report its query record: "
                        "estimated vs. actual counters, the per-phase "
                        "table and the span tree")
    e.add_argument("--timeout", type=float, default=None)
    e.add_argument("--limit", type=int, default=1_000_000)
    e.add_argument("--backend", default="ring",
                   choices=["ring", *MATRIX_ENGINES],
                   help="evaluation backend to explain (routed shows "
                        "the decision and est-vs-actual seconds)")
    e.add_argument("--symmetric", nargs="*", default=[],
                   help="predicates stored bidirectionally")
    e.add_argument("--json", action="store_true",
                   help="print the plan/report as JSON")
    e.add_argument("--trace", metavar="OUT.json", default=None,
                   help="write the captured spans as a Chrome trace-event "
                        "file (implies --analyze)")
    e.add_argument("--span-capacity", type=int, default=100_000,
                   help="maximum spans retained during --analyze")
    e.set_defaults(func=cmd_explain)

    m = sub.add_parser(
        "match", help="triple-pattern lookup (use ? for wildcards)"
    )
    m.add_argument("graph")
    m.add_argument("s", help="subject or ?")
    m.add_argument("p", help="predicate or ?")
    m.add_argument("o", help="object or ?")
    m.add_argument("--limit", type=int, default=None)
    m.add_argument("--symmetric", nargs="*", default=[])
    m.set_defaults(func=cmd_match)

    s = sub.add_parser("stats", help="index statistics for a graph")
    s.add_argument("graph")
    s.add_argument("--symmetric", nargs="*", default=[])
    s.set_defaults(func=cmd_stats)

    sp = sub.add_parser(
        "space",
        help="bit-level space audit: ring, matrix, snapshot tiers",
    )
    sp.add_argument("graph")
    sp.add_argument("--symmetric", nargs="*", default=[])
    sp.add_argument("--json", action="store_true",
                    help="machine-readable audit (trees + totals)")
    sp.set_defaults(func=cmd_space)

    def _serve_common(sp) -> None:
        sp.add_argument("--workers", type=int, default=4)
        sp.add_argument("--backend", default="ring",
                        choices=["ring", *MATRIX_ENGINES],
                        help="evaluation backend: the ring engine, the "
                             "sparse-matrix engine, or the per-query "
                             "cost-model router")
        sp.add_argument("--pool", default="threads",
                        choices=["threads", "processes"],
                        help="serving tier: worker threads sharing the "
                             "in-process index, or worker processes "
                             "attaching one shared-memory snapshot "
                             "(GIL-free; ring backend only)")
        sp.add_argument("--start-method", default=None,
                        choices=["fork", "spawn", "forkserver"],
                        help="multiprocessing start method for "
                             "--pool processes (default: platform)")
        sp.add_argument("--max-pending", type=int, default=64,
                        help="admission bound on queued+executing queries")
        sp.add_argument("--cache-size", type=int, default=128,
                        help="result-cache capacity (0 disables)")
        sp.add_argument("--timeout", type=float, default=None,
                        help="default per-query wall-clock budget")
        sp.add_argument("--limit", type=int, default=1_000_000)
        sp.add_argument("--symmetric", nargs="*", default=[],
                        help="predicates stored bidirectionally")
        sp.add_argument("--flight", type=int, default=256, metavar="N",
                        help="flight-recorder capacity: keep the last N "
                             "settled queries' audit records, served at "
                             "/debug/flight and attached to worker-crash "
                             "errors (0 disables; default 256)")
        sp.add_argument("--query-log", metavar="OUT.jsonl", default=None,
                        help="append one JSON line per settled query "
                             "(query_id-correlated) to this file")

    v = sub.add_parser(
        "serve",
        help="interactive query loop over the thread-pool service "
             "(.stats/.metrics/.vars/.slow/.space/.quit commands); "
             "--http-port serves queries and telemetry on one port",
    )
    v.add_argument("graph", help="triple file (s p o per line)")
    _serve_common(v)
    v.add_argument("--slow-log", type=int, default=10,
                   help="slow-query log capacity")
    v.add_argument("--span-capacity", type=int, default=2048,
                   help="spans retained in the service registry "
                        "(0 disables span collection)")
    v.add_argument("--http-port", type=int, default=None, metavar="PORT",
                   help="serve the query API and the telemetry over "
                        "HTTP on this one port (POST /query streams "
                        "NDJSON pages; /submit, /status, /result, "
                        "/cancel, /healthz, /metrics, /debug/vars, "
                        "/debug/flight, /debug/space; 0 picks an "
                        "ephemeral port); the REPL keeps running "
                        "alongside")
    v.add_argument("--http-page-size", type=int, default=None,
                   metavar="N",
                   help="default NDJSON page size for streamed results")
    v.set_defaults(func=cmd_serve)

    qb = sub.add_parser(
        "query-batch",
        help="drain a query file through the thread-pool service and "
             "print a JSON throughput summary",
    )
    qb.add_argument("graph", help="triple file (s p o per line)")
    qb.add_argument("queries", help="query file (one RPQ per line)")
    _serve_common(qb)
    qb.add_argument("--rounds", type=int, default=1,
                    help="replay the workload this many times "
                         "(rounds > 1 exercise the result cache)")
    qb.add_argument("--verbose", action="store_true",
                    help="include the per-query records in the JSON")
    qb.set_defaults(func=cmd_query_batch)

    g = sub.add_parser("generate", help="write a synthetic dataset")
    g.add_argument("out")
    g.add_argument("--nodes", type=int, default=5_000)
    g.add_argument("--edges", type=int, default=30_000)
    g.add_argument("--predicates", type=int, default=60)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)

    b = sub.add_parser("bench", help="regenerate a published artifact")
    b.add_argument("artifact", choices=["table1", "table2", "fig8"])
    b.add_argument("rest", nargs=argparse.REMAINDER,
                   help="arguments forwarded to the driver")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
