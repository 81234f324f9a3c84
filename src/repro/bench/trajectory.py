"""Perf-trajectory driver: regenerate ``BENCH_engine.json``.

Every PR that touches the query path re-runs this driver at the
standard calibration scale and commits the refreshed report at the
repo root, so the per-pattern-class wall-clock numbers form a
commit-over-commit trajectory.  The scale is larger than the default
:func:`~repro.bench.context.build_context` knobs on the query-log side
(``log_scale=0.2``) so the v-to-v classes contribute enough queries
for stable means, and the timeout is generous enough that nothing
times out on the reference machine — timeouts would clamp the mean and
hide regressions.

Run as ``python -m repro.bench.trajectory [--out BENCH_engine.json]``.
"""

from __future__ import annotations

import argparse

import json
from pathlib import Path

from repro.bench.context import build_context
from repro.bench.runner import (
    engine_bench_report,
    run_benchmark,
    service_throughput_report,
    stage_decomposition_report,
)

#: The pinned trajectory scale — change it only deliberately, because
#: numbers are only comparable across PRs at identical parameters.
TRAJECTORY_PARAMS = dict(
    n_nodes=3_000,
    n_edges=18_000,
    n_predicates=40,
    log_scale=0.2,
    timeout=10.0,
    limit=100_000,
    seed=0,
)

#: The pinned serving-throughput scale: pool sizes and replay rounds
#: for the ``workers`` section of ``BENCH_engine.json``.  The cache
#: must cover the ~331-query working set — an undersized cache thrashes
#: (round N+1 replays evict round N before it is reused) and the
#: section would measure LRU churn instead of serving throughput.
#: ``pool_workers`` / ``pool_kinds`` pin the uncached thread-vs-process
#: scaling axis; ``burst_pending`` the open-loop overload probe.
WORKERS_PARAMS = dict(
    workers=(1, 4),
    rounds=3,
    cache_size=512,
    pool_workers=(1, 2, 4),
    pool_kinds=("threads", "processes"),
    burst_pending=8,
)

#: The pinned audit-plane scale: how many log queries feed the
#: per-stage latency decomposition of the ``stages`` section, and the
#: pool size both tiers run at while decomposing.
STAGES_PARAMS = dict(
    sample=40,
    workers=2,
)

#: How many prior runs' headline numbers the report's ``history``
#: section retains — enough for a commit-over-commit trend, small
#: enough that BENCH_engine.json stays reviewable.
HISTORY_LIMIT = 8


def space_section(context) -> dict:
    """The ``space`` section: bits per completed triple for each tier.

    Audits the built ring with the space-audit plane
    (:mod:`repro.obs.space`), the sparse-matrix backend's block cache
    when scipy is available (cold, as this run's queries left it, and
    fully decoded — its upper bound, the headline), and the snapshot
    segment layout (from the manifest, no live segment needed) —
    making space regressions visible in the trajectory exactly like
    latency regressions.
    """
    from repro.errors import ConstructionError
    from repro.ring.snapshot import snapshot_index

    index = context.index
    n = len(index.ring)

    def tier(nbytes: int) -> dict:
        return {
            "bytes": int(nbytes),
            "bits_per_triple": nbytes * 8 / max(1, n),
        }

    ring_node = index.ring.measure("ring")
    section = {
        "n_triples": n,
        "ring": {
            **tier(ring_node.nbytes),
            "breakdown": {
                child.name: child.nbytes for child in ring_node.children
            },
        },
    }
    try:
        from repro.matrix.matrices import PredicateMatrices

        store = PredicateMatrices.from_index(index)
    except (ImportError, ConstructionError):
        store = None
    if store is not None:
        resident = store.measure("matrix")
        section["matrix"] = {
            **tier(store.decode_all().measure().nbytes),
            "cold": tier(PredicateMatrices(index.ring).measure().nbytes),
            "resident": {
                **tier(resident.nbytes),
                "decoded_blocks": resident.detail["decoded"],
            },
        }
    manifest, _ = snapshot_index(index)
    section["snapshot"] = {
        **tier(manifest["total_bytes"]),
        "buffers": len(manifest["buffers"]),
    }
    return section


def _carry_history(old_report: "dict | None") -> "list[dict]":
    """The ``history`` list for a new report: the old report's history
    plus its own headline, capped at :data:`HISTORY_LIMIT`.

    This is the bookkeeping fix for the trajectory file being
    overwritten wholesale each run — the last N runs' headline numbers
    (now including ring bits/triple) survive the rewrite.
    """
    if not isinstance(old_report, dict) or "overall" not in old_report:
        return []
    history = [
        entry for entry in old_report.get("history", ())
        if isinstance(entry, dict)
    ]
    overall = old_report.get("overall") or {}
    tails = overall.get("percentiles") or {}
    meta = old_report.get("meta") or {}
    space = old_report.get("space") or {}
    matrix = space.get("matrix") or {}
    history.append({
        "label": meta.get("label"),
        "count": overall.get("count"),
        "mean_seconds": overall.get("mean_seconds"),
        "p50_seconds": tails.get("p50"),
        "p99_seconds": tails.get("p99"),
        "timeouts": overall.get("timeouts"),
        "ring_bits_per_triple": (space.get("ring") or {}).get(
            "bits_per_triple"
        ),
        "snapshot_bits_per_triple": (space.get("snapshot") or {}).get(
            "bits_per_triple"
        ),
        "matrix_cold_bits_per_triple": (matrix.get("cold") or {}).get(
            "bits_per_triple"
        ),
        "matrix_decoded_bits_per_triple": matrix.get("bits_per_triple"),
    })
    return history[-HISTORY_LIMIT:]


def matrix_section(context) -> "dict | None":
    """The ``matrix`` section: both alternate backends on the pinned
    workload, plus the router's decision tally.

    Runs the sparse-matrix engine and the cost-model router over the
    same query log the ring section used, reports each with the same
    per-shape/per-pattern tails, and folds in the router counters
    (decisions, per-backend splits, misroutes and the misroute rate —
    the same numbers the live ``/metrics`` endpoint exports).  Returns
    ``None`` when scipy is unavailable, so the trajectory file can
    still be produced on a minimal interpreter.
    """
    from repro.errors import ConstructionError

    try:
        from repro.baselines.registry import make_engine

        engines = {
            "matrix": make_engine("matrix", context.index),
            "routed": make_engine("routed", context.index),
        }
    except ConstructionError:
        return None
    from repro.obs.metrics import Metrics

    registry = Metrics()
    engines["routed"].metrics = registry
    results = run_benchmark(
        engines,
        context.queries,
        timeout=context.timeout,
        limit=context.limit,
    )
    routed = engines["routed"]
    return {
        "engines": {
            name: engine_bench_report(results, engine=name)
            for name in engines
        },
        "router": {
            "decisions": registry.count("router.decisions"),
            "to_ring": registry.count("router.to_ring"),
            "to_matrix": registry.count("router.to_matrix"),
            "misroutes": registry.count("router.misroutes"),
            "misroute_rate": routed.misroute_rate,
        },
        "matrix_store_bits": routed.size_in_bits(),
    }


def run_trajectory(out_path: str = "BENCH_engine.json",
                   meta: "dict[str, object] | None" = None,
                   workers: "tuple[int, ...] | None" = None,
                   pool_kinds: "tuple[str, ...] | None" = None) -> dict:
    """Run the ring engine over the pinned workload and write the report.

    ``workers`` (default: the pinned ``WORKERS_PARAMS`` pool sizes)
    additionally measures serving-tier aggregate throughput over the
    same query log and records it as the report's ``workers`` section;
    pass an empty tuple to skip it.  ``pool_kinds`` restricts the
    uncached thread-vs-process scaling axis (default: both kinds).
    """
    from repro.obs.sampler import ResourceSampler
    from repro.obs.sampling_profiler import SamplingProfiler

    context = build_context(engine_names=("ring",), **TRAJECTORY_PARAMS)
    # The trajectory run doubles as a resource trajectory: a sampler
    # plus statistical profiler ride along so each committed report
    # also records peak RSS, CPU seconds and which §4 phases the
    # benchmark actually spent its samples in.
    profiler = SamplingProfiler()
    sampler = ResourceSampler(interval=0.1, profiler=profiler)
    with sampler:
        results = run_benchmark(
            context.engines,
            context.queries,
            timeout=context.timeout,
            limit=context.limit,
        )
    full_meta = {
        **context.notes,
        "timeout": context.timeout,
        "limit": context.limit,
        "seed": context.seed,
        "n_queries": len(context.queries),
    }
    if meta:
        full_meta.update(meta)
    report = engine_bench_report(results, engine="ring", meta=full_meta)
    vitals = sampler.process_metrics()
    report["telemetry"] = {
        "peak_rss_bytes": sampler.peak("process.rss_bytes"),
        "cpu_seconds": vitals.get("process.cpu_seconds"),
        "sample_ticks": sampler.ticks,
        "profile_samples": profiler.samples,
        "hot_phases": profiler.hot_phases(),
    }
    alternates = matrix_section(context)
    if alternates is not None:
        report["matrix"] = alternates
    report["space"] = space_section(context)
    if workers is None:
        workers = WORKERS_PARAMS["workers"]
    if pool_kinds is None:
        pool_kinds = WORKERS_PARAMS["pool_kinds"]
    if pool_kinds:
        # The per-request audit plane's trajectory: where a served
        # query's latency goes, per tier, at the pinned sample scale.
        report["stages"] = stage_decomposition_report(
            context.index,
            context.queries,
            sample=STAGES_PARAMS["sample"],
            timeout=context.timeout,
            limit=context.limit,
            workers=STAGES_PARAMS["workers"],
            pool_kinds=tuple(pool_kinds),
        )
    if pool_kinds:
        # The network tier's trajectory: seeded open-loop arrivals
        # against the live front-door socket, per pool kind — the
        # nominal profile for client-observed tails, the overload
        # profile to exercise (and record) the fast-reject path.
        from repro.bench.loadgen import http_load_report

        report["http"] = http_load_report(
            context.index,
            [str(query) for query in context.queries],
            pool_kinds=tuple(pool_kinds),
        )
    if workers:
        report["workers"] = service_throughput_report(
            context.index,
            context.queries,
            workers=tuple(workers),
            rounds=WORKERS_PARAMS["rounds"],
            timeout=context.timeout,
            limit=context.limit,
            cache_size=WORKERS_PARAMS["cache_size"],
            pool_kinds=tuple(pool_kinds),
            pool_workers=WORKERS_PARAMS["pool_workers"],
            burst_pending=WORKERS_PARAMS["burst_pending"],
        )
    out = Path(out_path)
    old_report = None
    if out.exists():
        try:
            old_report = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            old_report = None
    report["history"] = _carry_history(old_report)
    out.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return report


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(
        description="regenerate the BENCH_engine.json perf trajectory file"
    )
    parser.add_argument("--out", default="BENCH_engine.json",
                        help="output path (default: ./BENCH_engine.json)")
    parser.add_argument("--label", default=None,
                        help="free-form label recorded in the report meta")
    parser.add_argument("--workers", type=int, nargs="*", default=None,
                        metavar="N",
                        help="QueryService pool sizes for the throughput "
                             "section (default: %s; pass no values to "
                             "skip)" % (WORKERS_PARAMS["workers"],))
    parser.add_argument("--pool", nargs="*", default=None,
                        choices=("threads", "processes"),
                        metavar="KIND",
                        help="serving tiers for the uncached pools axis "
                             "(default: %s)" % (
                                 " ".join(WORKERS_PARAMS["pool_kinds"]),))
    args = parser.parse_args(argv)
    meta = {"label": args.label} if args.label else None
    workers = None if args.workers is None else tuple(args.workers)
    pool_kinds = None if args.pool is None else tuple(args.pool)
    report = run_trajectory(args.out, meta=meta, workers=workers,
                            pool_kinds=pool_kinds)
    overall = report["overall"]
    tails = overall["percentiles"]
    print(f"wrote {args.out}: {overall['count']} queries, "
          f"mean {overall['mean_seconds']:.4f}s "
          f"p50={tails['p50']:.4f}s p95={tails['p95']:.4f}s "
          f"p99={tails['p99']:.4f}s")
    for shape, summary in sorted(report["shapes"].items()):
        tails = summary["percentiles"]
        print(f"  {shape}: n={summary['count']} "
              f"mean={summary['mean_seconds']:.4f}s "
              f"median={summary['median_seconds']:.4f}s "
              f"p95={tails['p95']:.4f}s p99={tails['p99']:.4f}s "
              f"timeouts={summary['timeouts']}")
    telemetry = report.get("telemetry")
    if telemetry:
        peak = telemetry.get("peak_rss_bytes") or 0.0
        hot = ", ".join(
            f"{phase}={count}"
            for phase, count in list(telemetry["hot_phases"].items())[:4]
        ) or "(no samples)"
        print(f"  telemetry: peak RSS {peak / 1e6:.1f} MB, "
              f"cpu {telemetry['cpu_seconds']:.1f}s, "
              f"hot phases: {hot}")
    alternates = report.get("matrix")
    if alternates:
        router = alternates["router"]
        print(f"  router: {router['decisions']} decisions "
              f"({router['to_ring']} ring / {router['to_matrix']} matrix), "
              f"misroute rate {router['misroute_rate']:.3f}")
        for name, section in sorted(alternates["engines"].items()):
            overall = section["overall"]
            tails = overall["percentiles"]
            print(f"  {name}: mean={overall['mean_seconds']:.4f}s "
                  f"p95={tails['p95']:.4f}s p99={tails['p99']:.4f}s "
                  f"timeouts={overall['timeouts']}")
    space = report.get("space")
    if space:
        parts = []
        for key in ("ring", "matrix", "snapshot"):
            tier = space.get(key)
            if tier:
                parts.append(f"{key}={tier['bits_per_triple']:.2f}")
        print(f"  space (bits/triple over {space['n_triples']} triples): "
              + ", ".join(parts))
    history = report.get("history")
    if history:
        last = history[-1]
        mean = last.get("mean_seconds")
        mean_text = "n/a" if mean is None else f"{mean * 1e3:.2f} ms"
        print(f"  history: {len(history)} prior run(s) retained "
              f"(last: {last.get('label') or 'unlabeled'}, "
              f"mean {mean_text})")
    stages = report.get("stages")
    if stages:
        for kind in sorted(stages["tiers"]):
            tier = stages["tiers"][kind]
            top = sorted(
                tier["stages"].items(),
                key=lambda item: -item[1]["mean_seconds"],
            )[:3]
            top_txt = ", ".join(
                f"{name}={entry['share_of_e2e']:.0%}"
                for name, entry in top
            )
            print(f"  stages {kind}: e2e mean "
                  f"{tier['e2e_mean_seconds'] * 1e3:.2f}ms, "
                  f"ipc overhead {tier['ipc_overhead_share']:.0%} "
                  f"({tier['ipc_overhead_mean_seconds'] * 1e3:.2f}ms), "
                  f"top: {top_txt}")
    section = report.get("workers")
    if section:
        base = section["baseline"]
        print(f"  workers baseline (sequential, uncached): "
              f"{base['qps']:.1f} qps over {section['rounds']} rounds")
        for key in sorted(section["cached"], key=int):
            pool = section["cached"][key]
            print(f"  cached threads={pool['workers']}: "
                  f"{pool['qps']:.1f} qps "
                  f"({pool['speedup_vs_baseline']:.2f}x), "
                  f"cache hit rate {pool['cache_hit_rate']:.2f}, "
                  f"rejected={pool['rejected']}")
        for kind in sorted(section["pools"]):
            entries = section["pools"][kind]
            for key in sorted(entries, key=int):
                pool = entries[key]
                eff = pool["scaling_efficiency"]
                eff_txt = f"{eff:.2f}" if eff is not None else "n/a"
                print(f"  uncached {kind}={pool['workers']}: "
                      f"{pool['qps']:.1f} qps, "
                      f"scaling efficiency {eff_txt}")
        burst = section.get("burst")
        if burst:
            print(f"  burst (open-loop, max_pending="
                  f"{burst['max_pending']}): {burst['offered']} offered, "
                  f"{burst['accepted']} accepted, "
                  f"{burst['rejected']} rejected")
    http_section = report.get("http")
    if http_section:
        for kind in sorted(http_section["tiers"]):
            tier = http_section["tiers"][kind]
            for name in sorted(tier):
                profile = tier[name]
                tails = profile["latency_seconds"]
                tail_txt = (
                    f"p50={tails['p50'] * 1e3:.1f}ms "
                    f"p99={tails['p99'] * 1e3:.1f}ms"
                    if tails else "no accepted requests"
                )
                print(f"  http {kind}/{name}: "
                      f"offered={profile['offered']} "
                      f"accepted={profile['accepted']} "
                      f"rejected={profile['rejected']} "
                      f"qps={profile['qps']:.1f} {tail_txt}")


if __name__ == "__main__":
    main()
