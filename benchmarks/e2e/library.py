"""The library path: query strings through ``RingRPQEngine.evaluate``.

Every set-up and the measured pass run in fresh interpreters
(``inproc.py``); this side only starts them, times interpreter start →
``READY``, and reads back the result file.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from measure import median, ratio

HERE = Path(__file__).resolve().parent


def _start(job_path: Path) -> tuple[subprocess.Popen, float]:
    """Start one runner; returns it with its set-up time in seconds."""
    begun = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "inproc.py"), str(job_path)],
        stdout=subprocess.PIPE, text=True, cwd=HERE,
    )
    line = child.stdout.readline()
    setup = time.perf_counter() - begun
    child.stdout.close()
    if line.strip() != "READY":
        child.wait()
        raise RuntimeError(f"runner exited {child.returncode} before READY")
    return child, setup


def run(ctx) -> dict:
    """Run one library workload; ``ctx`` is ``run.Context``."""
    job = {
        "src": str(ctx.src), "graph": str(ctx.graph_path),
        "workload": ctx.workload.name,
        "requests": [r.text for r in ctx.requests],
        "timeout": ctx.timeout, "limit": ctx.limit,
        "seconds": ctx.seconds, "trace": ctx.trace,
        "trace_file": str(ctx.trace_file),
        "result": str(ctx.work / "result.json"), "setup_only": False,
    }
    setup_job, run_job = ctx.work / "setup.json", ctx.work / "job.json"
    setup_job.write_text(json.dumps({**job, "setup_only": True}))
    run_job.write_text(json.dumps(job))

    setups = []
    for _ in range(ctx.setups - 1):
        child, setup = _start(setup_job)
        setups.append(setup)
        child.wait()
    child, setup = _start(run_job)
    setups.append(setup)
    if child.wait() != 0:
        raise RuntimeError(f"runner exited {child.returncode}")
    with open(job["result"], encoding="utf-8") as handle:
        out = json.load(handle)

    measured = {
        "setups": setups,
        "answers": out["answers"],
        "passes": out.get("passes", []),
        "index_bits_per_triple": out["index_bytes"] * 8 / out["triples"],
        "peak_rss_mb": out["peak_rss_mib"],
    }
    if ctx.trace:
        measured["attempted_extra"] = 2 * out["traced_requests"]
        measured["layer"] = _layer_metrics(out)
    return measured


def _layer_metrics(out: dict) -> dict[str, float]:
    queries = out["traced_requests"]
    c, flags, totals = out["counters"], out["flags"], out["totals"]
    shares = out["shares"]

    def per_query(name: str) -> float:
        return c.get(name, 0) / queries

    def mean_us(name: str, per_item: bool = False) -> float:
        seconds, calls, size = totals[name]
        return ratio(seconds * 1e6, size if per_item else calls)

    pruned = c.get("lp_pruned", 0) + c.get("ls_pruned", 0)
    visited = c.get("lp_nodes", 0) + c.get("ls_nodes", 0)
    return {
        "automata.parse_us_p50":
            median(out["durations"]["automata.parse"]) * 1e6,
        "automata.glushkov_us_p50":
            median(out["durations"]["automata.glushkov"]) * 1e6,
        "automata.states_mean": flags["states"] / queries,
        "automata.self_share": shares.get("automata", 0.0),
        "core.self_share": shares.get("core", 0.0),
        "core.prepare_hit_ratio":
            ratio(c.get("prepare_cache_hits", 0), c.get("prepares", 0)),
        "core.backward_steps_per_query": per_query("backward_steps"),
        "core.product_nodes_per_query": per_query("product_nodes"),
        "core.subqueries_per_query": per_query("subqueries"),
        "core.ops_per_result":
            ratio(c.get("storage_ops", 0), flags["results"]),
        "core.timed_out": flags["timed_out"],
        "core.truncated": flags["truncated"],
        "ring.backward_step_us": mean_us("ring.backward_step"),
        "ring.backward_step_calls_per_query":
            totals["ring.backward_step"][1] / queries,
        "ring.object_range_us": mean_us("ring.object_range"),
        "ring.backward_step_many_us_per_range":
            mean_us("ring.backward_step_many", per_item=True),
        "ring.object_ranges_many_us_per_node":
            mean_us("ring.object_ranges_many", per_item=True),
        "ring.self_share": shares.get("ring", 0.0),
        "succinct.rank_ops_per_query": per_query("rank_ops"),
        "succinct.wavelet_nodes_per_query": per_query("wavelet_nodes"),
        "succinct.prune_ratio": ratio(pruned, pruned + visited),
        "succinct.rank1_many_ns_per_pos":
            mean_us("succinct.rank1_many_words", per_item=True) * 1e3,
        "succinct.self_share": shares.get("succinct", 0.0),
        "obs.trace_overhead_ratio":
            ratio(out["traced_wall"], out["untraced_wall"]),
    }
