#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py                       # all workloads
    python3 benchmarks/e2e/run.py --workload anchored --seed 3 \
        --seconds 10 --trace 0                          # what the driver runs

Inputs (a triple file, query strings) are generated from ``--seed`` and
are all the program under test receives.  With ``--workload`` one
workload runs — the program in fresh interpreters of its own — every
answer is checked, every metric is printed with its unit, and the last
line of standard output is one JSON object.  ``--trace 0`` measures the
end-to-end metrics with no instrumentation installed; ``--trace 1`` is
the separate traced run that yields the per-layer metrics.  Without
``--workload`` every workload is run both ways, each in its own
interpreter, and ``--out`` collects the results with the host's
description.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import host  # noqa: E402
import inputs  # noqa: E402
from measure import (  # noqa: E402
    end_descendants,
    median,
    per_request_median,
    percentile,
)
from spec import (  # noqa: E402
    END_TO_END,
    GRAPH,
    LIMIT,
    PER_LAYER,
    RUN_SECONDS,
    SETUPS,
    SMOKE_GRAPH,
    TIMEOUT_S,
    WORKLOADS,
)

Request = collections.namedtuple("Request", "key text")


def build_requests(workload, triples, seed: int, smoke: bool) -> list[Request]:
    """The workload's request list: ``key`` is the canonical query text
    answers are checked under, ``text`` is what is sent."""
    rng = random.Random(f"{workload.name}-{seed}")
    keep = {"anchored": inputs.is_anchored_row,
            "var2var": lambda row: not inputs.is_anchored_row(row),
            "all": lambda row: True}[workload.rows]
    log = inputs.QueryLogGenerator(triples, rng).log(
        workload.smoke_scale if smoke else workload.scale, keep)
    stream = workload.smoke_stream if smoke else workload.stream
    if not stream:
        return [Request(q.text, q.text) for q in log]
    log = inputs.by_pattern_share(log)
    seen: collections.Counter = collections.Counter()
    requests = []
    for i in inputs.zipf_stream(len(log), stream, rng):
        seen[i] += 1
        repeat = seen[i] - 1
        fourth = repeat > 0 and repeat % 4 == 0
        requests.append(Request(
            log[i].text, inputs.respell(log[i]) if fourth else log[i].text))
    return requests


class Context:
    """One run: its inputs on disk, its settings, its scratch space."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 smoke: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.smoke = trace, smoke
        self.src = SRC
        self.timeout, self.limit = TIMEOUT_S, LIMIT
        self.setups = 1 if smoke else SETUPS
        self.work = HERE / "_work" / f"{workload.name}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.trace_file = HERE / "_work" / f"trace-{workload.name}.json"
        self.graph_path = self.work / "G.nt"
        triples = inputs.make_graph(seed, **(SMOKE_GRAPH if smoke else GRAPH))
        inputs.write_triples(triples, self.graph_path)
        self.requests = build_requests(workload, triples, seed, smoke)
        probe_log = inputs.QueryLogGenerator(
            triples, random.Random(f"probe-queries-{seed}")).log(0.15)
        self.probe_anchored = [q.text for q in probe_log if q.anchored]
        self.probe_var2var = [q.text for q in probe_log if not q.anchored]

    def __enter__(self) -> "Context":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def verify(ctx: Context, measured: dict) -> list[str]:
    """One line per failed request: wrong, missing, errored or timed-out
    answers of the check pass, and timed replies sized differently."""
    keys = [r.key for r in ctx.requests]
    golden = ctx.seed == 0 and not ctx.smoke
    expected = check.expectations(
        ctx.workload.name, ctx.seed, ctx.smoke, keys, ctx.graph_path)
    problems = check.failures(keys, measured["answers"], expected, golden)
    for number, one in enumerate(measured["passes"], start=1):
        for key, answer, size in zip(keys, measured["answers"], one["sizes"]):
            if size != answer.get("n"):
                problems.append(f"pass {number}: {key}: {size} results, "
                                f"check pass had {answer.get('n')}")
    return problems


def end_to_end(ctx: Context, measured: dict) -> tuple[dict, list[str]]:
    passes = measured["passes"]
    n = len(ctx.requests)
    latency = sorted(per_request_median([p["latency"] for p in passes]))
    slowest = latency[int(n * 0.95):]
    metrics = {
        "setup_s": median(measured["setups"]),
        "latency_p50_ms": percentile(latency, 0.50) * 1e3,
        "latency_slowest5pct_ms": statistics.fmean(slowest) * 1e3,
        "throughput_qps": n / median([p["wall"] for p in passes]),
        "cpu_ms_per_query": median([p["cpu"] for p in passes]) / n * 1e3,
        "index_bits_per_triple": measured["index_bits_per_triple"],
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    notes = [f"samples: {n} requests x {len(passes)} passes = "
             f"{n * len(passes)}; a request's latency is its median over "
             f"the passes; the slowest 5% are {len(slowest)} requests",
             f"latency_p95_ms (informational) "
             f"{percentile(latency, 0.95) * 1e3:.4f} ms"]
    if n >= 1000:
        notes.append("latency_p99_ms (informational) "
                     f"{percentile(latency, 0.99) * 1e3:.4f} ms")
    return metrics, notes


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    if workload.kind == "wire" and host.usable_cores() < 2:
        print(f"{workload.name}: refusing to measure a server and its load "
              "generator on one core; the numbers would mean nothing",
              file=sys.stderr)
        return 3
    import library
    import probes
    import wire

    with Context(workload, args.seed, args.seconds, bool(args.trace),
                 args.smoke) as ctx:
        runner = library if workload.kind == "library" else wire
        measured = runner.run(ctx)
        problems = verify(ctx, measured)
        attempted = (len(ctx.requests) * (1 + len(measured["passes"]))
                     + measured.get("attempted_extra", 0))
        if ctx.trace:
            values = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
            values.update(measured["layer"])
            values.update(probes.run(ctx))
            units, notes = dict(PER_LAYER), [f"spans: {ctx.trace_file}"]
        else:
            values, notes = end_to_end(ctx, measured)
            units = dict(END_TO_END)

    print(f"# workload {workload.name}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}"
          f"{'  smoke' if args.smoke else ''}")
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>16.6g} {unit}")
    print(f"{'failed_share':40s} {len(problems) / attempted:>16.6g} ratio"
          f"   ({len(problems)} of {attempted} attempted)")
    for note in notes:
        print(f"# {note}")
    for problem in problems[:20]:
        print(f"# FAILED {problem}")
    result = {
        "correct": not problems, "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if args.out:
        _write_out(args, {workload.name: {
            "per_layer" if args.trace else "end_to_end": result}})
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    collected: dict = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                return done.returncode
            collected.setdefault(name, {})[
                "per_layer" if trace else "end_to_end"
            ] = json.loads(done.stdout.splitlines()[-1])
    if args.out:
        _write_out(args, collected)
    return 0


def _write_out(args, workloads: dict) -> None:
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({
            "benchmark": "e2e", "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "host": host.describe(),
            "workloads": workloads,
        }, handle, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the timed phase "
                             f"(default {RUN_SECONDS}, smoke 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graph and request lists, one set-up")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the results, with the host's "
                             "description, as JSON")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1 if args.smoke else RUN_SECONDS
    if not (SRC / "repro").is_dir():
        print(f"the program under test is not at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run leaves through the same finally blocks
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run_one(args) if args.workload else run_all(args)
    finally:
        end_descendants()


if __name__ == "__main__":
    sys.exit(main())
