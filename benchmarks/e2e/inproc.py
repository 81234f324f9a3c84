"""Runner of the library workloads, one fresh interpreter per run.

Started by ``library.py`` as ``python inproc.py JOB.json``.  It imports
the program, loads the triple file through the public loader, builds
the index, prints ``READY`` (the parent times interpreter start → that
line as ``setup_s``) and then, unless the job is set-up only, evaluates
the job's query strings through ``RingRPQEngine.evaluate`` and writes
what it measured to the job's result file.
"""

from __future__ import annotations

import json
import os
import sys
import time

from measure import answer_of, enough_passes, peak_rss_mib
from tracing import Tracer


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src"])
    from repro import RingIndex
    from repro.graph.io import load_graph

    index = RingIndex.from_graph(load_graph(job["graph"]))
    engine = index.engine
    print("READY", flush=True)
    if job["setup_only"]:
        return 0

    budget = {"timeout": job["timeout"], "limit": job["limit"]}
    texts = job["requests"]
    out = {
        "triples": len(index.ring),
        "index_bytes": index.ring.measure().nbytes,
        # The check pass: every answer digested, caches warm afterwards.
        "answers": [_answer(engine, text, budget) for text in texts],
    }
    if job["trace"]:
        out.update(_traced(engine, texts[:max(1, len(texts) // 4)],
                           budget, job["trace_file"], job["workload"]))
    else:
        out["passes"] = _timed(engine, texts, budget, job["seconds"])
    out["peak_rss_mib"] = peak_rss_mib([os.getpid()])
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


def _answer(engine, text: str, budget: dict) -> dict:
    try:
        result = engine.evaluate(text, **budget)
    except Exception as exc:  # noqa: BLE001 - a failure is a data point
        return {"error": f"{type(exc).__name__}: {exc}"}
    return answer_of(result)


def _timed(engine, texts, budget, seconds: float) -> list[dict]:
    """Whole passes over ``texts`` for about ``seconds``; per pass the
    wall and CPU time, each request's latency and its answer size."""
    evaluate, clock = engine.evaluate, time.perf_counter
    passes: list[dict] = []
    begun = clock()
    while True:
        latency, sizes = [], []
        cpu, start = time.process_time(), clock()
        for text in texts:
            sent = clock()
            try:
                result = evaluate(text, **budget)
                size = (-1 if result.stats.timed_out else len(result.pairs))
            except Exception:  # noqa: BLE001 - counted as a failure
                size = -1
            latency.append(clock() - sent)
            sizes.append(size)
        passes.append({"wall": clock() - start,
                       "cpu": time.process_time() - cpu,
                       "latency": latency, "sizes": sizes})
        if enough_passes(clock() - begun, len(passes), seconds):
            return passes


def _traced(engine, texts, budget, trace_file: str, workload: str) -> dict:
    """The traced pass over the first quarter of the requests, after an
    untraced pass over the same quarter (their ratio is the tracing
    overhead).  Returns span-derived timings and the summed counters
    the public ``QueryStats.operation_counts()`` already exposes."""
    import repro.core.batchrun as batchrun
    import repro.core.engine as core_engine
    import repro.succinct.bitvector as bitvector
    import repro.succinct.wavelet_matrix as wavelet_matrix
    from repro.core.query import RPQ
    from repro.ring.ring import Ring

    clock = time.perf_counter
    start = clock()
    for text in texts:
        engine.evaluate(text, **budget)
    untraced_wall = clock() - start

    tracer = Tracer()
    tracer.wrap(type(engine), "evaluate", "core.evaluate")
    tracer.wrap(RPQ, "parse", "automata.parse")
    tracer.wrap(core_engine, "build_glushkov", "automata.glushkov")
    tracer.wrap(Ring, "backward_step", "ring.backward_step")
    tracer.wrap(Ring, "object_range", "ring.object_range")
    tracer.wrap(Ring, "backward_step_many", "ring.backward_step_many",
                size=lambda args: len(args[1]))
    tracer.wrap(Ring, "object_ranges_many", "ring.object_ranges_many",
                size=lambda args: len(args[1]))
    tracer.wrap(wavelet_matrix.WaveletMatrix, "rank_pair_many",
                "succinct.wm_rank_pair_many", size=lambda args: len(args[2]))
    # rank1_many_words is bound by name in each module that calls it
    for module in (batchrun, wavelet_matrix, bitvector):
        tracer.wrap(module, "rank1_many_words", "succinct.rank1_many_words",
                    size=lambda args: len(args[3]))

    counters: dict[str, int] = {}
    flags = {"timed_out": 0, "truncated": 0, "results": 0, "states": 0}
    start = clock()
    try:
        for request, text in enumerate(texts):
            tracer.request = request
            result = engine.evaluate(text, **budget)
            stats = result.stats
            for name, value in stats.operation_counts().items():
                counters[name] = counters.get(name, 0) + value
            flags["timed_out"] += stats.timed_out
            flags["truncated"] += stats.truncated
            flags["results"] += len(result.pairs) + 1
            flags["states"] += stats.nfa_states
    finally:
        traced_wall = clock() - start
        tracer.unwrap_all()

    tracer.dump(trace_file, workload=workload, requests=len(texts),
                untraced_wall=untraced_wall, traced_wall=traced_wall)
    return {
        "traced_requests": len(texts),
        "untraced_wall": untraced_wall,
        "traced_wall": traced_wall,
        "counters": counters,
        "flags": flags,
        "shares": tracer.layer_self_shares(),
        "durations": {name: tracer.durations(name)
                      for name in ("automata.parse", "automata.glushkov")},
        "totals": {name: tracer.total(name) for name in (
            "ring.backward_step", "ring.object_range",
            "ring.backward_step_many", "ring.object_ranges_many",
            "succinct.rank1_many_words")},
    }


if __name__ == "__main__":
    sys.exit(main())
