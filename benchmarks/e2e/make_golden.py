#!/usr/bin/env python3
"""Regenerate ``golden/seed0.json``: the expected answer of every
request of every workload at seed 0.

Run it after a change to ``inputs.py`` or ``spec.py`` (anything that
moves the generated graph or query strings), never to make a failing
benchmark pass.  Expectations come from the brute-force oracle of
``repro.testing``; each is cross-checked against the ring, matrix and
product-BFS engines before the file is written, so one wrong engine
cannot bless itself.  About 15 minutes on two cores.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import check  # noqa: E402
import host  # noqa: E402
import inputs  # noqa: E402
from measure import answer_of  # noqa: E402
from run import build_requests  # noqa: E402
from spec import GRAPH, LIMIT, TIMEOUT_S, WORKLOADS  # noqa: E402

_worker: dict = {}


def _prepare(graph_path: str) -> None:
    """Per worker process: the oracle and the three engines."""
    from repro import RingIndex
    from repro.baselines import make_engine
    from repro.graph.io import load_graph

    index = RingIndex.from_graph(load_graph(graph_path))
    _worker["oracle"] = check.Oracle(graph_path)
    _worker["engines"] = {name: make_engine(name, index)
                          for name in ("ring", "matrix", "product-bfs")}


def _expect(key: str) -> tuple[str, list, str | None]:
    """``(key, expectation, objection)``; an objection names the engine
    that disagrees with the oracle."""
    expected = _worker["oracle"].expectation(key)
    for name, engine in _worker["engines"].items():
        result = engine.evaluate(key, timeout=TIMEOUT_S, limit=LIMIT)
        why = check.mismatch(answer_of(result), expected)
        if why:
            return key, expected, f"{name}: {why}"
    return key, expected, None


def main() -> int:
    triples = inputs.make_graph(0, **GRAPH)
    keys = {w.name: sorted({r.key for r in
                            build_requests(w, triples, 0, smoke=False)})
            for w in WORKLOADS.values()}
    distinct = sorted(set().union(*keys.values()))
    known: dict[str, list] = {}
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        graph_path = Path(work) / "G.nt"
        inputs.write_triples(triples, graph_path)
        with ProcessPoolExecutor(
            max_workers=host.usable_cores(),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_prepare, initargs=(str(graph_path),),
        ) as pool:
            answers = pool.map(_expect, distinct, chunksize=8)
            for done, (key, expected, objection) in enumerate(answers, 1):
                if objection:
                    print(f"{key}: {objection}", file=sys.stderr)
                    return 1
                known[key] = expected
                if done % 500 == 0:
                    print(f"{done}/{len(distinct)}", flush=True)

    check.GOLDEN.parent.mkdir(exist_ok=True)
    with open(check.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump({name: {key: known[key] for key in workload_keys}
                   for name, workload_keys in keys.items()},
                  handle, separators=(",", ":"), sort_keys=True)
    print(f"wrote {check.GOLDEN}: {len(distinct)} distinct queries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
