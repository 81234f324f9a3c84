"""Answer checking: committed goldens for seed 0, live oracle otherwise.

An *expectation* is ``[n_results, crc32 of the sorted pairs, truncated]``
as the brute-force oracle of :mod:`repro.testing` gives it under the
benchmark's result limit.  A truncated answer is checked by count and
flag only: which ``limit`` pairs a backend returns is its own business.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from measure import digest
from spec import LIMIT, ORACLE_SAMPLE

GOLDEN = Path(__file__).resolve().parent / "golden" / "seed0.json"


class Oracle:
    """The brute-force product-graph oracle over one triple file."""

    def __init__(self, graph_path):
        from repro.graph.io import load_graph
        from repro.testing import brute_force_rpq

        self._evaluate = brute_force_rpq
        self._graph = load_graph(graph_path)
        self._completed = self._graph.completion()

    def expectation(self, text: str) -> list:
        pairs = self._evaluate(self._graph, text, self._completed)
        return [min(len(pairs), LIMIT), digest(pairs), len(pairs) >= LIMIT]


def expectations(workload: str, seed: int, smoke: bool, keys: list[str],
                 graph_path) -> dict[str, list]:
    """What to hold the answers against: every key for seed 0 (from the
    golden file), a seeded sample of the keys for any other input."""
    if seed == 0 and not smoke:
        with open(GOLDEN, encoding="utf-8") as handle:
            return json.load(handle)[workload]
    distinct = sorted(set(keys))
    sample = random.Random(f"oracle-{workload}-{seed}").sample(
        distinct, min(ORACLE_SAMPLE, len(distinct)))
    oracle = Oracle(graph_path)
    return {key: oracle.expectation(key) for key in sample}


def mismatch(answer: dict, expected: list) -> str | None:
    """Why ``answer`` fails ``expected``, or ``None`` when it holds."""
    if "error" in answer:
        return answer["error"]
    if answer["timed_out"]:
        return "timed out"
    n, crc, truncated = expected
    if answer["n"] != n or bool(answer["truncated"]) != truncated:
        return (f"got {answer['n']} results (truncated="
                f"{answer['truncated']}), expected {n} ({truncated})")
    if not truncated and answer["crc"] != crc:
        return f"{n} results but crc {answer['crc']} != {crc}"
    return None


def failures(keys: list[str], answers: list[dict],
             expected: dict[str, list], must_cover: bool) -> list[str]:
    """One line per failed answer.  Errors and timeouts always fail;
    ``must_cover`` makes a key without an expectation a failure too."""
    out = []
    for key, answer in zip(keys, answers):
        if key in expected:
            why = mismatch(answer, expected[key])
        elif "error" in answer or answer["timed_out"]:
            why = answer.get("error", "timed out")
        elif must_cover:
            why = "no golden for this query (regenerate the goldens)"
        else:
            why = None
        if why:
            out.append(f"{key}: {why}")
    return out
