#!/usr/bin/env python3
"""Compare two sets of benchmark results, one row per workload × metric.

    python3 benchmarks/e2e/compare.py PARENT.json... -- CHANGE.json...

Each file is a ``run.py --out`` result; the i-th parent file is paired
with the i-th change file (run them alternately, at least ten pairs,
same seed and ``--seconds`` on both sides).  Every row gives both
medians with their quartiles, the ratio with its base, the bound from
``BENCHMARK.json`` and a verdict:

* ``regressed``  — the change's median is worse than the parent's by
  more than the bound;
* ``improved``   — at least ten pairs were run, the change wins at
  least nine tenths of them (ties count for neither side) and the
  medians differ by more than the distance between the parent's own
  quartiles;
* ``unresolved`` — neither, and a side's quartile spread is wider than
  the bound, so "no regression" cannot be told from noise;
* ``unchanged``  — none of the above.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    sign = -1.0 if better == "lower" else 1.0   # > 0 means change is better
    p1, p_mid, p3 = quartiles(parent)
    c1, c_mid, c3 = quartiles(change)
    gain = sign * (c_mid - p_mid)
    if -gain > bound * abs(p_mid):
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved"
    spread = max((p3 - p1) / abs(p_mid) if p_mid else 0.0,
                 (c3 - c1) / abs(c_mid) if c_mid else 0.0)
    return "unresolved" if spread > bound else "unchanged"


def _values(files: list[str]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for path in files:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        for workload, runs in result["workloads"].items():
            metrics = runs.get("end_to_end", {}).get("metrics", {})
            for name, metric in metrics.items():
                out.setdefault((workload, name), []).append(metric["value"])
    return out


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent, change = _values(argv[:cut]), _values(argv[cut + 1:])
    with open(BENCHMARK, encoding="utf-8") as handle:
        declared = {m["name"]: m for m in json.load(handle)["end_to_end"]}

    print(f"{'workload':16s} {'metric':22s} {'parent q1/median/q3':>32s} "
          f"{'change q1/median/q3':>32s} {'change/parent':>24s} "
          f"{'bound':>6s}  verdict")
    regressed = False
    for (workload, name), before in parent.items():
        after = change.get((workload, name))
        if not after or name not in declared:
            continue
        n = min(len(before), len(after))
        before, after = before[:n], after[:n]
        meta = declared[name]
        p, c = quartiles(before), quartiles(after)
        base = f"{c[1] / p[1]:.3f} of {p[1]:.4g} {meta['unit']}" if p[1] \
            else "n/a"
        row = verdict(before, after, meta["better"], meta["bound"])
        regressed |= row == "regressed"
        print(f"{workload:16s} {name:22s} "
              f"{'/'.join(f'{v:.4g}' for v in p):>32s} "
              f"{'/'.join(f'{v:.4g}' for v in c):>32s} {base:>24s} "
              f"{meta['bound']:>6.2f}  {row} ({n} pairs)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
