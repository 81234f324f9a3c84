"""Knowledge-graph scenario: taxonomy queries on a Wikidata-like graph.

Generates a synthetic knowledge graph whose structure mirrors
Wikidata's (Zipf-popular predicates, a deep ``subclass of`` hierarchy
``p0``, ``instance of`` edges ``p1``, hub entities), then runs the RPQ
shapes that dominate real query logs:

* the classic *instance-of/subclass-of-star* pattern ``p1/p0*``
  (SPARQL's ``wdt:P31/wdt:P279*``),
* hierarchy ancestors/descendants with ``p0+`` and ``^p0+``,
* cross-checking the ring engine against the baseline engines.

Run with::

    python examples/knowledge_graph.py
"""

from __future__ import annotations

import time

from repro import RingIndex
from repro.baselines import all_engines
from repro.graph.generators import wikidata_like


def main() -> None:
    graph = wikidata_like(
        n_nodes=2_000, n_edges=12_000, n_predicates=32, seed=42
    )
    print(f"synthetic KG: {len(graph)} edges, {len(graph.nodes)} entities, "
          f"{len(graph.predicates)} predicates")

    started = time.monotonic()
    index = RingIndex.from_graph(graph)
    print(f"ring built in {time.monotonic() - started:.2f}s "
          f"({index.ring.measure().nbytes / len(index.ring):.1f} "
          "bytes/triple)")

    # Pick a class with a rich subtree: the root of the p0 hierarchy.
    root = "n0"

    # All classes below the root (descendants along ^subclass-of).
    descendants = index.evaluate(f"(?x, p0+, {root})")
    print(f"\nclasses with '{root}' as an ancestor: {len(descendants)}")

    # All instances of the root class or any subclass: P31/P279*.
    instances = index.evaluate(f"(?x, p1/p0*, {root})")
    print(f"instances of '{root}' (transitively): {len(instances)}")
    stats = instances.stats
    print(f"  product nodes={stats.product_nodes} "
          f"edges={stats.product_edges} "
          f"wavelet nodes={stats.wavelet_nodes} "
          f"time={stats.elapsed * 1000:.1f} ms")

    # Two-way query: siblings = up one hierarchy step, then down one.
    siblings = index.evaluate("(n5, p0/^p0, ?y)")
    print(f"hierarchy siblings of n5: {sorted(siblings.objects())[:10]}")

    # Cross-check every engine of the paper's Table 2 on one query.
    print("\ncross-checking all engines on (?x, p1/p0*, n0):")
    engines = all_engines(index)
    answers = {}
    for name, engine in engines.items():
        result = engine.evaluate(f"(?x, p1/p0*, {root})", timeout=30)
        answers[name] = result.pairs
        print(f"  {name:<22} {len(result):>6} answers "
              f"in {result.stats.elapsed * 1000:8.1f} ms "
              f"({result.stats.storage_ops:>8} storage ops)")
    reference = answers["ring"]
    if all(pairs == reference for pairs in answers.values()):
        print("all engines agree")
    else:
        print("ENGINES DISAGREE — this is a bug")


if __name__ == "__main__":
    main()
