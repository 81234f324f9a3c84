"""Advanced features tour: the APIs beyond plain RPQ evaluation.

Demonstrates, on a small social/org graph:

* ``engine.explain()`` — see the evaluation strategy before running;
* ``forbidden_nodes`` — the §6 node-constraint extension;
* triple-pattern lookup on the ring (``index.match_pattern``);
* Leapfrog-style seekable relations and a mixed star join (§6);
* index persistence (a memory-mapped ``RPQSNAP1`` snapshot file).

Run with::

    python examples/advanced_features.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import Graph, RingIndex
from repro.core.leapfrog import (
    RPQRelation,
    TriplePatternRelation,
    join_subjects,
)
from repro.ring.snapshot import load_snapshot, save_snapshot


def build_org_graph() -> Graph:
    """A small company: reporting lines, teams and friendships."""
    return Graph([
        ("ana", "reportsTo", "boris"),
        ("boris", "reportsTo", "carla"),
        ("dmitri", "reportsTo", "carla"),
        ("elena", "reportsTo", "dmitri"),
        ("fred", "reportsTo", "elena"),
        ("ana", "memberOf", "search"),
        ("boris", "memberOf", "search"),
        ("dmitri", "memberOf", "infra"),
        ("elena", "memberOf", "infra"),
        ("fred", "memberOf", "infra"),
        ("ana", "friendOf", "elena"),
        ("elena", "friendOf", "ana"),
        ("boris", "friendOf", "fred"),
    ], symmetric_predicates=("friendOf",))


def main() -> None:
    graph = build_org_graph()
    index = RingIndex.from_graph(graph)
    print(f"org graph: {len(graph)} edges, {len(graph.nodes)} nodes\n")

    # -- explain -------------------------------------------------------
    for query in ["(?x, reportsTo+, carla)",
                  "(?x, reportsTo/memberOf, ?y)",
                  "(?x, memberOf, ?y)"]:
        plan = index.engine.explain(query)
        print(f"explain {query}")
        print(f"   shape={plan['shape']} nfa_states={plan['nfa_states']} "
              f"-> {plan['strategy']}")

    # -- transitive query with a node constraint ------------------------
    chain = index.evaluate("(?x, reportsTo+, carla)")
    print(f"\nreports to carla (transitively): {sorted(chain.subjects())}")
    without = index.evaluate(
        "(?x, reportsTo+, carla)", forbidden_nodes=["dmitri"]
    )
    print("  ... with dmitri on leave (paths may not pass through him): "
          f"{sorted(without.subjects())}")

    # -- triple patterns -------------------------------------------------
    print("\ninfra team (match_pattern ?, memberOf, infra):")
    for s, _, _ in index.match_pattern(None, "memberOf", "infra"):
        print(f"  {s}")

    # -- leapfrog star join ----------------------------------------------
    managers = RPQRelation(index, "^reportsTo")        # has a report
    infra = TriplePatternRelation(index, "memberOf", "infra")
    ids = join_subjects([managers, infra])
    names = [index.dictionary.node_label(i) for i in ids]
    print(f"\nmanagers inside infra (leapfrog join): {names}")

    # -- persistence ------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "org.ring.snap"
        save_snapshot(index, path)
        restored = load_snapshot(path)
        again = restored.evaluate("(?x, reportsTo+, carla)")
        assert again.pairs == chain.pairs
        print(f"\nindex saved+reloaded from {path.name}: "
              f"{path.stat().st_size} bytes, answers identical")


if __name__ == "__main__":
    main()
