"""Quickstart: the paper's running example, end to end.

Builds the ring index over the Santiago transport graph (Fig. 1 of the
paper), then evaluates the worked-example queries of §1 and §4 — metro
reachability, the ``l5+/bus`` trip query, inverse paths and boolean
checks — printing answers and evaluation statistics.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import RingIndex
from repro.graph import santiago_transport
from repro.graph.datasets import SANTIAGO_STATION_NAMES


def show(title: str, result) -> None:
    print(f"\n{title}")
    for s, o in result:
        print(f"  {s:>4} → {o:<4}   ({SANTIAGO_STATION_NAMES[s]} → "
              f"{SANTIAGO_STATION_NAMES[o]})")
    stats = result.stats
    print(f"  [{len(result)} answer(s); {stats.product_nodes} product-graph "
          f"node visits, {stats.wavelet_nodes} wavelet nodes, "
          f"{stats.elapsed * 1000:.2f} ms]")


def main() -> None:
    graph = santiago_transport()
    print(f"graph: {len(graph)} edges over {len(graph.nodes)} stations "
          f"({len(graph.completion())} after completion)")

    index = RingIndex.from_graph(graph)
    ring_bytes = index.ring.measure().nbytes
    print(f"ring index: {ring_bytes} bytes "
          f"({ring_bytes / len(index.ring):.1f} bytes/triple)")

    # §1: stations reachable by metro (one or more hops on any line).
    show(
        "Metro reachability — (?x, (l1|l2|l5)+, ?y):",
        index.evaluate("(?x, (l1|l2|l5)+, ?y)"),
    )

    # §4 running example: ride line 5 from Baquedano, then one bus.
    show(
        "Line 5 then a bus — (Baq, l5+/bus, ?y):",
        index.evaluate("(Baq, l5+/bus, ?y)"),
    )

    # The same query in its reversed two-way form (what the engine
    # actually runs internally).
    show(
        "Reversed form — (?x, ^bus/l5*/l5, Baq):",
        index.evaluate("(?x, ^bus/l5*/l5, Baq)"),
    )

    # Boolean query: is Santa Ana reachable that way?
    hit = index.evaluate("(Baq, l5+/bus, SA)")
    print(f"\n(Baq, l5+/bus, SA) → {'yes' if hit else 'no'}")
    miss = index.evaluate("(Baq, l5+/bus, LH)")
    print(f"(Baq, l5+/bus, LH) → {'yes' if miss else 'no'}")

    # A negated property set: reach BA without using line 5.
    show(
        "Avoid line 5 — (?x, !(l5)+, BA):",
        index.evaluate("(?x, !(l5)+, BA)"),
    )


if __name__ == "__main__":
    main()
