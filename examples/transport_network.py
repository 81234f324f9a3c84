"""Transport-network scenario: route planning with two-way RPQs.

Builds a synthetic city transport network — several metro lines laid
out as station chains, plus directed bus hops between random stations
— and answers routing questions with 2RPQs:

* which stations are reachable using metro only;
* trips of the shape "metro, then at most one bus";
* trips that *end* at a target using inverse labels;
* line-interchange stations found with a range intersection pattern.

Run with::

    python examples/transport_network.py [--lines N] [--stations M]
"""

from __future__ import annotations

import argparse
import random

from repro import RingIndex
from repro.graph.model import Graph


def build_network(n_lines: int, stations_per_line: int,
                  n_bus: int, seed: int) -> Graph:
    """Metro lines as bidirectional chains + directed bus hops."""
    rng = random.Random(seed)
    triples = []
    all_stations = []
    for line in range(n_lines):
        label = f"line{line + 1}"
        stations = [f"L{line + 1}S{i}" for i in range(stations_per_line)]
        # every line crosses the centre: splice in a shared hub station
        stations[stations_per_line // 2] = "Center"
        all_stations.extend(stations)
        for a, b in zip(stations, stations[1:]):
            triples.append((a, label, b))
            triples.append((b, label, a))
    for _ in range(n_bus):
        a, b = rng.sample(all_stations, 2)
        triples.append((a, "bus", b))
    lines = tuple(f"line{i + 1}" for i in range(n_lines))
    return Graph(triples, symmetric_predicates=lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lines", type=int, default=4)
    parser.add_argument("--stations", type=int, default=9)
    parser.add_argument("--bus", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    graph = build_network(args.lines, args.stations, args.bus, args.seed)
    index = RingIndex.from_graph(graph)
    metro = "|".join(f"line{i + 1}" for i in range(args.lines))
    print(f"network: {len(graph)} edges, {len(graph.nodes)} stations; "
          f"index {index.ring.measure().nbytes} bytes")

    start = "L1S0"
    by_metro = index.evaluate(f"({start}, ({metro})+, ?y)")
    print(f"\nstations reachable from {start} by metro: "
          f"{len(by_metro)} (all lines connect via Center)")

    one_bus = index.evaluate(f"({start}, ({metro})*/bus/({metro})*, ?y)")
    print(f"reachable with exactly one bus hop: {len(one_bus)}")

    # Inverse query: from where can we REACH the Center with one line?
    into_center = index.evaluate(f"(?x, ({metro})+, Center)")
    print(f"stations that can reach Center by metro: {len(into_center)}")

    # Stations adjacent to two different lines (interchange-like):
    # reach them from Center and leave on a different line — a two-step
    # fixed-length pattern the engine solves with range intersection.
    interchange = index.evaluate("(?x, line1/line2, ?y)")
    print(f"line1→line2 two-hop pairs: {len(interchange)}")

    # A bus-free round trip: out and back on the same line.
    round_trip = index.evaluate(f"({start}, line1/line1, {start})")
    print(f"out-and-back on line 1 from {start}: "
          f"{'possible' if round_trip else 'impossible'}")

    # Show a few one-bus destinations with their stats.
    result = index.evaluate(f"({start}, ({metro})+/bus, ?y)")
    sample = sorted(result.objects())[:8]
    print(f"\nmetro-then-bus destinations from {start} (sample): {sample}")
    print(f"  stats: {result.stats.product_nodes} product nodes, "
          f"{result.stats.elapsed * 1000:.1f} ms")


if __name__ == "__main__":
    main()
