"""Space/time trade-offs of the ring's representation options.

Not a paper table, but the knobs §5 discusses: the optional third
column (``L_o``), Elias-Fano boundary arrays (sdsl's ``sd_vector``),
and the packed-form baseline.  Benchmarks construction of each variant
and asserts the expected size ordering.
"""

from __future__ import annotations

import pytest

from repro.ring.builder import RingIndex


@pytest.mark.parametrize(
    "variant,kwargs",
    [
        ("default", {}),
        ("ef-boundaries", {"compressed_boundaries": True}),
        ("with-object-column", {"keep_object_column": True}),
    ],
)
def test_build_variant(benchmark, bench_graph, variant, kwargs):
    benchmark.group = "space-tradeoffs"
    index = benchmark.pedantic(
        RingIndex.from_graph, args=(bench_graph,), kwargs=kwargs,
        rounds=1, iterations=1,
    )
    assert len(index.ring) > 0


def test_size_ordering(bench_graph):
    default = RingIndex.from_graph(bench_graph)
    compact = RingIndex.from_graph(
        bench_graph, compressed_boundaries=True
    )
    full = RingIndex.from_graph(bench_graph, keep_object_column=True)
    size = default.ring.measure().nbytes
    assert compact.ring.measure().nbytes < size
    assert full.ring.measure().nbytes > size
    # answers are identical across representations
    query = "(?x, p1/p0*, n0)"
    reference = default.evaluate(query).pairs
    assert compact.evaluate(query).pairs == reference
    assert full.evaluate(query).pairs == reference
