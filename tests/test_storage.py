"""Index persistence: every index variant survives a snapshot file.

``save_snapshot`` / ``load_snapshot`` (``RPQSNAP1``, memory-mapped) is
the one on-disk format.  ``tests/test_snapshot.py`` covers its
manifest, segments and buffer views; this module covers the index
variants a file must carry: boundary encodings, the optional object
column, a paper layout with a symmetric predicate, the smallest graph.
"""

from __future__ import annotations

import pytest

from repro.errors import ConstructionError
from repro.graph.generators import random_graph
from repro.ring.builder import RingIndex
from repro.ring.snapshot import (
    _write_file,
    load_snapshot,
    save_snapshot,
    snapshot_index,
)


@pytest.fixture(scope="module")
def index():
    graph = random_graph(n_nodes=25, n_edges=90, n_predicates=4, seed=17)
    return RingIndex.from_graph(graph), graph


def _round_trip(index, tmp_path):
    path = tmp_path / "graph.snap"
    save_snapshot(index, path)
    return load_snapshot(path)


class TestRoundtrip:
    def test_triples_survive(self, index, tmp_path):
        _, graph = index
        # Plain and Elias-Fano-compressed boundary arrays alike.
        for compressed in (False, True):
            original = RingIndex.from_graph(
                graph, compressed_boundaries=compressed
            )
            restored = _round_trip(original, tmp_path)
            assert sorted(restored.ring.iter_triples()) == \
                sorted(original.ring.iter_triples())
            assert restored.dictionary.node_labels == \
                original.dictionary.node_labels
            assert restored.dictionary.predicate_labels == \
                original.dictionary.predicate_labels

    def test_queries_survive(self, index, tmp_path):
        original, _ = index
        restored = _round_trip(original, tmp_path)
        for query in ["(?x, p0+, ?y)", "(?x, p1/p2*, ?y)",
                      "(n1, (p0|p3)*, ?y)"]:
            assert restored.evaluate(query).pairs == \
                original.evaluate(query).pairs, query

    def test_with_object_column(self, tmp_path):
        graph = random_graph(n_nodes=10, n_edges=30, n_predicates=2,
                             seed=3)
        original = RingIndex.from_graph(graph, keep_object_column=True)
        ring = _round_trip(original, tmp_path).ring
        assert ring.L_o is not None
        for i in range(len(ring)):
            assert ring.lf_o(ring.lf_s(ring.lf_p(i))) == i

    def test_santiago_paper_layout(self, tmp_path):
        from repro.graph.datasets import (
            SANTIAGO_NODE_ORDER,
            santiago_transport,
        )

        original = RingIndex.from_graph(
            santiago_transport(),
            node_order=SANTIAGO_NODE_ORDER,
            predicate_order=["l1", "l2", "l5", "bus"],
        )
        restored = _round_trip(original, tmp_path)
        assert restored.evaluate("(Baq, l5+/bus, ?y)").pairs == {
            ("Baq", "SA"), ("Baq", "UCh")
        }
        # symmetric predicate inverse mapping survives
        d = restored.dictionary
        assert d.inverse_predicate(d.predicate_id("l1")) == \
            d.predicate_id("l1")

    def test_bad_format_rejected(self, index, tmp_path):
        manifest, buffers = snapshot_index(index[0])
        path = tmp_path / "bad.snap"
        _write_file(dict(manifest, format="ring-snapshot/v999"), buffers,
                    path)
        with pytest.raises(ConstructionError, match="unsupported"):
            load_snapshot(path)

    def test_empty_graph(self, tmp_path):
        original = RingIndex.from_triples([("a", "p", "b")])
        restored = _round_trip(original, tmp_path)
        assert len(restored.ring) == 2
        assert restored.evaluate("(a, p, ?y)").pairs == {("a", "b")}
