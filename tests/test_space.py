"""The space-audit plane: bit-level memory accounting for every tier.

The contracts under test, in acceptance-criterion order:

* a :class:`SpaceNode` tree telescopes *exactly* — every branch total
  equals the sum of its children, enforced at construction;
* the ring audit's total equals the sum of its per-column nodes and
  agrees with the snapshot segment's byte size within 5% (the attached,
  view-backed form; the remainder is 64-byte alignment padding);
* ``prometheus_text`` round-trips labelled ``space.bytes`` gauges,
  escaping included;
* ``/metrics`` and ``/debug/space`` serve the same numbers live;
* the serving tier's cache bytes and the registry-driven gauge zeroing
  on ``close()`` behave.
"""

from __future__ import annotations

import json
import urllib.request

import numpy as np
import pytest

from repro.core.result import QueryResult, QueryStats
from repro.errors import InvariantViolation
from repro.graph.generators import chain_graph, wikidata_like
from repro.graph.io import save_graph
from repro.obs import Metrics, prometheus_text
from repro.obs.export import label_key, unescape_label
from repro.obs.space import (
    SPACE_GAUGE_FAMILY,
    SpaceNode,
    audit_index,
    audit_manifest,
    audit_metrics,
    audit_service,
    deep_getsizeof,
    publish_space_gauges,
)
from repro.ring.builder import RingIndex
from repro.ring.snapshot import (
    SharedIndexHandle,
    _write_payload,
    attach_index,
    snapshot_index,
)
from repro.serve import HTTPQueryServer, QueryService
from repro.serve.cache import ResultCache
from repro.serve.service import _LOAD_GAUGE_PREFIXES
from repro.succinct.bitvector import BitVector


@pytest.fixture(scope="module")
def mid_index():
    """Big enough that snapshot alignment padding is a small fraction."""
    graph = wikidata_like(
        n_nodes=800, n_edges=4_000, n_predicates=12, seed=3
    )
    return RingIndex.from_graph(graph)


# ----------------------------------------------------------------------
# SpaceNode core
# ----------------------------------------------------------------------


class TestSpaceNode:
    def test_leaf_requires_bytes(self):
        with pytest.raises(InvariantViolation, match="explicit byte count"):
            SpaceNode("leaf")

    def test_branch_sums_children(self):
        node = SpaceNode("parent", children=[
            SpaceNode("a", 10), SpaceNode("b", 32),
        ])
        assert node.nbytes == 42

    def test_explicit_total_must_match_children(self):
        with pytest.raises(InvariantViolation, match="!= sum of children"):
            SpaceNode("parent", nbytes=41, children=[
                SpaceNode("a", 10), SpaceNode("b", 32),
            ])
        # Agreement is fine.
        node = SpaceNode("parent", nbytes=42, children=[
            SpaceNode("a", 10), SpaceNode("b", 32),
        ])
        assert node.nbytes == 42

    def test_negative_size_rejected(self):
        with pytest.raises(InvariantViolation, match="negative"):
            SpaceNode("leaf", -1)

    def test_check_catches_mutation(self):
        node = SpaceNode("parent", children=[SpaceNode("a", 10)])
        node.check()
        node.children[0].nbytes = 11
        with pytest.raises(InvariantViolation):
            node.check()

    def test_find_and_iter_nodes(self):
        tree = SpaceNode("root", children=[
            SpaceNode("left", children=[SpaceNode("deep", 4)]),
            SpaceNode("right", 8),
        ])
        paths = [path for path, _ in tree.iter_nodes()]
        assert paths == ["root", "root.left", "root.left.deep", "root.right"]
        assert tree.find("root.left.deep").nbytes == 4
        assert tree.find("root") is tree
        assert tree.find("root.missing") is None
        assert tree.find("other") is None

    def test_to_dict_shares_and_bits(self):
        tree = SpaceNode("root", children=[
            SpaceNode("a", 30), SpaceNode("b", 10),
        ])
        d = tree.to_dict(n_triples=40)
        assert d["bytes"] == 40
        assert d["bits_per_triple"] == pytest.approx(8.0)
        shares = {c["name"]: c["share_of_parent"] for c in d["children"]}
        assert shares == {"a": pytest.approx(0.75), "b": pytest.approx(0.25)}

    def test_format_tree_lists_components(self):
        tree = SpaceNode("root", children=[SpaceNode("child", 1024)])
        text = tree.format_tree(n_triples=256)
        assert "component" in text and "bits/triple" in text
        assert "child" in text and "1,024" in text


class TestDeepGetsizeof:
    def test_counts_owned_array_payload(self):
        arr = np.zeros(10_000, dtype=np.int64)
        assert deep_getsizeof(arr) >= arr.nbytes

    def test_view_payload_not_double_counted(self):
        arr = np.zeros(10_000, dtype=np.int64)
        view = arr[:-1]
        assert deep_getsizeof(view) < arr.nbytes

    def test_shared_object_counted_once(self):
        blob = "x" * 4096
        assert deep_getsizeof([blob, blob]) < 2 * deep_getsizeof(blob)

    def test_nested_containers(self):
        flat = {"k": 1}
        nested = {"k": {"deep": ["strings", "inside"]}}
        assert deep_getsizeof(nested) > deep_getsizeof(flat)


# ----------------------------------------------------------------------
# Succinct-structure hooks
# ----------------------------------------------------------------------


class TestBitVectorMeasure:
    def test_built_form_exact_sum(self):
        bv = BitVector([1, 0, 1, 1] * 500)
        node = bv.measure()
        node.check()
        names = {c.name for c in node.children}
        assert {"words", "rank_directory"} <= names
        assert node.nbytes == sum(c.nbytes for c in node.children)

    def test_view_form_counts_shared_buffers_once(self):
        bv = BitVector([1, 0, 1, 1] * 500)
        words_ext, cum64, n = bv.batch_data()
        view = BitVector.from_packed(words_ext, cum64, n)
        node = view.measure()
        node.check()
        assert node.nbytes == words_ext.nbytes + cum64.nbytes


class TestWaveletMatrixMeasure:
    def test_accounts_every_level_plus_tables(self, kg_graph):
        # A fresh index: the session-scoped fixtures may have lazily
        # materialised batch buffers, which measure() rightly counts
        # but which size_in_bits() never includes.
        wm = RingIndex.from_graph(kg_graph).ring.L_p
        node = wm.measure("L_p")
        node.check()
        level_names = {c.name for c in node.children}
        assert "tables" in level_names
        assert any(name.startswith("level") for name in level_names)
        # measure() counts every allocated buffer; size_in_bits() pins
        # Table 2 and omits the class-occurrence tables.  The delta is
        # exactly those tables.
        class_cum = node.find("L_p.tables.class_cum")
        assert class_cum is not None
        assert node.nbytes * 8 == wm.size_in_bits() + class_cum.nbytes * 8


class TestRingMeasure:
    def test_ring_total_is_exact_sum_of_children(self, kg_index):
        node = kg_index.ring.measure("ring")
        node.check()
        assert node.nbytes == sum(c.nbytes for c in node.children)
        names = {c.name for c in node.children}
        assert {"L_p", "L_s", "C_o", "C_p"} <= names

    def test_compressed_boundaries_show_elias_fano(self, kg_graph):
        index = RingIndex.from_graph(kg_graph, compressed_boundaries=True)
        node = index.ring.measure("ring")
        node.check()
        ef = node.find("ring.C_o.elias_fano")
        assert ef is not None
        assert node.find("ring.C_o").detail.get("form") == "elias-fano"

    def test_audit_index_covers_dictionary(self, kg_index):
        root = audit_index(kg_index)
        root.check()
        dictionary = root.find("index.dictionary")
        assert dictionary is not None
        assert dictionary.nbytes == kg_index.dictionary.size_in_bits() // 8

    def test_audit_index_follows_the_decoded_matrix_blocks(self, kg_graph):
        pytest.importorskip("scipy")
        from repro.matrix.matrices import PredicateMatrices

        index = RingIndex.from_graph(kg_graph)
        assert audit_index(index).find("index.matrix") is None
        store = PredicateMatrices.from_index(index)
        cold = audit_index(index).find("index.matrix")
        assert cold.nbytes == 0 and not cold.children
        assert cold.detail["decoded"] == 0
        assert cold.detail["predicates"] == len(store.predicates)
        first = store.predicates[0]
        block = store.matrix(first)
        one = audit_index(index).find("index.matrix")
        assert [c.name for c in one.children] == [f"p{first}"]
        assert one.nbytes == (block.indptr.nbytes + block.indices.nbytes
                              + block.data.nbytes)
        store.decode_all()
        full = audit_index(index)
        full.check()
        matrix = full.find("index.matrix")
        assert matrix.detail["decoded"] == len(store.predicates)
        assert matrix.nbytes == store.measure().nbytes \
            == store.size_in_bits() // 8


# ----------------------------------------------------------------------
# Snapshot segments
# ----------------------------------------------------------------------


class TestSnapshotAudit:
    def test_manifest_audit_equals_total_bytes_exactly(self, mid_index):
        manifest, _ = snapshot_index(mid_index)
        snap = audit_manifest(manifest)
        snap.check()
        assert snap.nbytes == manifest["total_bytes"]
        padding = snap.find("snapshot.padding")
        assert padding is not None and padding.nbytes >= 0

    def test_attached_ring_within_5pct_of_segment(self, mid_index):
        """The acceptance criterion: the served (view-backed) ring's
        audit agrees with the segment byte size within 5%; the gap is
        only the 64-byte alignment padding."""
        manifest, buffers = snapshot_index(mid_index)
        payload = bytearray(manifest["total_bytes"])
        _write_payload(manifest, buffers, payload)
        attached = attach_index(manifest, payload)
        node = attached.ring.measure("ring")
        node.check()
        segment = manifest["total_bytes"]
        assert 0.95 * segment <= node.nbytes <= segment
        padding = audit_manifest(manifest).find("snapshot.padding").nbytes
        assert node.nbytes + padding == segment

    def test_shared_handle_measure_matches_segment(self, kg_index):
        with SharedIndexHandle.create(kg_index) as handle:
            node = handle.measure()
            node.check()
            assert node.nbytes == handle.nbytes
            assert node.detail.get("segment") == handle.name


# ----------------------------------------------------------------------
# Labelled gauges and the Prometheus exporter
# ----------------------------------------------------------------------


class TestLabelledGauges:
    def test_label_key_escapes_and_unescapes(self):
        raw = 'we"ird\\component'
        key = label_key("space.bytes", component=raw)
        assert key == 'space.bytes{component="we\\"ird\\\\component"}'
        inner = key.split('"', 1)[1].rsplit('"', 1)[0]
        assert unescape_label(inner) == raw

    def test_prometheus_round_trip_with_components(self):
        metrics = Metrics()
        components = {"index.ring": 48_896.0, 'odd"path\\x': 64.0}
        for component, value in components.items():
            metrics.set_gauge(
                label_key(SPACE_GAUGE_FAMILY, component=component), value
            )
        text = prometheus_text(metrics)
        # One TYPE line for the family, one sample per component.
        assert text.count("# TYPE repro_space_bytes gauge") == 1
        recovered = {}
        for line in text.splitlines():
            if line.startswith("repro_space_bytes{component="):
                label_part = line.split('component="', 1)[1]
                escaped, value = label_part.rsplit('"}', 1)
                recovered[unescape_label(escaped)] = float(value)
        assert recovered == components

    def test_publish_space_gauges_respects_depth(self):
        metrics = Metrics()
        tree = SpaceNode("index", children=[
            SpaceNode("ring", children=[SpaceNode("L_p", 7)]),
        ])
        published = publish_space_gauges(metrics, tree, max_depth=1)
        assert published == {"index": 7, "index.ring": 7}
        key = label_key(SPACE_GAUGE_FAMILY, component="index.ring")
        assert metrics.gauge(key) == 7.0


# ----------------------------------------------------------------------
# Serving tier: cache bytes, registry-driven zeroing
# ----------------------------------------------------------------------


def _result(n_pairs: int) -> QueryResult:
    pairs = {(f"s{i}", f"o{i}") for i in range(n_pairs)}
    return QueryResult(pairs=pairs, stats=QueryStats())


class TestCacheBytes:
    def test_store_evict_invalidate_track_bytes(self):
        cache = ResultCache(capacity=2)
        cache.store(("q1",), None, _result(50))
        first = cache.nbytes
        assert first > 0
        cache.store(("q2",), None, _result(50))
        assert cache.nbytes > first
        cache.store(("q3",), None, _result(50))  # evicts q1
        assert len(cache) == 2
        entries_sum = sum(
            e.nbytes for e in cache._entries.values()
        )
        assert cache.nbytes == entries_sum
        assert cache.invalidate() == 2
        assert cache.nbytes == 0

    def test_measure_and_snapshot_expose_bytes(self):
        cache = ResultCache(capacity=4)
        cache.store(("q",), None, _result(10))
        node = cache.measure()
        node.check()
        assert node.nbytes == cache.nbytes
        assert cache.snapshot()["bytes"] == cache.nbytes


@pytest.mark.concurrency
class TestServiceSpaceGauges:
    def test_cache_bytes_gauge_follows_cache(self, kg_index):
        metrics = Metrics()
        service = QueryService(
            kg_index, workers=1, cache_size=8, metrics=metrics
        )
        try:
            service.evaluate("(?x, p0/p1, ?y)")
            assert metrics.gauge("serve.cache.bytes") == service.cache.nbytes
            assert metrics.gauge("serve.cache.bytes") > 0
            service.invalidate_cache()
            assert metrics.gauge("serve.cache.bytes") == 0
        finally:
            service.close()

    def test_close_sweeps_every_load_gauge(self, kg_index):
        metrics = Metrics()
        service = QueryService(
            kg_index, workers=1, cache_size=8, metrics=metrics
        )
        service.evaluate("(?x, p0, ?y)")
        # Gauges the sweep has never been told about by name, plus one
        # outside the load prefixes and a space gauge: the sweep is
        # registry-driven, not an enumerated list.
        metrics.set_gauge("serve.some.novel_gauge", 5.0)
        metrics.set_gauge("router.some.decision", 2.0)
        metrics.set_gauge("process.rss_bytes", 123.0)
        space_key = label_key(SPACE_GAUGE_FAMILY, component="index.ring")
        metrics.set_gauge(space_key, 48_896.0)
        service.close()
        for name in metrics.gauges:
            if name.startswith(_LOAD_GAUGE_PREFIXES):
                assert metrics.gauge(name) == 0.0, name
        assert metrics.gauge("process.rss_bytes") == 123.0
        assert metrics.gauge(space_key) == 48_896.0

    def test_audit_service_covers_mutable_state(self, kg_index):
        from repro.obs.flight import FlightRecorder

        metrics = Metrics()
        service = QueryService(
            kg_index, workers=1, cache_size=8, metrics=metrics,
            flight=FlightRecorder(capacity=16),
        )
        try:
            service.evaluate("(?x, p0/p1, ?y)")
            tree = audit_service(service)
            tree.check()
            names = {c.name for c in tree.children}
            assert {"index", "cache", "flight", "metrics"} <= names
            assert tree.find("service.cache").nbytes == service.cache.nbytes
        finally:
            service.close()


# ----------------------------------------------------------------------
# Live endpoints: /metrics and /debug/space serve the same numbers
# ----------------------------------------------------------------------


def _get(url: str, timeout: float = 10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode("utf-8")


@pytest.mark.concurrency
class TestLiveSpaceEndpoints:
    @pytest.fixture()
    def plane(self, kg_index):
        metrics = Metrics()
        service = QueryService(
            kg_index, workers=1, cache_size=8, metrics=metrics
        )
        server = HTTPQueryServer(service).start()
        try:
            yield {"service": service, "metrics": metrics, "server": server}
        finally:
            server.stop()
            service.close()

    def test_debug_space_and_metrics_agree(self, plane):
        plane["service"].evaluate("(?x, p0/p1, ?y)")
        status, body = _get(plane["server"].url + "/debug/space")
        assert status == 200
        report = json.loads(body)
        tree = report["tree"]
        assert tree["name"] == "service"
        assert report["n_triples"] == len(plane["service"].index.ring)
        by_name = {c["name"]: c["bytes"] for c in tree["children"]}

        status, text = _get(plane["server"].url + "/metrics")
        assert status == 200
        scraped = {}
        for line in text.splitlines():
            if line.startswith("repro_space_bytes{component="):
                label_part = line.split('component="', 1)[1]
                component, value = label_part.rsplit('"}', 1)
                scraped[unescape_label(component)] = float(value)
        # Both requests count into the registry they audit (the front
        # door's serve.http.* counters), so the metrics node may move
        # between them; every other component agrees to the byte.
        assert (scraped["service"] - scraped["service.metrics"]
                == tree["bytes"] - by_name["metrics"])
        assert scraped["service.index"] == by_name["index"]
        assert scraped["service.cache"] == by_name["cache"]
        assert scraped["service.index.ring"] == plane[
            "service"
        ].index.ring.measure("ring").nbytes

    def test_index_page_advertises_debug_space(self, plane):
        status, body = _get(plane["server"].url + "/")
        assert status == 200
        assert "/debug/space" in body


# ----------------------------------------------------------------------
# EXPLAIN working set, metrics audit
# ----------------------------------------------------------------------


class TestExplainWorkingSet:
    def test_plan_carries_working_set_bytes(self, kg_index):
        from repro.core.planner import query_working_set_bytes
        from repro.obs.explain import format_plan, plan_dict

        plan = plan_dict(kg_index, "(?x, p0/p1, ?y)")
        wsb = plan["estimate"]["working_set_bytes"]
        assert wsb == int(query_working_set_bytes(kg_index, nfa_bits=16))
        assert wsb > 0
        text = format_plan(kg_index, "(?x, p0/p1, ?y)")
        assert "working set" in text
        assert "D visited array" in text


class TestMetricsAudit:
    def test_histograms_counters_gauges_accounted(self):
        metrics = Metrics()
        metrics.inc("some.counter")
        metrics.set_gauge("some.gauge", 2.0)
        metrics.observe("serve.latency", 0.25)
        node = audit_metrics(metrics)
        node.check()
        names = {c.name for c in node.children}
        assert {"histograms", "counters", "gauges"} <= names
        assert node.nbytes > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestSpaceCLI:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        graph = wikidata_like(
            n_nodes=120, n_edges=600, n_predicates=8, seed=3
        )
        path = tmp_path / "space.nt"
        save_graph(graph, path)
        return str(path)

    def test_text_report(self, graph_file, capsys):
        from repro.cli import main

        rc = main(["space", graph_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ring (built)" in out
        assert "snapshot segment" in out
        assert "bits/triple" in out

    def test_json_report_totals(self, graph_file, capsys):
        from repro.cli import main

        rc = main(["space", graph_file, "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        totals = report["totals"]
        assert totals["ring_bytes"] > 0
        assert totals["ring_bits_per_triple"] > 0
        assert totals["snapshot_bytes"] >= totals["attached_ring_bytes"]
        assert 0 < totals["attached_ring_segment_agreement"] <= 1.0
        assert report["index"]["name"] == "index"
        assert report["snapshot"]["name"] == "snapshot"
        ring = next(
            c for c in report["index"]["children"] if c["name"] == "ring"
        )
        assert ring["bytes"] == totals["ring_bytes"]

    def test_tiny_chain_graph_still_audits(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "chain.nt"
        save_graph(chain_graph(4), path)
        rc = main(["space", str(path), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["totals"]["n_triples"] > 0
