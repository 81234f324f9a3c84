"""Tests for the benchmark harness (patterns, workload, runner, space)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.baselines.registry import TABLE2_ENGINES
from repro.bench.boxplot import boxplot_csv, render_pattern_boxplots
from repro.bench.context import build_context, tiny_context
from repro.bench.patterns import (
    RECURSIVE_PATTERNS,
    TABLE1_REFERENCE,
    classify_query,
    expression_skeleton,
    table1_total,
)
from repro.bench.runner import query_shape_class, run_benchmark
from repro.bench.space import (
    SYSTEM_MODELS,
    engine_bytes_per_edge,
    packed_bytes_per_edge,
    ring_bytes_per_edge,
    working_space_bytes_per_edge,
)
from repro.bench.stats import (
    FiveNumber,
    geometric_mean,
    percentile,
    summarize,
)
from repro.bench.workload import generate_query_log
from repro.bench.table1 import format_table1, regenerate_table1
from repro.core.query import RPQ
from repro.graph.generators import wikidata_like


@pytest.fixture(scope="module")
def graph():
    return wikidata_like(n_nodes=250, n_edges=1_500, n_predicates=12, seed=1)


class TestPatterns:
    @pytest.mark.parametrize(
        "query,pattern",
        [
            ("(?x, a/b*, c)", "v /* c"),
            ("(?x, a*, c)", "v * c"),
            ("(c, a*, ?y)", "c * v"),
            ("(?x, a/b, ?y)", "v / v"),
            ("(?x, ^a, ?y)", "v ^ v"),
            ("(?x, a*/b*/c*/d*, c)", "v */*/*/* c"),
            ("(?x, a|b, ?y)", "v | v"),
            ("(?x, a/b?, c)", "v /? c"),
            ("(?x, a/^b, ?y)", "v /^ v"),
            ("(?x, a, c)", "v c"),
            ("(a, b, c)", "c c"),
        ],
    )
    def test_classify(self, query, pattern):
        assert classify_query(RPQ.parse(query)) == pattern

    def test_skeleton_grouping(self):
        assert expression_skeleton(RPQ.parse("(?x, (a|b)+, c)").expr) \
            == "(|)+"
        assert expression_skeleton(RPQ.parse("(?x, !(a), c)").expr) == "!"

    def test_reference_is_consistent(self):
        # generator templates must classify to their own pattern
        assert len(TABLE1_REFERENCE) == 20
        assert table1_total() == sum(
            c for _, c, _, _, _ in TABLE1_REFERENCE
        )
        for pattern, _, s_kind, template, o_kind in TABLE1_REFERENCE:
            n = template.count("{")
            expr = template.format(*[f"p{i}" for i in range(n)])
            s = "?x" if s_kind == "v" else "Q1"
            o = "?y" if o_kind == "v" else "Q2"
            assert classify_query(RPQ.of(s, expr, o)) == pattern

    def test_recursive_patterns(self):
        assert "v * c" in RECURSIVE_PATTERNS
        assert "v / v" not in RECURSIVE_PATTERNS
        assert len(RECURSIVE_PATTERNS) == 12


class TestWorkload:
    def test_scale_and_mix(self, graph):
        queries = generate_query_log(graph, scale=0.05, seed=0)
        histogram = Counter(classify_query(q) for q in queries)
        for pattern, count, _, _, _ in TABLE1_REFERENCE:
            expected = max(1, round(count * 0.05))
            assert histogram[pattern] == expected

    def test_deterministic(self, graph):
        a = generate_query_log(graph, scale=0.02, seed=9)
        b = generate_query_log(graph, scale=0.02, seed=9)
        assert [str(q) for q in a] == [str(q) for q in b]

    def test_full_scale_matches_paper_counts(self):
        # Needs enough predicate diversity: a pattern like "v ^ v" is
        # unique per predicate, so the vocabulary must exceed the
        # largest variable-only pattern count.
        rich = wikidata_like(
            n_nodes=500, n_edges=4_000, n_predicates=64, seed=4
        )
        queries = generate_query_log(rich, scale=1.0, seed=0)
        histogram = Counter(classify_query(q) for q in queries)
        rows = regenerate_table1(rich, scale=1.0, seed=0)
        for pattern, reproduced, paper in rows:
            assert reproduced == histogram[pattern]
            # full scale hits the paper count exactly
            assert reproduced == paper, pattern

    def test_constants_are_satisfiable(self, graph):
        # anchored constants must be incident to the sampled predicate
        queries = generate_query_log(graph, scale=0.03, seed=2)
        nodes = set(graph.nodes)
        for q in queries:
            if not q.subject_is_var:
                assert q.subject in nodes
            if not q.object_is_var:
                assert q.object in nodes

    def test_format_table1(self, graph):
        rows = regenerate_table1(graph, scale=0.02, seed=0)
        text = format_table1(rows, 0.02)
        assert "v /* c" in text
        assert "total" in text


class TestRunnerAndStats:
    @pytest.fixture(scope="class")
    def context(self):
        return tiny_context(
            n_nodes=120, n_edges=600, n_predicates=8, log_scale=0.015
        )

    @pytest.fixture(scope="class")
    def results(self, context):
        return run_benchmark(
            context.engines, context.queries,
            timeout=context.timeout, limit=context.limit,
        )

    def test_engines_and_records(self, context, results):
        assert results.engines() == list(TABLE2_ENGINES)
        assert len(results.records) == len(context.queries) * len(
            context.engines
        )

    def test_engines_agree(self, results):
        assert results.consistency_check() == []

    def test_summaries(self, results):
        for engine in results.engines():
            summary = results.summary(engine)
            assert summary.count > 0
            assert summary.average >= 0
            assert summary.timeouts >= 0
            text = str(summary)
            assert "avg=" in text

    def test_shape_split(self, context, results):
        cv = results.summary("ring", "c-to-v")
        vv = results.summary("ring", "v-to-v")
        assert cv.count + vv.count == len(context.queries)

    def test_pattern_helpers(self, results):
        patterns = results.patterns()
        assert patterns
        top = patterns[0]
        summary = results.pattern_summary("ring", top)
        assert summary is not None
        assert summary.minimum <= summary.median <= summary.maximum
        assert results.pattern_summary("ring", "no such pattern") is None
        wins = results.pattern_wins()
        assert set(wins) == set(patterns)

    def test_mean_storage_ops(self, results):
        assert results.mean_storage_ops("ring") > 0
        assert results.mean_storage_ops("ring", "c-to-v") >= 0

    def test_counter_aggregation(self, results):
        names = results.counter_names("ring")
        assert "storage_ops" in names and "wavelet_nodes" in names
        assert results.mean_counter("ring", "storage_ops") == \
            results.mean_storage_ops("ring")
        # a counter nobody recorded averages to zero, not KeyError
        assert results.mean_counter("ring", "no_such_counter") == 0.0
        table = results.operations_by_pattern("ring")
        assert set(table) == set(results.patterns())
        for pattern, row in table.items():
            assert set(row) == set(names)
            for name, cell in row.items():
                assert set(cell) == {"mean", "p50", "p90", "p99"}
                assert 0 <= cell["p50"] <= cell["p90"] <= cell["p99"]
                assert cell["mean"] == pytest.approx(
                    results.mean_counter("ring", name, pattern=pattern)
                )

    def test_boxplot_render(self, results):
        text = render_pattern_boxplots(results)
        assert "pattern:" in text
        assert "M" in text
        csv = boxplot_csv(results)
        assert csv.startswith("pattern,engine,min,q1,median,q3,max")

    def test_shape_class(self):
        assert query_shape_class(RPQ.parse("(?x, p, ?y)")) == "v-to-v"
        assert query_shape_class(RPQ.parse("(a, p, ?y)")) == "c-to-v"
        assert query_shape_class(RPQ.parse("(a, p, b)")) == "c-to-v"


class TestStats:
    def test_summarize_counts_timeouts_at_cap(self):
        summary = summarize([0.1, 5.0, 0.2], [False, True, False], 2.0)
        assert summary.timeouts == 1
        assert summary.average == pytest.approx((0.1 + 2.0 + 0.2) / 3)

    def test_summarize_empty(self):
        summary = summarize([], [], 2.0)
        assert summary.count == 0

    def test_five_number(self):
        fn = FiveNumber.of([1.0, 2.0, 3.0, 4.0])
        assert fn.minimum == 1.0 and fn.maximum == 4.0
        assert fn.as_tuple()[2] == fn.median

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
        assert geometric_mean([0.0, 1.0], floor=1e-6) > 0

    def test_percentile_interpolates_linearly(self):
        values = [4.0, 1.0, 3.0, 2.0]  # sorted: 1 2 3 4
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile(values, 25) == pytest.approx(1.75)

    def test_percentile_matches_numpy_linear(self):
        import numpy as np
        import random

        rng = random.Random(5)
        values = [rng.uniform(0, 100) for _ in range(137)]
        for q in (0, 1, 10, 50, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_percentile_validates_input(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([], 50)


class TestSpace:
    @pytest.fixture(scope="class")
    def index(self, graph):
        from repro.ring.builder import RingIndex

        return RingIndex.from_graph(graph)

    def test_models_near_paper(self):
        assert SYSTEM_MODELS["alp-jena"].bytes_per_edge() == \
            pytest.approx(96.0, rel=0.05)
        assert SYSTEM_MODELS["alp-blazegraph"].bytes_per_edge() == \
            pytest.approx(90.79, rel=0.05)
        assert SYSTEM_MODELS["seminaive-virtuoso"].bytes_per_edge() == \
            pytest.approx(60.07, rel=0.05)

    def test_ring_is_smallest(self, index):
        ring_size = ring_bytes_per_edge(index)
        for name in SYSTEM_MODELS:
            assert engine_bytes_per_edge(name, index) > ring_size

    def test_space_ratio_in_paper_ballpark(self, index):
        ring_size = ring_bytes_per_edge(index)
        ratios = [
            engine_bytes_per_edge(name, index) / ring_size
            for name in ("alp-jena", "alp-blazegraph",
                         "seminaive-virtuoso")
        ]
        # paper: 3-5x; the win over every modelled system must be clear.
        assert min(ratios) > 2.5
        # The modelled systems are constants, so an upper bound on the
        # ratio would only cap how small the ring may get.  Bound the
        # ring by the paper's scale-free yardstick instead: never below
        # the packed triples, at most 3x them (the paper reports ~1.9x).
        packed = packed_bytes_per_edge(index)
        assert packed <= ring_size <= 3 * packed

    def test_packed_and_working(self, index):
        assert packed_bytes_per_edge(index) > 0
        assert working_space_bytes_per_edge(index) > 0

    def test_unknown_engine_raises(self, index):
        with pytest.raises(KeyError):
            engine_bytes_per_edge("nope", index)


class TestContext:
    def test_build_context_shapes(self):
        context = build_context(
            n_nodes=100, n_edges=500, n_predicates=8, log_scale=0.01,
        )
        assert len(context.queries) >= 20  # one per pattern at least
        assert set(context.engines) == set(TABLE2_ENGINES)
        assert context.notes["n_nodes"] == 100
