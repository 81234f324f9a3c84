"""Tests for the hierarchical span stack and its Chrome-trace export."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.spans import Span, SpanStack


class TestRecording:
    def test_parent_child_depth(self):
        stack = SpanStack()
        outer = stack.start("outer")
        inner = stack.start("inner")
        assert inner.parent is outer
        assert (outer.depth, inner.depth) == (0, 1)
        stack.end(inner)
        stack.end(outer)
        assert len(stack) == 2
        assert stack.max_depth() == 1

    def test_start_order_reported(self):
        stack = SpanStack()
        a = stack.start("a")
        b = stack.start("b")
        stack.end(b)
        c = stack.start("c")
        stack.end(c)
        stack.end(a)
        # retained and reported in start order, not end order (b, c, a)
        assert [s.name for s in stack.ordered()] == ["a", "b", "c"]

    def test_duration_non_negative_and_monotonic(self):
        stack = SpanStack()
        with stack.span("outer") as outer:
            with stack.span("inner") as inner:
                pass
        assert 0.0 <= inner.duration <= outer.duration

    def test_attrs_accumulate(self):
        span = Span(0, "s", None, 0, 0.0)
        span.set(a=1)
        span.set(b=2, a=3)
        assert span.attrs == {"a": 3, "b": 2}

    def test_context_manager_closes_on_exception(self):
        stack = SpanStack()
        with pytest.raises(RuntimeError):
            with stack.span("work"):
                raise RuntimeError("boom")
        assert len(stack) == 1
        assert stack._open == []

    def test_end_unwinds_leaked_children(self):
        """A timeout mid-wave leaves descendants open; ending the
        ancestor must close them all with a consistent end time."""
        stack = SpanStack()
        query = stack.start("query")
        wave = stack.start("wave")
        step = stack.start("step")
        stack.end(query)  # wave and step never explicitly ended
        assert len(stack) == 3
        assert stack._open == []
        by_name = {s.name: s for s in stack.spans}
        assert by_name["step"].t1 == by_name["wave"].t1 == \
            by_name["query"].t1
        assert step.t1 >= step.t0 and wave.t1 >= wave.t0

    def test_double_end_counts_as_dropped(self):
        stack = SpanStack()
        span = stack.start("s")
        stack.end(span)
        stack.end(span)
        assert len(stack) == 1
        assert stack.dropped == 1

    def test_reset(self):
        stack = SpanStack()
        stack.end(stack.start("s"))
        stack.reset()
        assert len(stack) == 0 and stack.dropped == 0
        assert stack.start("t").sid == 0


class TestCapacity:
    def test_capacity_bounds_retention(self):
        stack = SpanStack(capacity=5)
        for i in range(20):
            stack.end(stack.start(f"s{i}"))
        assert len(stack) == 5
        assert stack.dropped == 15
        # the earliest spans were kept (retention is first-come)
        assert [s.name for s in stack.ordered()] == \
            [f"s{i}" for i in range(5)]

    def test_a_full_stack_keeps_the_roots(self):
        """Retention is by start, so an overflowing tree keeps its root
        and upper levels, not the leaves that closed first."""
        stack = SpanStack(capacity=4)
        root = stack.start("worker:0")
        query = stack.start("query")
        for i in range(10):
            wave = stack.start(f"wave{i}")
            stack.end(stack.start("step"))
            stack.end(wave)
        stack.end(query)
        stack.end(root)
        assert stack.dropped == 18
        (tree,) = stack.tree()
        assert tree["name"] == "worker:0"
        assert [c["name"] for c in tree["children"]] == ["query"]
        assert tree["duration"] >= tree["children"][0]["duration"] > 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=64))
    def test_never_exceeds_capacity(self, capacity, n):
        stack = SpanStack(capacity=capacity)
        for i in range(n):
            stack.end(stack.start("s"))
        assert len(stack) <= capacity
        assert len(stack) + stack.dropped == n


class TestTreeAndExport:
    def _sample(self) -> SpanStack:
        stack = SpanStack()
        query = stack.start("query")
        bind = stack.start("bind")
        bind.set(width=3)
        stack.end(bind)
        anchors = stack.start("anchors")
        wave = stack.start("wave")
        stack.end(wave)
        stack.end(anchors)
        stack.end(query)
        return stack

    def test_tree_nesting(self):
        tree = self._sample().tree()
        assert len(tree) == 1
        root = tree[0]
        assert root["name"] == "query"
        assert [c["name"] for c in root["children"]] == \
            ["bind", "anchors"]
        assert root["children"][0]["attrs"] == {"width": 3}
        assert root["children"][1]["children"][0]["name"] == "wave"

    def test_tree_subtree_filter(self):
        stack = SpanStack()
        first = stack.start("query")
        stack.end(stack.start("wave"))
        stack.end(first)
        second = stack.start("query")
        stack.end(stack.start("wave"))
        stack.end(second)
        subtree = stack.tree(second)
        assert len(subtree) == 1
        assert subtree[0]["name"] == "query"
        assert len(subtree[0]["children"]) == 1
        # the full forest still has both roots
        assert len(stack.tree()) == 2

    def test_format_tree_indents_by_depth(self):
        text = self._sample().format_tree()
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert lines[1].startswith("  bind")
        assert "width=3" in lines[1]
        assert lines[3].startswith("    wave")

    def test_chrome_trace_structure(self):
        trace = self._sample().to_chrome_trace()
        events = trace["traceEvents"]
        assert len(events) == 4
        assert all(e["ph"] == "X" for e in events)
        assert events[0]["name"] == "query"
        assert events[0]["ts"] == 0.0
        # children nest inside the parent's [ts, ts+dur] interval
        root = events[0]
        for child in events[1:]:
            assert child["ts"] >= root["ts"] - 1e-6
            assert child["ts"] + child["dur"] <= \
                root["ts"] + root["dur"] + 1e-6
        assert events[1]["args"] == {"width": 3}

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        self._sample().write_chrome_trace(path)
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) == 4

    def test_empty_stack_exports_cleanly(self):
        stack = SpanStack()
        assert stack.tree() == []
        assert stack.max_depth() == -1
        assert stack.format_tree() == ""
        assert stack.to_chrome_trace()["traceEvents"] == []
