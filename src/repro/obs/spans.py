"""Hierarchical spans: a low-overhead timing tree for query execution.

Phase timers (PR 1) answer "how long did ``predicates_from_objects``
take in total?" — but not "which wave of which anchored sub-run was
slow, and how many ring steps did it issue?".  Spans answer that: each
is a named interval with a parent link and free-form attributes, and a
finished :class:`SpanStack` is a forest that can be pretty-printed or
exported as Chrome ``chrome://tracing`` / Perfetto trace-event JSON.

Design constraints, in order:

1. **Zero cost when off.**  The engine hot paths hoist
   ``spans = obs.spans if obs.enabled else None`` once per run and test
   a local against ``None``; ``NullMetrics.spans`` is ``None`` so the
   default path never allocates or calls anything here.
2. **Cheap when on.**  ``start``/``end`` are a handful of attribute
   writes and one ``perf_counter`` call each; no dict allocation unless
   the caller attaches attributes.
3. **Bounded, roots first.**  At most ``capacity`` spans are retained,
   the first ``capacity`` to *start*; past that, new spans are timed
   but not kept (``dropped`` counts them), so a pathological query
   cannot exhaust memory, and a full stack still holds the roots and
   upper levels of the tree rather than its first-finished leaves.
4. **Robust to exceptions.**  ``end(span)`` closes any still-open
   descendants first (a timeout raised mid-wave must not corrupt the
   stack for the enclosing phase span).
"""

from __future__ import annotations

import json
from time import perf_counter

#: Span names tallied by :meth:`SpanStack.digest` are cut at this depth;
#: deeper levels (per-wave, per-ring-step spans) carry per-operation
#: fan-out that would make the digest as big as the tree.
_DIGEST_MAX_DEPTH = 2


class Span:
    """One named interval in the execution tree."""

    __slots__ = ("sid", "name", "parent", "depth", "t0", "t1", "attrs")

    def __init__(self, sid: int, name: str, parent: "Span | None",
                 depth: int, t0: float):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.depth = depth
        self.t0 = t0
        self.t1 = t0
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def set(self, **attrs) -> None:
        """Attach attributes (counters, sizes) to this span."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, depth={self.depth}, "
                f"dur={self.duration * 1e3:.3f}ms)")


class SpanStack:
    """Collects spans for one query (or one batch of queries).

    Spans are retained in *start* order, which is also valid
    Chrome-trace order; a span is in :attr:`spans` from its
    :meth:`start`, and its end time is set by :meth:`end`.  The stack
    is not thread-safe — like :class:`~repro.obs.metrics.Metrics`, use
    one per thread.
    """

    __slots__ = ("capacity", "spans", "dropped", "_open", "_next_sid")

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self.spans: list[Span] = []
        self.dropped = 0
        self._open: list[Span] = []
        self._next_sid = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def start(self, name: str) -> Span:
        """Open a span as a child of the innermost open span."""
        open_spans = self._open
        parent = open_spans[-1] if open_spans else None
        sid = self._next_sid
        self._next_sid = sid + 1
        span = Span(sid, name, parent,
                    parent.depth + 1 if parent is not None else 0,
                    perf_counter())
        open_spans.append(span)
        if len(self.spans) < self.capacity:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` (and any descendants left open by an exception)."""
        now = perf_counter()
        open_spans = self._open
        # Unwind to (and including) `span`; leaked children get closed
        # with the same end time so the tree stays well-formed.
        while open_spans:
            top = open_spans.pop()
            top.t1 = now
            if top is span:
                return
        # `span` was not on the stack (already closed): record the
        # repeated end defensively rather than raising in a hot path.
        self.dropped += 1

    def span(self, name: str):
        """Context manager form of :meth:`start`/:meth:`end`."""
        return _SpanContext(self, name)

    def absorb(self, other: "SpanStack") -> None:
        """Fold another stack's retained spans into this one.

        This is how per-worker registries surface their spans in a
        service-wide registry: sids are re-numbered into this stack's
        sequence (so :meth:`ordered` stays one consistent order across
        many absorbed stacks), parent links travel with each subtree,
        and the capacity bound keeps applying.  The other stack should
        be reset afterwards — its spans now belong to this one.
        """
        for span in other.ordered():
            span.sid = self._next_sid
            self._next_sid += 1
            if len(self.spans) < self.capacity:
                self.spans.append(span)
            else:
                self.dropped += 1
        self.dropped += other.dropped

    # ------------------------------------------------------------------
    # Queries / export
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def ordered(self) -> list[Span]:
        """All retained spans in start order."""
        return list(self.spans)

    def max_depth(self) -> int:
        """Depth of the deepest retained span (root = 0); -1 if empty."""
        if not self.spans:
            return -1
        return max(span.depth for span in self.spans)

    def digest(self) -> "dict | None":
        """A bounded summary of the stack; ``None`` when it is empty.

        A few scalars plus a name→count table of the levels down to
        :data:`_DIGEST_MAX_DEPTH` — the shape of the execution, not
        its contents, so a flight-ring record can carry it where the
        tree itself (which belongs in the slow log) would break the
        ring's bounded-memory promise.
        """
        if not self.spans:
            return None
        names: dict[str, int] = {}
        root_seconds = 0.0
        for span in self.spans:
            if span.depth == 0:
                root_seconds += span.duration
            if span.depth <= _DIGEST_MAX_DEPTH:
                names[span.name] = names.get(span.name, 0) + 1
        return {
            "spans": len(self.spans) + self.dropped,
            "max_depth": self.max_depth(),
            "root_seconds": root_seconds,
            "by_name": dict(sorted(names.items())),
        }

    def tree(self, root: Span | None = None) -> list[dict]:
        """The span forest as nested dicts (JSON-ready).

        With ``root``, only that span and its descendants are included
        — the slow-query log uses this to capture one query's subtree
        out of a long-lived stack.
        """
        nodes: dict[int, dict] = {}
        roots: list[dict] = []
        for span in self.ordered():
            if root is not None:
                probe = span
                while probe is not None and probe is not root:
                    probe = probe.parent
                if probe is None:
                    continue
            node = {
                "name": span.name,
                "start": span.t0,
                "duration": span.duration,
                "attrs": dict(span.attrs) if span.attrs else {},
                "children": [],
            }
            nodes[span.sid] = node
            parent = span.parent
            if parent is not None and parent.sid in nodes:
                nodes[parent.sid]["children"].append(node)
            else:
                roots.append(node)
        return roots

    def format_tree(self, min_duration: float = 0.0) -> str:
        """Indented text rendering of the span forest."""
        lines: list[str] = []
        for span in self.ordered():
            if span.duration < min_duration and span.depth > 0:
                continue
            attrs = ""
            if span.attrs:
                attrs = "  " + " ".join(
                    f"{key}={value}" for key, value in sorted(span.attrs.items())
                )
            lines.append(
                f"{'  ' * span.depth}{span.name:<24s} "
                f"{span.duration * 1e3:9.3f} ms{attrs}"
            )
        if self.dropped:
            lines.append(f"... ({self.dropped} spans dropped at capacity "
                         f"{self.capacity})")
        return "\n".join(lines)

    def to_chrome_trace(self) -> dict:
        """Trace-event JSON loadable in chrome://tracing or Perfetto.

        Spans become "X" (complete) events with microsecond timestamps
        relative to the earliest span, all on one pid/tid so the nesting
        is reconstructed from the time intervals.
        """
        ordered = self.ordered()
        base = ordered[0].t0 if ordered else 0.0
        events = []
        for span in ordered:
            event = {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.t0 - base) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": 0,
            }
            if span.attrs:
                event["args"] = {
                    key: value for key, value in span.attrs.items()
                }
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        """Dump :meth:`to_chrome_trace` as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)
            handle.write("\n")

    def reset(self) -> None:
        self.spans.clear()
        self._open.clear()
        self.dropped = 0
        self._next_sid = 0


class _SpanContext:
    __slots__ = ("_stack", "_name", "_span")

    def __init__(self, stack: SpanStack, name: str):
        self._stack = stack
        self._name = name
        self._span = None

    def __enter__(self) -> Span:
        self._span = self._stack.start(self._name)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stack.end(self._span)
