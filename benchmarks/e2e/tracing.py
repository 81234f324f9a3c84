"""The benchmark's own spans, installed from outside the program.

A :class:`Tracer` wraps public callables of the program (``wrap``) and
records one span per call: name, start, end, the span that caused it
and the request it belongs to.  Spans stay in memory and are written
out once, when the traced pass is over.  A layer is the part of a span
name before the first dot; a layer's *self time* is its spans' duration
minus the part their child spans cover.
"""

from __future__ import annotations

import json
import time

NAME, START, END, PARENT, REQUEST, SIZE = range(6)


class Tracer:
    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, request, size]``
        self.spans: list[list] = []
        self.request = -1
        self._open: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------

    def begin(self, name: str, size: int = 0) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.request, size])
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._open.pop()

    def wrap(self, owner, attribute: str, name: str, size=None) -> None:
        """Replace ``owner.attribute`` by a version that records a span
        named ``name`` around every call.  ``size(args)`` gives the
        batch size of a call, for per-item costs."""
        raw = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        function = raw.__func__ if isinstance(raw, classmethod) else raw
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name, size(args) if size else 0)
            try:
                return function(*args, **kwargs)
            finally:
                end(index)

        traced.__wrapped__ = function
        self._undo.append((owner, attribute, raw))
        setattr(owner, attribute,
                classmethod(traced) if isinstance(raw, classmethod)
                else traced)

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attribute, raw = self._undo.pop()
            setattr(owner, attribute, raw)

    # -- analysis ------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def total(self, name: str) -> tuple[float, int, int]:
        """``(seconds, calls, summed size)`` of the spans named ``name``."""
        seconds = calls = size = 0
        for s in self.spans:
            if s[NAME] == name:
                seconds += s[END] - s[START]
                calls += 1
                size += s[SIZE]
        return seconds, calls, size

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its children's."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_self_shares(self) -> dict[str, float]:
        """Each layer's self time as a share of all root-span time."""
        roots = sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)
        layers: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = span[NAME].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
        return {layer: (own / roots if roots else 0.0)
                for layer, own in layers.items()}

    def dump(self, path, **header) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                **header,
                "fields": ["name", "start", "end", "parent", "request",
                           "size"],
                "spans": self.spans,
            }, handle, separators=(",", ":"))
