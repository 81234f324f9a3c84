"""The metrics registry: counters, gauges, phase timers, histograms.

The paper's cost arguments are stated in *index operations* — wavelet
nodes visited, rank calls, backward-search steps — not in wall-clock
time (§4.5; likewise the ring paper, arXiv:2111.04556, accounts cost
per succinct-structure operation).  Those operations are counted on
every query by :class:`~repro.core.result.QueryStats`; :class:`Metrics`
adds what costs too much to leave always on: a flat named-counter
table, per-phase elapsed seconds, latency histograms and, optionally,
a bounded span stack.

Everything defaults to :data:`NULL_METRICS`, a no-op sink whose
``enabled`` flag is ``False``; hot paths hoist that flag into a local
and skip all metric work, so the disabled cost is one attribute load
per coarse-grained call, never per elementary operation.
"""

from __future__ import annotations

import json
import time

from repro.obs.histogram import DEFAULT_GROWTH, LogHistogram
from repro.obs.spans import SpanStack


class _PhaseTimer:
    """Context manager accumulating elapsed seconds into one phase."""

    __slots__ = ("_metrics", "_name", "_start")

    def __init__(self, metrics: "Metrics", name: str):
        self._metrics = metrics
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._start = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        self._metrics.add_phase(self._name, time.monotonic() - self._start)


class Metrics:
    """A mutable registry of counters, gauges, phase timers and
    histograms.

    Parameters
    ----------
    span_capacity:
        Maximum number of retained hierarchical spans
        (:class:`repro.obs.spans.SpanStack`).  ``0`` (the default)
        disables span collection — :attr:`spans` stays ``None`` and the
        guarded engine paths skip all span work.

    Notes
    -----
    One ``Metrics`` instance is not thread-safe; give each evaluation
    thread its own registry and merge afterwards with :meth:`merge`.
    """

    #: Hot paths test this flag (hoisted into a local) before doing any
    #: metric work; the null sink sets it to False.
    enabled = True

    __slots__ = ("counters", "gauges", "phase_seconds", "histograms",
                 "spans")

    def __init__(self, span_capacity: int = 0):
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.phase_seconds: dict[str, float] = {}
        self.histograms: dict[str, LogHistogram] = {}
        self.spans: SpanStack | None = (
            SpanStack(span_capacity) if span_capacity > 0 else None
        )

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self.counters.get(name, 0)

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its current ``value``.

        Gauges are point-in-time levels (queue depth, in-flight
        queries, cache size), overwritten rather than accumulated; the
        serving layer refreshes them on every state change.
        """
        self.gauges[name] = value

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Current value of gauge ``name`` (``default`` when never set)."""
        return self.gauges.get(name, default)

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------

    def observe(self, name: str, value: float,
                growth: float = DEFAULT_GROWTH,
                exemplar: "str | None" = None) -> None:
        """Record ``value`` into histogram ``name`` (created lazily).

        ``exemplar`` (a query id) is retained as the landing bucket's
        last exemplar and rendered by the Prometheus exporter, so a
        tail bucket links to a concrete query.
        """
        histograms = self.histograms
        hist = histograms.get(name)
        if hist is None:
            hist = histograms[name] = LogHistogram(growth)
        hist.observe(value, exemplar)

    def histogram(self, name: str) -> LogHistogram | None:
        """Histogram ``name``, or ``None`` when nothing was observed."""
        return self.histograms.get(name)

    # ------------------------------------------------------------------
    # Phase timers
    # ------------------------------------------------------------------

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into phase ``name``."""
        phases = self.phase_seconds
        phases[name] = phases.get(name, 0.0) + seconds

    def phase(self, name: str) -> _PhaseTimer:
        """Context manager timing a block into phase ``name``::

            with metrics.phase("build"):
                ...
        """
        return _PhaseTimer(self, name)

    # ------------------------------------------------------------------
    # Aggregation / export
    # ------------------------------------------------------------------

    def merge(self, other: "Metrics") -> None:
        """Fold another registry's counters, phases and histograms in."""
        for name, value in other.counters.items():
            self.inc(name, value)
        # Gauges are levels, not totals: the most recent reading wins.
        self.gauges.update(other.gauges)
        for name, seconds in other.phase_seconds.items():
            self.add_phase(name, seconds)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = LogHistogram(hist.growth)
            mine.merge(hist)
        if self.spans is not None and other.spans is not None:
            self.spans.absorb(other.spans)

    def reset(self) -> None:
        """Clear counters, gauges, phases, histograms and spans."""
        self.counters.clear()
        self.gauges.clear()
        self.phase_seconds.clear()
        self.histograms.clear()
        if self.spans is not None:
            self.spans.reset()

    def snapshot(self) -> dict:
        """Plain-dict view: counters, gauges, phases and histograms."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "phase_seconds": dict(sorted(self.phase_seconds.items())),
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The :meth:`snapshot` as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Metrics(counters={len(self.counters)}, "
            f"phases={len(self.phase_seconds)})"
        )


class _NullPhaseTimer:
    """Shared do-nothing context manager for the null sink."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhaseTimer":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_TIMER = _NullPhaseTimer()


class NullMetrics:
    """The default no-op sink; every method discards its input.

    ``enabled`` is a plain ``False`` class attribute so guarded hot
    paths pay only the attribute load.  All instances are
    interchangeable; use the module-level :data:`NULL_METRICS`.
    """

    enabled = False
    #: Guarded span paths test ``obs.spans`` against None.
    spans = None

    __slots__ = ()

    def inc(self, name: str, n: int = 1) -> None:
        return None

    def count(self, name: str) -> int:
        return 0

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def gauge(self, name: str, default: float = 0.0) -> float:
        return default

    def observe(self, name: str, value: float,
                growth: float = DEFAULT_GROWTH,
                exemplar: "str | None" = None) -> None:
        return None

    def histogram(self, name: str) -> None:
        return None

    def add_phase(self, name: str, seconds: float) -> None:
        return None

    def phase(self, name: str) -> _NullPhaseTimer:
        return _NULL_TIMER

    @property
    def counters(self) -> dict[str, int]:
        return {}

    @property
    def gauges(self) -> dict[str, float]:
        return {}

    @property
    def phase_seconds(self) -> dict[str, float]:
        return {}

    @property
    def histograms(self) -> dict[str, LogHistogram]:
        return {}

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "phase_seconds": {},
                "histograms": {}}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_METRICS"


#: The process-wide default sink.
NULL_METRICS = NullMetrics()
