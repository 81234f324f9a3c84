"""The query record: what one finished query looks like, in one place.

A finished query is described by exactly one :class:`QueryRecord`,
built where the query finishes — by the evaluation envelope
(:func:`repro.core.engine.run_query`) for a bare engine, by
:meth:`QueryService._settle <repro.serve.service.QueryService._settle>`
for a served one — and every per-query sink is a *view* of it: the
flight ring keeps ``record.to_dict()``, the query log writes the same
dict as one JSON line, and the slow log keeps the K slowest records
themselves with their :meth:`~QueryRecord.detail`.  So the three agree
on every key they share, ``ts`` included, and a new per-query fact is
added here and nowhere else.  ``docs/observability.md`` ("The query
record") has the field and sink tables.
"""

from __future__ import annotations

import time

_ALWAYS = ("ts", "query_id", "query", "engine", "backend", "n_results",
           "elapsed", "cache_hit")
#: In ``to_dict()`` only when they apply: a flag that is set (``cached``
#: is query-log v1's name for ``cache_hit``), a served query's fields,
#: the digest when spans were on, the error when the engine raised.
_WHEN_SET = ("timed_out", "truncated", "cancelled", "cached", "stages",
             "total_seconds", "wait_seconds", "worker", "span_digest",
             "error", "error_detail")
_DETAIL = ("counters", "phase_seconds", "span_tree")


class QueryRecord:
    """One finished query.

    ``stats`` is the query's :class:`~repro.core.result.QueryStats`
    (a blank one when the engine raised); ``engine`` the label of
    whoever ran it (``"ring"``, ``"serve/routed"``).  The serving tier
    adds ``lifecycle`` (stage marks → ``stages`` / ``total_seconds``),
    ``wait_seconds`` and ``worker``; ``spans`` is the span stack holding
    this query's spans, digested here; ``error`` the exception the
    engine raised.  ``ts`` is wall-clock and defaults to now.
    """

    __slots__ = _ALWAYS + _WHEN_SET + _DETAIL

    def __init__(self, query: str, stats, n_results: int, engine: str, *,
                 ts: "float | None" = None, lifecycle=None,
                 wait_seconds: "float | None" = None,
                 worker: "int | None" = None, spans=None,
                 error: "BaseException | None" = None):
        self.ts = time.time() if ts is None else ts
        self.query_id = stats.query_id
        self.query = query
        self.engine = engine
        self.backend = stats.backend or engine
        self.n_results = n_results
        self.elapsed = stats.elapsed
        self.cache_hit = self.cached = stats.cached
        self.timed_out = stats.timed_out
        self.truncated = stats.truncated
        self.cancelled = stats.cancelled
        self.stages = self.total_seconds = None
        if lifecycle is not None:
            self.stages = lifecycle.stage_durations()
            self.total_seconds = lifecycle.total()
        self.wait_seconds = wait_seconds
        self.worker = worker
        self.span_digest = spans.digest() if spans is not None else None
        self.error = self.error_detail = None
        if error is not None:
            self.error = type(error).__name__
            self.error_detail = str(error)
        self.counters = self.phase_seconds = self.span_tree = None

    def attach_detail(self, stats, obs, root=None) -> None:
        """Attach what only the slow log keeps: the counter snapshot,
        ``obs``'s phase seconds and its span tree (under ``root``).

        Callers do this only after :meth:`SlowQueryLog.would_keep` —
        and, in the serving tier, before the worker-local registry
        ``obs`` is reset.
        """
        self.counters = stats.operation_counts()
        self.phase_seconds = dict(obs.phase_seconds)
        self.span_tree = (obs.spans.tree(root)
                          if obs.spans is not None else None)

    def to_dict(self) -> dict:
        """The JSON-ready dict every sink shares.

        The slow log's detail is *not* in it — a span tree would break
        the flight ring's bounded-memory promise: see :meth:`detail`.
        """
        out = {name: getattr(self, name) for name in _ALWAYS}
        for name in _WHEN_SET:
            value = getattr(self, name)
            if value is not None and value is not False:
                out[name] = value
        return out

    def detail(self) -> dict:
        """The keys a slow-log entry adds to :meth:`to_dict`."""
        out = {"counters": dict(sorted((self.counters or {}).items())),
               "phase_seconds": dict(sorted(
                   (self.phase_seconds or {}).items()))}
        if self.span_tree is not None:
            out["span_tree"] = self.span_tree
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QueryRecord({self.query_id or '-'}, {self.query!r}, "
                f"elapsed={self.elapsed:.4f}s)")
