"""Executing a query log across engines.

:func:`run_benchmark` evaluates every query of a log on every engine
under a shared timeout and result cap, and returns a
:class:`BenchmarkResults` able to answer all the questions Table 2 and
Fig. 8 ask: overall and per-shape summaries, per-pattern timing
distributions, and win counts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.bench.patterns import classify_query
from repro.bench.stats import FiveNumber, Summary, percentile, summarize
from repro.core.engine import offer_slow
from repro.core.query import RPQ


@dataclass
class QueryRecord:
    """Timing of one query on one engine."""

    query: RPQ
    pattern: str
    shape: str  # "cv-class": "c-to-v" or "v-to-v"
    engine: str
    elapsed: float
    timed_out: bool
    truncated: bool
    n_results: int
    storage_ops: int = 0
    #: The full named operation-counter record of the evaluation
    #: (:meth:`QueryStats.operation_counts`): wavelet nodes visited vs
    #: pruned per phase, backward steps, object ranges, …
    counters: dict[str, int] = field(default_factory=dict)


def query_shape_class(query: RPQ) -> str:
    """The paper's two timing buckets: "c-to-v" (at least one constant
    endpoint) vs "v-to-v" (both ends variable)."""
    return "v-to-v" if query.shape() == "vv" else "c-to-v"


@dataclass
class BenchmarkResults:
    """All records of one benchmark run, with aggregation helpers."""

    timeout: float
    records: list[QueryRecord] = field(default_factory=list)

    # ------------------------------------------------------------------

    def engines(self) -> list[str]:
        """Engine names present, insertion-ordered."""
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.engine, None)
        return list(seen)

    def _select(self, engine: str, shape: str | None = None,
                pattern: str | None = None) -> list[QueryRecord]:
        return [
            r for r in self.records
            if r.engine == engine
            and (shape is None or r.shape == shape)
            and (pattern is None or r.pattern == pattern)
        ]

    def summary(self, engine: str, shape: str | None = None) -> Summary:
        """Table 2 row: average / median / timeout count."""
        selected = self._select(engine, shape=shape)
        return summarize(
            [r.elapsed for r in selected],
            [r.timed_out for r in selected],
            self.timeout,
        )

    def mean_storage_ops(self, engine: str,
                         shape: str | None = None) -> float:
        """Average substrate-neutral work (storage operations) per query.

        Timed-out queries contribute the operations they managed to do
        before the deadline, so this *underestimates* the work of the
        engines that time out most.
        """
        selected = self._select(engine, shape=shape)
        if not selected:
            return 0.0
        return sum(r.storage_ops for r in selected) / len(selected)

    def mean_counter(
        self,
        engine: str,
        name: str,
        shape: str | None = None,
        pattern: str | None = None,
    ) -> float:
        """Average of one named operation counter per query.

        ``name`` is any key of
        :meth:`~repro.core.result.QueryStats.operation_counts`; records
        without the counter (e.g. baselines, which only report
        ``storage_ops``) contribute zero.
        """
        selected = self._select(engine, shape=shape, pattern=pattern)
        if not selected:
            return 0.0
        return sum(r.counters.get(name, 0) for r in selected) / len(selected)

    def clamped_times(self, engine: str, shape: str | None = None,
                      pattern: str | None = None) -> list[float]:
        """Per-query timings clamped at the timeout for one cell."""
        return [
            self.timeout if r.timed_out else min(r.elapsed, self.timeout)
            for r in self._select(engine, shape=shape, pattern=pattern)
        ]

    def counter_names(self, engine: str) -> list[str]:
        """All counter names this engine's records carry, sorted."""
        names: set[str] = set()
        for record in self._select(engine):
            names.update(record.counters)
        return sorted(names)

    def operations_by_pattern(
        self, engine: str, names: "list[str] | None" = None
    ) -> dict[str, dict[str, dict[str, float]]]:
        """Operation-count distributions per pattern class for one engine.

        This is the observability companion of the Fig. 8 timing
        boxplots: for every pattern class and every named counter it
        reports ``{"mean", "p50", "p90", "p99"}``, so claims like
        "pruning suppresses wavelet work on ``p*`` queries" become
        checkable numbers instead of wall-clock anecdotes — and a mean
        inflated by one pathological query is visible as a mean far
        above its own p90.
        """
        if names is None:
            names = self.counter_names(engine)
        table: dict[str, dict[str, dict[str, float]]] = {}
        for pattern in self.patterns():
            selected = self._select(engine, pattern=pattern)
            row: dict[str, dict[str, float]] = {}
            for name in names:
                values = [float(r.counters.get(name, 0))
                          for r in selected]
                if not values:
                    row[name] = {"mean": 0.0, "p50": 0.0,
                                 "p90": 0.0, "p99": 0.0}
                    continue
                row[name] = {
                    "mean": sum(values) / len(values),
                    "p50": percentile(values, 50),
                    "p90": percentile(values, 90),
                    "p99": percentile(values, 99),
                }
            table[pattern] = row
        return table

    def pattern_times(self, engine: str, pattern: str) -> list[float]:
        """Clamped per-query timings for one (engine, pattern) cell."""
        return self.clamped_times(engine, pattern=pattern)

    def pattern_summary(self, engine: str,
                        pattern: str) -> FiveNumber | None:
        """Fig. 8 boxplot data for one (engine, pattern) cell."""
        times = self.pattern_times(engine, pattern)
        if not times:
            return None
        return FiveNumber.of(times)

    def patterns(self) -> list[str]:
        """All patterns present, by descending query count."""
        counts: dict[str, int] = defaultdict(int)
        for record in self.records:
            if record.engine == self.engines()[0]:
                counts[record.pattern] += 1
        return sorted(counts, key=lambda p: (-counts[p], p))

    def pattern_wins(self) -> dict[str, str]:
        """Per pattern, the engine with the lowest median time."""
        wins: dict[str, str] = {}
        for pattern in self.patterns():
            best_engine, best_median = None, None
            for engine in self.engines():
                summary = self.pattern_summary(engine, pattern)
                if summary is None:
                    continue
                if best_median is None or summary.median < best_median:
                    best_engine, best_median = engine, summary.median
            if best_engine is not None:
                wins[pattern] = best_engine
        return wins

    def consistency_check(self) -> list[str]:
        """Queries where engines disagree on (untruncated) result counts.

        Returns human-readable descriptions; empty means all engines
        agreed everywhere they completed.
        """
        by_query: dict[str, dict[str, QueryRecord]] = defaultdict(dict)
        for record in self.records:
            by_query[str(record.query)][record.engine] = record
        problems: list[str] = []
        for query_text, by_engine in by_query.items():
            counts = {
                r.n_results
                for r in by_engine.values()
                if not r.timed_out and not r.truncated
            }
            if len(counts) > 1:
                detail = {e: r.n_results for e, r in by_engine.items()
                          if not r.timed_out and not r.truncated}
                problems.append(f"{query_text}: {detail}")
        return problems


def run_benchmark(
    engines: dict[str, object],
    queries: list[RPQ],
    timeout: float = 2.0,
    limit: int | None = 100_000,
    slow_log=None,
) -> BenchmarkResults:
    """Evaluate every query on every engine.

    Engines must expose ``evaluate(query, timeout=..., limit=...)``
    returning a :class:`~repro.core.result.QueryResult` — both the ring
    engine and every baseline do.  Pass a
    :class:`~repro.obs.slowlog.SlowQueryLog` as ``slow_log`` to retain
    the K worst (engine, query) evaluations of the run with their
    counter snapshots.
    """
    results = BenchmarkResults(timeout=timeout)
    for query in queries:
        pattern = classify_query(query)
        shape = query_shape_class(query)
        for name, engine in engines.items():
            outcome = engine.evaluate(query, timeout=timeout, limit=limit)
            stats = outcome.stats
            results.records.append(
                QueryRecord(
                    query=query,
                    pattern=pattern,
                    shape=shape,
                    engine=name,
                    elapsed=stats.elapsed,
                    timed_out=stats.timed_out,
                    truncated=stats.truncated,
                    n_results=len(outcome),
                    storage_ops=stats.storage_ops,
                    counters=stats.operation_counts(),
                )
            )
            if slow_log is not None:
                offer_slow(slow_log, str(query), stats, len(outcome), name)
    return results
