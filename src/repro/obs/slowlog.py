"""Slow-query log: a bounded record of the K worst queries.

A serving engine cannot keep every query's telemetry, but the handful
of *worst* queries are exactly the ones worth keeping in full detail —
they dominate tail latency and are where the paper's pruning argument
either holds or falls apart.  :class:`SlowQueryLog` retains the
:class:`~repro.obs.record.QueryRecord` of the K slowest queries seen so
far (min-heap on elapsed time), each with its detail: the complete
counter snapshot, the phase seconds and, when span collection was on,
the query's span tree.

Attach one to an engine (``RingRPQEngine(..., slow_log=log)``), a
service or a benchmark run (``run_benchmark(..., slow_log=log)``); they
build the detail only after :meth:`would_keep`, so the common fast
query costs one float comparison.
"""

from __future__ import annotations

import heapq
import json


class SlowQueryLog:
    """Bounded log of the ``capacity`` slowest queries seen so far."""

    __slots__ = ("capacity", "_heap", "_seq", "total_recorded")

    def __init__(self, capacity: int = 10):
        if capacity < 1:
            raise ValueError("slow-query log capacity must be >= 1")
        self.capacity = capacity
        # (elapsed, seq, record): ties broken by arrival order so the
        # eviction decision is deterministic.
        self._heap: list[tuple] = []
        self._seq = 0
        self.total_recorded = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def threshold(self) -> float:
        """Minimum elapsed time a new query needs to be retained."""
        if len(self._heap) < self.capacity:
            return 0.0
        return self._heap[0][0]

    def would_keep(self, elapsed: float) -> bool:
        """Cheap pre-check: would a query this slow be retained?

        Callers use this to skip building the counter snapshot (and
        especially the span tree) for fast queries.
        """
        return len(self._heap) < self.capacity or elapsed > self._heap[0][0]

    def offer(self, record) -> bool:
        """Offer one finished query; returns True when it was retained.

        Every offer counts toward :attr:`total_recorded`, retained or
        not.
        """
        self.total_recorded += 1
        if not self.would_keep(record.elapsed):
            return False
        entry = (record.elapsed, self._seq, record)
        self._seq += 1
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, entry)
        else:
            heapq.heapreplace(self._heap, entry)
        return True

    def entries(self) -> list:
        """The retained records, slowest first."""
        return [record for _, _, record in
                sorted(self._heap, key=lambda e: (-e[0], e[1]))]

    def clear(self) -> None:
        self._heap.clear()
        self.total_recorded = 0

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "total_recorded": self.total_recorded,
            "entries": [{**record.to_dict(), **record.detail()}
                        for record in self.entries()],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format_table(self) -> str:
        """Human-readable rendering, slowest first."""
        lines = [f"slow-query log: {len(self._heap)}/{self.capacity} "
                 f"retained of {self.total_recorded} recorded"]
        for rank, entry in enumerate(self.entries(), 1):
            flags = []
            if entry.timed_out:
                flags.append("TIMEOUT")
            if entry.truncated:
                flags.append("TRUNCATED")
            suffix = f"  [{','.join(flags)}]" if flags else ""
            lines.append(
                f"{rank:3d}. {entry.elapsed * 1e3:10.3f} ms  "
                f"{entry.n_results:8d} rows  {entry.query}{suffix}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SlowQueryLog({len(self._heap)}/{self.capacity}, "
                f"threshold={self.threshold:.4f}s)")
