"""The always-on flight recorder: a bounded ring of settled queries.

Aggregate histograms answer "how slow is the p99?"; the flight recorder
answers "what were the last N queries when things went wrong?".  It is
the serving layer's black box: every settled query appends the dict of
its :class:`~repro.obs.record.QueryRecord` (lifecycle stages, outcome
flags, routed backend, cache hit, result count, span-tree digest) into
a bounded thread-safe ring, cheap enough to leave on in production —
one dict build plus one deque append per query, no I/O, memory bounded
by the capacity no matter how long the service runs.

Consumers:

* ``GET /debug/flight`` on the HTTP front door returns the ring as
  JSON, newest last, each record carrying the ``query_id`` that joins
  the query log, slow log, span trees and histogram exemplars;
* :class:`~repro.errors.WorkerCrashedError` carries the ring's tail as
  crash context — the queries that *preceded* a worker death are
  exactly what a post-mortem needs and exactly what aggregate metrics
  destroy.
"""

from __future__ import annotations

import threading
from collections import deque

#: Default ring capacity: enough history to cover a crash window,
#: small enough that /debug/flight stays a cheap scrape.
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """A bounded, thread-safe ring buffer of query records (dicts).

    Records are plain JSON-ready dicts (see
    :meth:`repro.obs.record.QueryRecord.to_dict`); the recorder treats
    them as opaque.  ``capacity`` bounds retained records; the total count
    keeps running so a reader can tell how much history scrolled away.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.total_recorded = 0

    # ------------------------------------------------------------------

    def record(self, record: dict) -> None:
        """Append one settled query's record dict."""
        with self._lock:
            self._ring.append(record)
            self.total_recorded += 1

    def records(self, last: "int | None" = None) -> list[dict]:
        """The retained records, oldest first (``last``: tail only)."""
        with self._lock:
            out = list(self._ring)
        if last is not None:
            out = out[-last:]
        return out

    def measure(self, name: str = "flight"):
        """Space-audit node: deep heap bytes of the retained records."""
        from repro.obs.space import SpaceNode, deep_getsizeof

        with self._lock:
            records = list(self._ring)
        return SpaceNode(
            name,
            children=[
                SpaceNode("records", deep_getsizeof(records), kind="ring",
                          detail={"count": len(records)}),
            ],
            kind="flight_recorder",
            detail={"capacity": self.capacity},
        )

    def snapshot(self) -> dict:
        """JSON-ready view for the ``/debug/flight`` endpoint."""
        with self._lock:
            records = list(self._ring)
            total = self.total_recorded
        return {
            "capacity": self.capacity,
            "total_recorded": total,
            "dropped": max(0, total - len(records)),
            "records": records,
        }

    def clear(self) -> None:
        """Drop all retained records (the total keeps counting)."""
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlightRecorder(capacity={self.capacity}, "
                f"retained={len(self)}, total={self.total_recorded})")
