"""Structured JSON-lines query logging, keyed by query id.

The slow log keeps the K worst queries; dashboards and offline
analysis need the *other* direction too — every query, one compact
line, join-able against the slow log and span trees by ``query_id``.
:class:`QueryLogWriter` appends one JSON object per settled query: the
:meth:`~repro.obs.record.QueryRecord.to_dict` of its record — the same
dict the flight recorder keeps — under a ``schema_version``.  Counters
and span trees are not in it (they multiply the line size ~10x and live
in the slow log for the queries that matter).

``schema_version: 3`` is every v2 key (v1's ``ts``, ``query_id``,
``query``, ``elapsed``, ``n_results``, flags, ``wait_seconds``,
``engine``; v2's ``backend``, ``cache_hit``, ``stages``) plus
``total_seconds``, ``worker``, ``span_digest`` and, for a query whose
engine raised, ``error`` / ``error_detail``.

The writer is thread-safe (one lock around write+flush) and used by
:class:`~repro.serve.QueryService` when constructed with
``query_log=`` — see ``repro serve --query-log``.
"""

from __future__ import annotations

import json
import threading


class QueryLogWriter:
    """Append-only JSON-lines log of settled queries.

    Parameters
    ----------
    target:
        A path (opened for append) or any writable text file object
        (kept open; closed by :meth:`close` only when owned).
    """

    def __init__(self, target):
        if hasattr(target, "write"):
            self._handle = target
            self._owns_handle = False
            self.path = getattr(target, "name", None)
        else:
            self._handle = open(target, "a", encoding="utf-8")
            self._owns_handle = True
            self.path = str(target)
        self.written = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def log(self, record) -> None:
        """Write one :class:`~repro.obs.record.QueryRecord` as a line."""
        line = json.dumps({"schema_version": 3, **record.to_dict()},
                          separators=(",", ":"), sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            self.written += 1

    def close(self) -> None:
        """Flush and close the underlying file (when owned)."""
        with self._lock:
            if self._owns_handle and not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "QueryLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryLogWriter({self.path!r}, written={self.written})"


def read_query_log(path) -> list[dict]:
    """Parse a JSON-lines query log back into records (tests, tools)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
