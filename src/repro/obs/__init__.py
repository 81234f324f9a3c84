"""Observability: phase timers, histograms, spans and the query record.

The paper argues about *where time goes* — wavelet nodes pruned by the
automaton's ``B[v]``/``D[v]`` masks versus backward-search steps — so
this subpackage makes that accounting first-class:

* :mod:`repro.obs.metrics` — the :class:`Metrics` registry (named
  counters, gauges, per-phase seconds, histograms, an optional span
  stack) and the no-op default :data:`NULL_METRICS`;
* :mod:`repro.obs.explain` — ``repro explain``: the plan, and with
  ``--analyze`` the run's :class:`QueryRecord` next to the estimates
  (imported lazily, not re-exported here);
* :mod:`repro.obs.spans` — hierarchical spans (:class:`SpanStack`)
  with Chrome ``chrome://tracing`` export, threaded through the engine
  behind the same hoisted ``enabled`` guards;
* :mod:`repro.obs.histogram` — log-bucketed :class:`LogHistogram` with
  deterministic p50/p90/p99;
* :mod:`repro.obs.record` — :class:`QueryRecord`, the one description
  of a finished query; the three sinks below are views of it;
* :mod:`repro.obs.slowlog` — :class:`SlowQueryLog`, the records of the
  K worst queries with their counter snapshots and span trees;
* :mod:`repro.obs.export` — :func:`prometheus_text`, the Prometheus
  text-format exporter over any :class:`Metrics`, and the pages the
  HTTP front door serves over a live service (``/metrics``,
  ``/debug/vars``), process vitals included, read at scrape time;
* :mod:`repro.obs.querylog` — :class:`QueryLogWriter`, every settled
  query's record as one JSON line keyed by ``query_id``;
* :mod:`repro.obs.lifecycle` — :class:`QueryLifecycle`, the per-request
  audit plane's ordered monotonic stage marks (submit → queue → worker
  → settle) whose telescoping differences are the ``serve.stage.*``
  latency decomposition;
* :mod:`repro.obs.flight` — :class:`FlightRecorder`, the always-on
  bounded ring of the last N settled queries' record dicts
  (``/debug/flight``, worker-crash post-mortem context);
* :mod:`repro.obs.space` — the space-audit plane: :class:`SpaceNode`
  trees assembled from every storage structure's ``measure()`` hook
  (ring columns, CSR matrices, snapshot segments, serving-tier mutable
  state), published as ``repro_space_bytes{component=...}`` gauges,
  ``/debug/space`` and the ``repro space`` CLI.

Operation *counters* of the engine itself (nodes visited vs pruned per
§4.1–§4.3 phase) live in :class:`repro.core.result.QueryStats` and are
always collected; this package adds the timers, histograms and spans
that are too costly to leave always-on.
"""

from repro.obs.export import label_key, prometheus_text
from repro.obs.flight import FlightRecorder
from repro.obs.histogram import LogHistogram
from repro.obs.lifecycle import QueryLifecycle
from repro.obs.metrics import NULL_METRICS, Metrics, NullMetrics
from repro.obs.querylog import QueryLogWriter, read_query_log
from repro.obs.record import QueryRecord
from repro.obs.slowlog import SlowQueryLog
from repro.obs.space import (
    SpaceNode,
    audit_manifest,
    audit_metrics,
    audit_service,
    deep_getsizeof,
    publish_space_gauges,
)
from repro.obs.spans import Span, SpanStack

__all__ = [
    "FlightRecorder",
    "LogHistogram",
    "Metrics",
    "NULL_METRICS",
    "NullMetrics",
    "QueryLifecycle",
    "QueryLogWriter",
    "QueryRecord",
    "SlowQueryLog",
    "Span",
    "SpaceNode",
    "SpanStack",
    "audit_manifest",
    "audit_metrics",
    "audit_service",
    "deep_getsizeof",
    "label_key",
    "prometheus_text",
    "publish_space_gauges",
    "read_query_log",
]
