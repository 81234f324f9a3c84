"""Metric exporters: Prometheus text exposition over a Metrics registry.

The ROADMAP north-star is an engine serving real traffic, and the
lingua franca of serving telemetry is the Prometheus text format.  This
module renders any :class:`~repro.obs.metrics.Metrics` (or a plain
snapshot dict) into that format:

* counters      → ``<prefix>_<name>_total``  (TYPE counter)
* gauges        → ``<prefix>_<name>``  (TYPE gauge)
* phase seconds → ``<prefix>_phase_seconds_total{phase="..."}``
* histograms    → ``<prefix>_<name>`` with cumulative ``_bucket{le=}``
  series plus ``_sum`` and ``_count`` (TYPE histogram); buckets that
  retained an exemplar render an OpenMetrics-style
  ``# {query_id="q42"} value`` suffix, so a tail bucket links straight
  to a concrete query in the flight recorder / query log

Metric names are sanitised to ``[a-zA-Z_][a-zA-Z0-9_]*`` (dots and
dashes become underscores), matching the exposition-format grammar.

Over a live service, :func:`scrape_metrics` and :func:`debug_vars` are
what ``/metrics`` and ``/debug/vars`` on the HTTP front door (and the
REPL's ``.metrics`` / ``.vars``) return.  The levels no query path
keeps — the ``process.*`` vitals and the ``space.bytes`` audit — are
read when a page is asked for, so nothing runs between scrapes.
"""

from __future__ import annotations

import gc
import os
import re
import sys
import threading
import time

from repro.obs.histogram import LogHistogram

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

#: Content type mandated by the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _sanitize(name: str) -> str:
    name = _NAME_OK.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _format_value(value: float) -> str:
    # Prometheus accepts Go-style floats; repr() keeps full precision
    # and renders integral floats as e.g. "3.0" which is valid.
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def unescape_label(value: str) -> str:
    """Inverse of the exposition-format label escaping (for tests and
    scrape round-trips): processes ``\\\\`` and ``\\"`` sequentially."""
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value) and value[i + 1] in ('\\', '"'):
            out.append(value[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def label_key(family: str, **labels: object) -> str:
    """Registry key for one labelled gauge sample.

    The flat :class:`~repro.obs.metrics.Metrics` gauge registry maps
    string keys to floats; a labelled sample (the space-audit plane's
    ``space.bytes{component="index.ring"}``) encodes its label set into
    the key in exposition syntax, already escaped.  The exporter then
    renders the family name once per ``# TYPE`` line and each key as its
    own sample.  Label values are escaped here — callers pass raw
    strings.
    """
    if not labels:
        return family
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return f"{family}{{{inner}}}"


#: A gauge key carrying an encoded label set: ``family{name="value"}``.
_LABELED_KEY = re.compile(r"^(?P<family>[^{]+)\{(?P<labels>.*)\}$")


def _histogram_lines(full_name: str, hist: LogHistogram) -> list[str]:
    lines = [
        f"# TYPE {full_name} histogram",
    ]
    cumulative = 0
    exemplars = getattr(hist, "exemplars", None) or {}
    for key, (upper, count) in zip(hist.bucket_keys(),
                                   hist.bucket_bounds()):
        cumulative += count
        line = (
            f'{full_name}_bucket{{le="{_format_value(upper)}"}} {cumulative}'
        )
        exemplar = exemplars.get(key)
        if exemplar is not None:
            # OpenMetrics-style exemplar: the last query id observed in
            # this bucket, so a p99 bucket links to a concrete query.
            label, value = exemplar
            line += (f' # {{query_id="{_escape_label(str(label))}"}} '
                     f"{_format_value(value)}")
        lines.append(line)
    lines.append(f'{full_name}_bucket{{le="+Inf"}} {hist.count}')
    lines.append(f"{full_name}_sum {_format_value(hist.total)}")
    lines.append(f"{full_name}_count {hist.count}")
    return lines


def prometheus_text(metrics, prefix: str = "repro") -> str:
    """Render ``metrics`` in the Prometheus text exposition format.

    ``metrics`` is a :class:`~repro.obs.metrics.Metrics`-like object:
    anything with ``counters``, ``phase_seconds`` and ``histograms``
    mappings (so :data:`~repro.obs.metrics.NULL_METRICS` renders as an
    empty document).
    """
    prefix = _sanitize(prefix)
    lines: list[str] = []

    counters = metrics.counters
    for name in sorted(counters):
        full = f"{prefix}_{_sanitize(name)}_total"
        lines.append(f"# TYPE {full} counter")
        lines.append(f"{full} {counters[name]}")

    gauges = getattr(metrics, "gauges", None) or {}
    typed_gauges: set[str] = set()
    for name in sorted(gauges):
        labeled = _LABELED_KEY.match(name)
        if labeled:
            full = f"{prefix}_{_sanitize(labeled.group('family'))}"
            sample = f"{full}{{{labeled.group('labels')}}}"
        else:
            full = f"{prefix}_{_sanitize(name)}"
            sample = full
        if full not in typed_gauges:
            typed_gauges.add(full)
            lines.append(f"# TYPE {full} gauge")
        lines.append(f"{sample} {_format_value(gauges[name])}")

    phases = metrics.phase_seconds
    if phases:
        full = f"{prefix}_phase_seconds_total"
        lines.append(f"# TYPE {full} counter")
        for name in sorted(phases):
            lines.append(
                f'{full}{{phase="{_sanitize(name)}"}} '
                f"{_format_value(phases[name])}"
            )

    histograms = metrics.histograms
    for name in sorted(histograms):
        lines.extend(
            _histogram_lines(f"{prefix}_{_sanitize(name)}", histograms[name])
        )

    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Scrape time: the pages of a live service
# ----------------------------------------------------------------------


def _peak_rss_bytes() -> float:
    if _resource is None:  # pragma: no cover - non-POSIX platforms
        return 0.0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return float(peak if sys.platform == "darwin" else peak * 1024)


def read_rss_bytes() -> float:
    """Current resident set size in bytes: ``/proc/self/statm`` where
    it exists, else the peak ``getrusage`` reports."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            return float(int(handle.read().split()[1]) * _PAGE_SIZE)
    except (OSError, IndexError, ValueError):
        return _peak_rss_bytes()


def process_gauges(started_at: float) -> dict[str, float]:
    """The process vitals, read now.  Exported as the conventional
    ``repro_process_*`` family; ``started_at`` is a monotonic stamp."""
    collections = collected = 0
    for gen in gc.get_stats():
        collections += gen.get("collections", 0)
        collected += gen.get("collected", 0)
    times = os.times()
    rss = read_rss_bytes()
    return {
        "process.rss_bytes": rss,
        "process.peak_rss_bytes": max(rss, _peak_rss_bytes()),
        "process.cpu_seconds": times.user + times.system,
        "process.uptime_seconds": time.monotonic() - started_at,
        "process.gc_collections": float(collections),
        "process.gc_collected_objects": float(collected),
        "process.threads": float(threading.active_count()),
    }


def _read_levels(service) -> None:
    """Write the space audit and the process vitals into the service's
    registry.  The audit runs first, so it sees the registry as
    ``/debug/space`` does."""
    metrics = service.metrics
    if not metrics.enabled:
        return
    from repro.obs.space import audit_service, publish_space_gauges

    vitals = process_gauges(service.started_at)
    with service.obs_lock:
        try:
            publish_space_gauges(metrics, audit_service(service))
        except Exception:
            # A scrape racing a service close must not take /metrics
            # down; the previously published gauges keep rendering.
            pass
        for name, value in vitals.items():
            metrics.set_gauge(name, value)


def scrape_metrics(service) -> str:
    """The ``/metrics`` document of a live service, read now."""
    _read_levels(service)
    with service.obs_lock:
        return prometheus_text(service.metrics)


def debug_vars(service) -> dict:
    """The ``/debug/vars`` snapshot of a live service, read now: the
    registry, the slow log without its span trees, stats and health."""
    _read_levels(service)
    metrics = service.metrics
    with service.obs_lock:
        out: dict = {
            "counters": dict(sorted(metrics.counters.items())),
            "gauges": dict(sorted(metrics.gauges.items())),
            "phase_seconds": dict(sorted(metrics.phase_seconds.items())),
            "histograms": {
                name: hist.summary()
                for name, hist in sorted(metrics.histograms.items())
            },
        }
        if service.slow_log is not None:
            out["slow_log"] = service.slow_log.to_dict()
            for entry in out["slow_log"]["entries"]:
                # Span trees belong in the slow log proper; keep the
                # snapshot scrape-sized.
                entry.pop("span_tree", None)
    out["service"] = service.stats()
    out["healthz"] = service.healthz()
    return out
