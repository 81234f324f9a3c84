"""The concurrent query service: a thread pool over one shared ring.

The ring is an immutable succinct index and the engine's evaluation is
re-entrant (every per-call mutable belongs to a private context — see
``repro.core.engine._EvalContext``), so one
:class:`~repro.core.engine.RingRPQEngine` serves any number of worker
threads.  :class:`QueryService` supplies the machinery around that
fact:

* **admission control** — a bounded pending queue with fast-reject
  (:class:`~repro.errors.OverloadedError`) and an optional in-flight
  cap (:mod:`repro.serve.admission`);
* **deadlines and cancellation** — per-query timeouts, absolute
  deadlines, and a :meth:`cancel` API; all three ride the engine's
  cooperative ``_Budget`` ticks, so interruption lands at safe points
  and every partial result is well-formed;
* **result caching** — an LRU keyed on (normalized expression, bound
  endpoints, graph fingerprint) with completeness-aware serving rules
  (:mod:`repro.serve.cache`);
* **graceful degradation** — a query whose deadline expires returns
  its partial result tagged ``truncated`` (and ``timed_out``) instead
  of raising, and :meth:`submit_with_retry` backs off and retries
  transient rejections.

Under CPython's GIL the pool does **not** scale single-query CPU-bound
throughput — the workers exist for latency isolation (slow queries
don't head-of-line-block fast ones behind one loop), bounded-queue
load shedding, and cache-amplified aggregate throughput on repeated
workloads; ``docs/serving.md`` discusses the numbers honestly.
"""

from __future__ import annotations

import inspect
import itertools
import queue
import threading
import time

from repro.core.engine import RingRPQEngine
from repro.core.query import RPQ, as_query
from repro.core.result import QueryResult, QueryStats
from repro.errors import OverloadedError, ServiceClosedError
from repro.obs.lifecycle import QueryLifecycle
from repro.obs.metrics import Metrics, NULL_METRICS
from repro.obs.record import QueryRecord
from repro.serve.admission import AdmissionController
from repro.serve.cache import ResultCache
from repro.serve.keys import index_fingerprint, query_cache_key

_SHUTDOWN = object()

#: Every gauge under these prefixes is a point-in-time *load* level and
#: is zeroed by :meth:`QueryService.close` in one registry-driven sweep
#: — regardless of which tier (threads, process pool, HTTP front door,
#: router, cache) registered it.  Keeping this list short and
#: prefix-based is the fix for the gauge-lifecycle asymmetry where each
#: new tier had to remember to zero its own gauges ad hoc.
_LOAD_GAUGE_PREFIXES = ("serve.", "router.")


class Ticket:
    """Handle on one submitted query.

    ``result()`` blocks until the query settles (or raises what the
    evaluation raised); ``cancel()`` requests cooperative cancellation
    — queued queries never start, running ones stop at the next budget
    tick with a well-formed partial result tagged ``cancelled``.
    """

    __slots__ = ("query_id", "query", "timeout", "limit", "deadline",
                 "submitted_at", "lifecycle", "cancel_event",
                 "_on_cancel", "_on_settle", "_done", "_result",
                 "_error")

    def __init__(self, query_id: str, query: RPQ,
                 timeout: float | None, limit: int | None,
                 deadline: float | None):
        self.query_id = query_id
        self.query = query
        self.timeout = timeout
        self.limit = limit
        self.deadline = deadline
        self.submitted_at = time.monotonic()
        # Monotonic stage marks added as the query moves submit →
        # queue → worker → settle; readable after settlement as
        # ``ticket.lifecycle.stage_durations()``.
        self.lifecycle = QueryLifecycle(query_id, t=self.submitted_at)
        self.cancel_event = threading.Event()
        # Forwarding hook for executors whose cancel signal lives
        # outside this process (the process tier points it at the
        # running worker's shared cancel sequence).  Set by the
        # dispatching thread, invoked from whichever thread cancels.
        self._on_cancel = None
        # Settlement hook for executors that wait without a thread (the
        # HTTP front door points it at an asyncio future); invoked
        # exactly once, from whichever thread settles, after the done
        # event is set.  A hook attached post-settlement must be fired
        # by the attacher (check ``done()`` after assigning).
        self._on_settle = None
        self._done = threading.Event()
        self._result: QueryResult | None = None
        self._error: BaseException | None = None

    def cancel(self) -> None:
        """Request cooperative cancellation."""
        self.cancel_event.set()
        hook = self._on_cancel
        if hook is not None:
            hook()

    @property
    def cancelled(self) -> bool:
        """True when cancellation has been requested."""
        return self.cancel_event.is_set()

    def done(self) -> bool:
        """True once the query has settled."""
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> QueryResult:
        """Block for the result; raises the evaluation's error, or
        :class:`TimeoutError` when the wait itself times out."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query {self.query_id} not settled within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _settle(self, result: QueryResult | None,
                error: BaseException | None = None) -> None:
        self._result = result
        self._error = error
        self._done.set()
        hook = self._on_settle
        if hook is not None:
            hook()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done() else (
            "cancelled" if self.cancelled else "pending"
        )
        return f"Ticket({self.query_id}, {state})"


class QueryService:
    """Thread-pool RPQ serving over one shared immutable ring.

    Parameters
    ----------
    index:
        The :class:`~repro.ring.builder.RingIndex` to serve.
    workers:
        Worker-thread count.
    max_pending:
        Admission bound: queued + executing queries beyond this are
        fast-rejected with :class:`OverloadedError`.
    max_inflight:
        Optional cap on concurrently *executing* queries (defaults to
        the worker count by construction).
    cache_size:
        Result-cache capacity; ``0`` disables caching.
    default_timeout / default_limit:
        Applied when :meth:`submit` gets no per-query values.
    metrics:
        A :class:`~repro.obs.metrics.Metrics` registry for service
        counters, gauges and latency histograms.  Workers evaluate
        against private per-thread registries (the registry class is
        not thread-safe) and merge into this one under a lock after
        every query.
    slow_log:
        A :class:`~repro.obs.slowlog.SlowQueryLog`; the service owns
        recording (under its lock — the log is not thread-safe), so
        the engine is built without one.
    query_log:
        A :class:`~repro.obs.querylog.QueryLogWriter`; every settled
        query (cache hits and errors included) appends its
        :class:`~repro.obs.record.QueryRecord` as one JSON line, so
        log lines join the slow log and span trees on ``query_id``.
        The writer is thread-safe; the service writes outside its own
        lock.
    flight:
        A :class:`~repro.obs.flight.FlightRecorder`; every settled
        query (cache hits and errors included) appends the same
        record's dict — lifecycle stage decomposition, outcome flags,
        backend, cache verdict, span digest — served live at
        ``/debug/flight`` and dumped into
        :class:`~repro.errors.WorkerCrashedError` context by the
        process tier.  The recorder has its own lock; the service
        appends outside its own.
    engine:
        Optionally a pre-configured engine over ``index`` (ablations,
        scalar reference, custom prepare-cache size).  Its ``slow_log``
        should be ``None``; the service records instead.
    """

    def __init__(
        self,
        index,
        workers: int = 4,
        max_pending: int = 64,
        max_inflight: int | None = None,
        cache_size: int = 128,
        default_timeout: float | None = None,
        default_limit: int | None = None,
        metrics=None,
        slow_log=None,
        query_log=None,
        flight=None,
        engine=None,
        retry_after: float = 0.05,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.index = index
        self.engine = engine if engine is not None else RingRPQEngine(index)
        self.workers = workers
        self.default_timeout = default_timeout
        self.default_limit = default_limit
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.slow_log = slow_log
        self.query_log = query_log
        self.flight = flight
        self.started_at = time.monotonic()
        # Cumulative engine-execution seconds per worker slot, fed by
        # each query's ``execute`` lifecycle stage; the source for the
        # per-worker busy-seconds counters and utilization gauges.
        self._worker_busy = [0.0] * workers
        self.cache = ResultCache(cache_size)
        self.admission = AdmissionController(
            max_pending=max_pending, max_inflight=max_inflight,
            retry_after=retry_after,
        )
        self._fingerprint = index_fingerprint(index)
        # A routing engine decides its backend per query; the decision
        # must join the cache key *before* lookup, or a hit could
        # serve a result whose truncation order belongs to the other
        # backend.  Single-backend engines keep the legacy key shape.
        self._backend_for = getattr(self.engine, "backend_for", None)
        # Custom engines (baselines, test stubs) may predate the
        # query_id parameter; detect support once instead of taxing
        # every evaluation with a try/except.
        try:
            parameters = inspect.signature(
                self.engine.evaluate).parameters
            self._engine_takes_query_id = "query_id" in parameters
        except (TypeError, ValueError):  # pragma: no cover - C callables
            self._engine_takes_query_id = False
        self._queue: queue.Queue = queue.Queue()
        self._tickets: dict[str, Ticket] = {}
        self._lock = threading.Lock()      # tickets / obs merge / slowlog
        self._ids = itertools.count(1)
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(i,),
                name=f"repro-serve-{i}", daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------

    def submit(
        self,
        query: RPQ | str,
        timeout: float | None = None,
        limit: int | None = None,
        deadline: float | None = None,
    ) -> Ticket:
        """Admit one query; returns a :class:`Ticket` immediately.

        ``timeout`` is a per-evaluation wall-clock budget; ``deadline``
        an *absolute* :func:`time.monotonic` instant covering queueing
        too (whichever is tighter wins).  Raises
        :class:`OverloadedError` when admission control rejects, and
        parse errors synchronously (a malformed query never occupies a
        queue slot).  After :meth:`close` every submission raises the
        typed :class:`~repro.errors.ServiceClosedError` (a
        ``RuntimeError`` subclass) so draining front ends can map late
        arrivals to a clean 503 instead of crashing.
        """
        if self._closed:
            raise ServiceClosedError()
        rpq = as_query(query)
        if timeout is None:
            timeout = self.default_timeout
        if limit is None:
            limit = self.default_limit

        obs = self.metrics
        backend = (self._backend_for(rpq)
                   if self._backend_for is not None else None)
        key = query_cache_key(rpq, self._fingerprint, backend=backend)
        cached = self.cache.lookup(key, limit)
        query_id = f"q{next(self._ids)}"
        if cached is not None:
            # lookup() materialised a fresh QueryResult, so stamping
            # the correlation id never mutates a shared cache entry.
            cached.stats.query_id = query_id
            ticket = Ticket(query_id, rpq, timeout, limit, deadline)
            if obs.enabled:
                with self._lock:
                    obs.inc("serve.submitted")
                    obs.inc("serve.cache_hits")
            self._settle(ticket, cached)
            return ticket

        ticket = Ticket(query_id, rpq, timeout, limit, deadline)
        self.admission.admit()   # raises OverloadedError on rejection
        ticket.lifecycle.mark("admitted")
        with self._lock:
            self._tickets[query_id] = ticket
            if obs.enabled:
                obs.inc("serve.submitted")
                obs.inc("serve.cache_misses")
                self._refresh_gauges(obs)
        self._queue.put((key, ticket))
        return ticket

    def submit_with_retry(
        self,
        query: RPQ | str,
        retries: int = 5,
        backoff: float | None = None,
        backoff_factor: float = 2.0,
        **kwargs,
    ) -> Ticket:
        """Like :meth:`submit`, but retries transient rejections.

        On :class:`OverloadedError` sleeps the error's suggested
        ``retry_after`` (or ``backoff``) growing by ``backoff_factor``
        per attempt; re-raises after ``retries`` failed attempts.
        """
        delay = backoff
        for attempt in range(retries + 1):
            try:
                return self.submit(query, **kwargs)
            except OverloadedError as err:
                if attempt == retries:
                    raise
                pause = delay if delay is not None else err.retry_after
                time.sleep(pause * (backoff_factor ** attempt))
        raise AssertionError("unreachable")

    def cancel(self, query_id: str) -> bool:
        """Request cancellation of a submitted query.

        Returns True when the query was still live (queued or
        running); its ticket then settles with ``stats.cancelled`` —
        queued queries never start, running ones stop at the next
        budget tick.
        """
        with self._lock:
            ticket = self._tickets.get(query_id)
        if ticket is None or ticket.done():
            return False
        ticket.cancel()
        return True

    def evaluate(self, query: RPQ | str, **kwargs) -> QueryResult:
        """Submit (with retry) and block for the result."""
        return self.submit_with_retry(query, **kwargs).result()

    def run(self, queries, **kwargs) -> list[QueryResult]:
        """Drain a sequence of queries through the pool, in order.

        Submits everything (with retry-on-overload) before collecting,
        so up to ``max_pending`` queries overlap; the returned list is
        index-aligned with ``queries``.
        """
        tickets = [self.submit_with_retry(q, **kwargs) for q in queries]
        return [t.result() for t in tickets]

    # ------------------------------------------------------------------
    # Cache / lifecycle
    # ------------------------------------------------------------------

    def invalidate_cache(self) -> int:
        """Drop all cached results (data changed in place); returns
        the number of entries dropped."""
        dropped = self.cache.invalidate()
        obs = self.metrics
        if obs.enabled:
            with self._lock:
                obs.inc("serve.cache_invalidations")
                obs.set_gauge("serve.cache_size", 0)
                obs.set_gauge("serve.cache.bytes", 0)
        return dropped

    def close(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) join the workers.

        Queries still queued are drained and settled normally before
        the workers exit.  All load gauges (queue depth, in-flight,
        cache size, per-worker utilization, the router's misroute
        rate) are zeroed so a telemetry scrape after shutdown reports
        no phantom load — a counter survives its process, a gauge must
        not survive its service.  (Stage *histograms* and per-worker
        busy-seconds counters are cumulative and deliberately survive,
        like every other counter.)
        """
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        if wait:
            for thread in self._threads:
                thread.join()
            # A submit that passed the closed check while the sentinels
            # were being enqueued lands *behind* them and would never
            # be dequeued — settle such stragglers with the typed
            # closed error so no waiter hangs on a dead queue.
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _SHUTDOWN:
                    continue
                _, ticket = item
                self.admission.abandon()
                with self._lock:
                    self._tickets.pop(ticket.query_id, None)
                ticket._settle(None, ServiceClosedError(
                    "service closed before the query was dequeued"
                ))
        obs = self.metrics
        if obs.enabled:
            with self._lock:
                # Registry-driven sweep: *every* load gauge any tier
                # registered (serve.worker.*, serve.pool.*, serve.http.*,
                # serve.cache.*, router.*) is zeroed, so new gauges can
                # never be forgotten here again.  Space gauges
                # (space.bytes{...}) deliberately survive: they describe
                # the index, which outlives the service.
                for name in list(obs.gauges):
                    if name.startswith(_LOAD_GAUGE_PREFIXES):
                        obs.set_gauge(name, 0)
                # The canonical load trio must exist at zero even when
                # the service closed before any query registered them —
                # a post-mortem scrape reads them unconditionally.
                obs.set_gauge("serve.queue_depth", 0)
                obs.set_gauge("serve.inflight", 0)
                obs.set_gauge("serve.cache_size", 0)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """Service-level statistics snapshot."""
        uptime = max(time.monotonic() - self.started_at, 1e-9)
        out = {
            "workers": self.workers,
            "fingerprint": self._fingerprint,
            "cache": self.cache.snapshot(),
            "admission": self.admission.snapshot(),
            "workers_detail": [
                {
                    "worker": i,
                    "busy_seconds": busy,
                    "utilization": min(1.0, busy / uptime),
                }
                for i, busy in enumerate(self._worker_busy)
            ],
        }
        if self.flight is not None:
            out["flight"] = {
                "capacity": self.flight.capacity,
                "retained": len(self.flight),
                "total_recorded": self.flight.total_recorded,
            }
        return out

    @property
    def obs_lock(self) -> threading.Lock:
        """The lock guarding :attr:`metrics` (and the slow log).

        The telemetry plane — :class:`~repro.obs.httpd.TelemetryServer`
        scrapes, :class:`~repro.obs.sampler.ResourceSampler` gauge
        writes — must hold this lock around any registry access, since
        :class:`~repro.obs.metrics.Metrics` itself is not thread-safe.
        """
        return self._lock

    def healthz(self) -> dict:
        """Liveness/load snapshot for the ``/healthz`` endpoint."""
        return {
            "closed": self._closed,
            "workers": self.workers,
            "queue_depth": self.admission.pending,
            "inflight": self.admission.inflight,
            "cache_size": len(self.cache),
            "service_uptime_seconds": time.monotonic() - self.started_at,
        }

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _refresh_gauges(self, obs) -> None:
        # Callers hold self._lock.
        obs.set_gauge("serve.queue_depth", self.admission.pending)
        obs.set_gauge("serve.inflight", self.admission.inflight)
        obs.set_gauge("serve.cache_size", len(self.cache))
        obs.set_gauge("serve.cache.bytes", self.cache.nbytes)

    def _worker_loop(self, worker_id: int) -> None:
        # Per-worker private registry: Metrics is not thread-safe, so
        # each worker accumulates locally and merges under the lock.
        local = (Metrics(span_capacity=64) if self.metrics.enabled
                 else NULL_METRICS)
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            key, ticket = item
            ticket.lifecycle.mark("dequeued")
            if ticket.cancelled:
                # Cancelled while queued: settle without ever running.
                self.admission.abandon()
                stats = QueryStats(query_id=ticket.query_id, cancelled=True)
                self._settle(ticket, QueryResult(stats=stats), local=local)
                continue
            self.admission.start()
            waited = time.monotonic() - ticket.submitted_at
            try:
                result = self._evaluate_ticket(ticket, local, worker_id)
                error = None
            except BaseException as exc:  # noqa: BLE001 - settle tickets
                result, error = None, exc
            finally:
                self.admission.finish()
            if error is None:
                self.cache.store(key, ticket.limit, result)
            self._settle(ticket, result, error, local=local,
                         worker_id=worker_id, waited=waited)

    def _evaluate_ticket(self, ticket: Ticket, local, worker_id: int):
        ticket.lifecycle.mark("dispatched")
        timeout = ticket.timeout
        if ticket.deadline is not None:
            remaining = ticket.deadline - time.monotonic()
            if remaining <= 0:
                # Expired while queued: degrade gracefully without
                # touching the index.
                stats = QueryStats(query_id=ticket.query_id)
                stats.timed_out = True
                stats.truncated = True
                return QueryResult(stats=stats)
            timeout = (
                remaining if timeout is None else min(timeout, remaining)
            )
        result = self._run_engine(ticket, timeout, local, worker_id)
        if result.stats.timed_out:
            # Degradation contract: deadline/timeout expiry returns the
            # partial answer tagged truncated, never an error.
            result.stats.truncated = True
        return result

    def _run_engine(self, ticket: Ticket, timeout: float | None,
                    local, worker_id: int):
        """Run one admitted, deadline-clamped query to a result.

        The thread tier calls the shared engine in-process; the
        process tier (:class:`~repro.serve.pool.ProcessQueryService`)
        overrides this with an RPC to its worker process.
        """
        span = None
        spans = local.spans if local.enabled else None
        if spans is not None:
            span = spans.start(f"worker:{worker_id}")
            span.set(query=str(ticket.query), query_id=ticket.query_id)
        kwargs = {}
        if self._engine_takes_query_id:
            kwargs["query_id"] = ticket.query_id
        ticket.lifecycle.mark("worker_started")
        try:
            result = self.engine.evaluate(
                ticket.query,
                timeout=timeout,
                limit=ticket.limit,
                metrics=local,
                cancel=ticket.cancel_event,
                **kwargs,
            )
        finally:
            # The span must close even on an evaluation error — a
            # worker's local registry outlives the query, and a leaked
            # open span would swallow the next query's spans under it.
            if span is not None:
                spans.end(span)
        ticket.lifecycle.mark("worker_finished")
        if span is not None:
            span.set(n_results=len(result.pairs))
        return result

    def _settle(self, ticket: Ticket, result: "QueryResult | None",
                error: "BaseException | None" = None, *,
                local=NULL_METRICS, worker_id: "int | None" = None,
                waited: "float | None" = None) -> None:
        """Settle one query: the only place a served query finishes.

        Cache hits (from :meth:`submit`), queries cancelled while
        queued, engine errors and ordinary completions of either tier
        all end here, so each is described by one
        :class:`~repro.obs.record.QueryRecord` and every sink — stage
        histograms, slow log, flight ring, query log — sees the same
        one.  ``local`` is the worker's private registry holding this
        query's spans and phases; ``worker_id`` / ``waited`` are given
        once the query reached an execution slot.
        """
        ticket.lifecycle.mark("settled")
        if result is None:
            stats, n_results = QueryStats(query_id=ticket.query_id), 0
        else:
            stats, n_results = result.stats, len(result.pairs)
        query_id = ticket.query_id
        # Built before the merge below absorbs (and the reset clears)
        # the worker's span stack: the digest, and the slow log's tree,
        # need this query's spans, which only exist in ``local`` now.
        record = QueryRecord(
            str(ticket.query), stats, n_results,
            f"serve/{self.engine.name}", lifecycle=ticket.lifecycle,
            wait_seconds=waited, worker=worker_id, spans=local.spans,
            error=error,
        )
        busy = record.stages.get("execute", 0.0)
        # "Completed" is settled by a worker without an error; a cache
        # hit or a failure has no engine time worth a slow-log slot.
        completed = error is None and not stats.cached
        obs = self.metrics
        with self._lock:
            self._tickets.pop(query_id, None)
            slow_log = self.slow_log
            if completed and slow_log is not None:
                if slow_log.would_keep(stats.elapsed):
                    record.attach_detail(stats, local)
                slow_log.offer(record)
            if worker_id is not None:
                self._worker_busy[worker_id] += busy
            if obs.enabled:
                if error is not None:
                    obs.inc("serve.errors")
                elif completed:
                    obs.inc("serve.completed")
                    if stats.cancelled:
                        obs.inc("serve.cancelled")
                    if stats.timed_out:
                        obs.inc("serve.timed_out")
                    if waited is not None:
                        obs.observe("serve.wait_seconds", waited)
                    obs.observe("serve.query_seconds", stats.elapsed,
                                exemplar=query_id)
                # The latency decomposition: one observation per
                # lifecycle stage, each exemplar-linked to this query,
                # plus the end-to-end total the stages sum to.
                for stage, seconds in record.stages.items():
                    obs.observe(f"serve.stage.{stage}", seconds,
                                exemplar=query_id)
                obs.observe("serve.e2e_seconds", record.total_seconds,
                            exemplar=query_id)
                if worker_id is not None:
                    obs.inc(f"serve.worker.{worker_id}.queries")
                    # Busy seconds are cumulative work, i.e. a counter
                    # (float-valued, like node_cpu_seconds_total).
                    obs.inc(f"serve.worker.{worker_id}.busy_seconds",
                            busy)
                    uptime = max(
                        time.monotonic() - self.started_at, 1e-9
                    )
                    obs.set_gauge(
                        f"serve.worker.{worker_id}.utilization",
                        min(1.0, self._worker_busy[worker_id] / uptime),
                    )
                if local.enabled:
                    # A worker settled it (a hit moves no load level).
                    obs.merge(local)
                    local.reset()
                    self._refresh_gauges(obs)
        # Both sinks have their own locks; feed them off the service
        # lock, but before settlement so a caller that just got its
        # result always finds the record already in the ring.
        if self.flight is not None:
            self.flight.record(record.to_dict())
        if self.query_log is not None:
            self.query_log.log(record)
        ticket._settle(result, error)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QueryService(workers={self.workers}, "
                f"pending={self.admission.pending}, "
                f"cache={len(self.cache)}/{self.cache.capacity})")
