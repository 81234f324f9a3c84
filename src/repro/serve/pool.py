"""Process-pool serving tier over one shared-memory ring snapshot.

:class:`ProcessQueryService` is the GIL-free sibling of
:class:`~repro.serve.service.QueryService`: same admission control,
result cache, deadlines, cancellation and telemetry — but every worker
is an OS process that *attaches* (never copies) the index from one
``multiprocessing.shared_memory`` segment built by
:class:`~repro.ring.snapshot.SharedIndexHandle`, so N workers evaluate
RPQs on N cores against one physical copy of the succinct index.

Plumbing per worker:

* a duplex :func:`multiprocessing.Pipe` carrying ``("run", seq,
  query_id, query, timeout, limit)`` requests down and ``(status,
  result-or-error, local Metrics, (worker_started, worker_finished))``
  responses up — results ship the full
  :class:`~repro.core.result.QueryStats`, span subtrees and
  histograms, so ``/metrics``, the slow log and EXPLAIN ANALYZE keep
  working unchanged.  The two trailing stamps are the worker's
  ``time.monotonic()`` readings around evaluation; ``CLOCK_MONOTONIC``
  is system-wide on Linux, so the parent splices them into the query's
  :class:`~repro.obs.lifecycle.QueryLifecycle` and the pipe-transfer
  stages fall out as plain differences;
* a shared ``cancel_seq`` value: the parent cancels the in-flight
  query by publishing its sequence number, which the worker's engine
  observes at its next cooperative budget tick (no per-query Event
  objects to leak across the boundary);
* a parent-side manager thread (the base class's worker loop) that
  dispatches, receives and — when the pipe dies because the worker
  crashed — settles the ticket with a typed
  :class:`~repro.errors.WorkerCrashedError` and respawns the worker.

The parent keeps everything stateful: cache, admission, gauges,
query-id minting, slow/query logs.  Workers are stateless evaluators
and can be killed at any time without losing accepted work other than
the single in-flight query.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time

from repro.core.engine import RingRPQEngine
from repro.core.result import QueryResult
from repro.errors import ReproError, WorkerCrashedError
from repro.obs.metrics import Metrics, NULL_METRICS
from repro.ring.snapshot import SharedIndexHandle, attach_token
from repro.serve.service import _LOAD_GAUGE_PREFIXES, QueryService, Ticket

_JOIN_TIMEOUT = 5.0


class _SeqCancelToken:
    """Worker-side cancel token: set once the parent publishes my seq.

    Duck-types the ``threading.Event`` interface the engine's budget
    ticks poll.  Reads the shared value without its lock — the parent
    only ever transitions it *to* this query's sequence number, and a
    missed read is caught by the next tick.
    """

    __slots__ = ("_value", "_seq")

    def __init__(self, value, seq: int):
        self._value = value
        self._seq = seq

    def is_set(self) -> bool:
        return self._value.value == self._seq


def _pool_worker_main(conn, token, worker_id, engine_kwargs,
                      obs_enabled, cancel_value):
    """Worker process body: attach the shared index once, then serve.

    Runs until the parent sends ``("stop",)`` or the pipe closes.  The
    attached mapping is pinned for the process lifetime; the OS
    reclaims it at exit (the segment itself belongs to the parent).
    """
    index = attach_token(token)
    engine = RingRPQEngine(index, **(engine_kwargs or {}))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # parent died: exit quietly
            return
        if msg[0] == "stop":
            conn.close()
            return
        _, seq, query_id, query, timeout, limit = msg
        started = time.monotonic()
        local = Metrics(span_capacity=64) if obs_enabled else NULL_METRICS
        cancel = _SeqCancelToken(cancel_value, seq)
        spans = local.spans if local.enabled else None
        span = None
        try:
            if spans is not None:
                span = spans.start(f"worker:{worker_id}")
                span.set(query=str(query), query_id=query_id)
            try:
                result = engine.evaluate(
                    query,
                    timeout=timeout,
                    limit=limit,
                    metrics=local,
                    cancel=cancel,
                    query_id=query_id,
                )
            finally:
                if span is not None:
                    spans.end(span)
            if span is not None:
                span.set(n_results=len(result.pairs))
            marks = (started, time.monotonic())
            payload = ("ok", result, local if obs_enabled else None, marks)
        except BaseException as exc:  # noqa: BLE001 - ship to parent
            marks = (started, time.monotonic())
            payload = ("err", exc, local if obs_enabled else None, marks)
        try:
            conn.send(payload)
        except Exception:
            # Unpicklable result or error: degrade to a typed, always
            # picklable error rather than killing the worker.
            conn.send((
                "err",
                ReproError(
                    f"worker {worker_id} could not ship its response "
                    f"for {query_id}"
                ),
                None,
                (started, time.monotonic()),
            ))


class _WorkerSlot:
    """One worker process plus its parent-side plumbing."""

    __slots__ = ("proc", "conn", "cancel_value", "seq")

    def __init__(self, proc, conn, cancel_value):
        self.proc = proc
        self.conn = conn
        self.cancel_value = cancel_value
        self.seq = 0

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def cancel(self, seq: int) -> None:
        """Publish ``seq`` as cancelled (seen at the next budget tick)."""
        with self.cancel_value.get_lock():
            self.cancel_value.value = seq

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.proc.join(_JOIN_TIMEOUT)
        if self.proc.is_alive():  # pragma: no cover - stuck worker
            self.proc.terminate()
            self.proc.join(_JOIN_TIMEOUT)
        self.conn.close()


class ProcessQueryService(QueryService):
    """Process-pool RPQ serving over one shared-memory index snapshot.

    Same public API and degradation contract as
    :class:`~repro.serve.service.QueryService`; see the module
    docstring for the wire plumbing.  Extra parameters:

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``) or ``None`` for the platform default.
        ``fork`` starts fastest; ``spawn`` workers attach the segment
        by name and re-import the package, which the test suite smokes
        explicitly.
    engine_kwargs:
        Keyword arguments for each worker's
        :class:`~repro.core.engine.RingRPQEngine` (e.g.
        ``prepare_cache_size``).  The process tier always builds ring
        engines in its workers; the ``engine`` parameter of the base
        class only shapes parent-side routing/labels.

    The segment holds the ring's buffers and nothing else: ring engines
    are all the workers build, and anything derived from the ring (the
    matrix backend's per-predicate blocks) is decoded on demand from
    whichever ring a process has attached.
    """

    def __init__(
        self,
        index,
        workers: int = 4,
        start_method: str | None = None,
        engine_kwargs: dict | None = None,
        **kwargs,
    ):
        self._ctx = (mp.get_context(start_method)
                     if start_method else mp.get_context())
        self._engine_kwargs = dict(engine_kwargs or {})
        self._shared = SharedIndexHandle.create(index)
        self._slots: list[_WorkerSlot | None] = [None] * workers
        self._restarts = 0
        self._pool_lock = threading.Lock()
        try:
            if "engine" not in kwargs:
                kwargs["engine"] = RingRPQEngine(
                    index, **self._engine_kwargs
                )
            super().__init__(index, workers=workers, **kwargs)
            for i in range(workers):
                self._slots[i] = self._spawn(i)
        except BaseException:
            self._teardown_pool()
            raise
        obs = self.metrics
        if obs.enabled:
            with self._lock:
                self._refresh_pool_gauges(obs)

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------

    def _spawn(self, worker_id: int) -> _WorkerSlot:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        cancel_value = self._ctx.Value("Q", 0, lock=True)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                child_conn, self._shared.token(), worker_id,
                self._engine_kwargs, self.metrics.enabled, cancel_value,
            ),
            name=f"repro-serve-proc-{worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _WorkerSlot(proc, parent_conn, cancel_value)

    def _refresh_pool_gauges(self, obs) -> None:
        # Callers hold self._lock.
        live = sum(
            1 for s in self._slots
            if s is not None and s.proc.is_alive()
        )
        obs.set_gauge("serve.pool.workers", live)
        obs.set_gauge("serve.pool.restarts", self._restarts)
        obs.set_gauge("serve.pool.shm_bytes", self._shared.nbytes)

    def _run_engine(self, ticket: Ticket, timeout: float | None,
                    local, worker_id: int):
        slot = self._slots[worker_id]
        seq = slot.next_seq()
        # Forward future cancels to the worker's shared sequence; a
        # cancel that already landed (between queue and here) must be
        # re-published because the hook was not yet attached.
        ticket._on_cancel = lambda: slot.cancel(seq)
        if ticket.cancelled:
            slot.cancel(seq)
        lifecycle = ticket.lifecycle
        try:
            slot.conn.send((
                "run", seq, ticket.query_id, str(ticket.query),
                timeout, ticket.limit,
            ))
            lifecycle.mark("request_serialized")
            status, payload, shipped, worker_marks = slot.conn.recv()
        except (EOFError, OSError, BrokenPipeError):
            raise self._handle_crash(worker_id, slot) from None
        finally:
            ticket._on_cancel = None
        # CLOCK_MONOTONIC is system-wide on Linux, so the worker's
        # stamps slot directly between ours; the gap before
        # worker_started is the request's pipe transit + queueing in
        # the worker, the gap after worker_finished the reply's
        # pickle + pipe transit.
        started, finished = worker_marks
        lifecycle.mark("worker_started", t=started)
        lifecycle.mark("worker_finished", t=finished)
        lifecycle.mark("reply_deserialized")
        if shipped is not None and local.enabled:
            # Fold the worker's registry (counters, histograms, span
            # subtrees) into the manager thread's local one; _settle
            # then merges it into the service registry as usual.
            local.merge(shipped)
        if status == "err":
            raise payload
        result: QueryResult = payload
        return result

    def _handle_crash(self, worker_id: int,
                      slot: _WorkerSlot) -> WorkerCrashedError:
        """Settle bookkeeping for a dead worker and respawn it."""
        slot.proc.join(_JOIN_TIMEOUT)
        exitcode = slot.proc.exitcode
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        with self._pool_lock:
            respawn = not self._closed
            if respawn:
                self._slots[worker_id] = self._spawn(worker_id)
                self._restarts += 1
        obs = self.metrics
        if obs.enabled:
            with self._lock:
                obs.inc("serve.pool.worker_crashes")
                self._refresh_pool_gauges(obs)
        # Attach the flight recorder's tail: the audit records of the
        # queries settled just before the death are the post-mortem
        # context a crash counter cannot give.
        flight = (self.flight.records(last=32)
                  if self.flight is not None else None)
        return WorkerCrashedError(
            f"repro-serve-proc-{worker_id}", exitcode, flight=flight
        )

    def _teardown_pool(self) -> None:
        for i, slot in enumerate(self._slots):
            if slot is not None:
                slot.stop()
                self._slots[i] = None
        self._shared.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Drain, stop the workers, release the shared segment.

        The process tier always waits for its manager threads — worker
        teardown while a manager still dispatches would look like a
        crash.  After this returns the shared-memory segment is
        unlinked; the ``serve.pool.*`` gauges fall under the base
        class's registry-driven load-gauge sweep, so no explicit
        zeroing is needed here (nothing refreshes them after the
        workers stop).
        """
        if self._closed:
            return
        super().close(wait=True)
        with self._pool_lock:
            self._teardown_pool()
        obs = self.metrics
        if obs.enabled:
            # Re-run the sweep after teardown: a crash detected between
            # the base close and slot.stop() refreshes serve.pool.*
            # gauges, and those must not survive the service either.
            with self._lock:
                for name in list(obs.gauges):
                    if name.startswith(_LOAD_GAUGE_PREFIXES):
                        obs.set_gauge(name, 0)

    def stats(self) -> dict:
        """Base stats plus the pool axis (shm bytes, restarts)."""
        base = super().stats()
        base["pool"] = {
            "kind": "processes",
            "start_method": self._ctx.get_start_method(),
            "shm_bytes": self._shared.nbytes,
            "restarts": self._restarts,
            "live_workers": sum(
                1 for s in self._slots
                if s is not None and s.proc.is_alive()
            ),
        }
        return base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProcessQueryService(workers={self.workers}, "
                f"start_method={self._ctx.get_start_method()!r}, "
                f"shm_bytes={self._shared.nbytes})")
