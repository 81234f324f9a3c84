"""The Ring-RPQ engine: §4 of the paper.

Evaluation walks the product graph *backwards* — from objects toward
subjects — without ever materialising it.  One step from the current
object range with active NFA states ``D`` has three parts:

1. **Predicates from objects** (§4.1): descend the wavelet matrix of
   ``L_p`` restricted to the object's range, pruning every node ``v``
   with ``D & B[v] == 0``, where ``B[v]`` is the OR of the automaton's
   ``B`` masks below ``v``.  Thanks to Glushkov's Fact 1 the check is a
   single AND; each surviving leaf is a predicate ``p`` that both
   reaches the current objects and leads to an active state.
2. **Subjects from predicates** (§4.2): a backward-search step
   (Eqs. 4–5) maps the leaf to an ``L_s`` range; descend the wavelet
   matrix of ``L_s``, pruning nodes whose subtree has already been
   visited with all states of ``D' = T'[D & B[p]]`` (the ``D[v]``
   masks); each surviving leaf is a *new* (node, state-set) visit.
3. **Subjects back to objects** (§4.3): ``C_o`` turns the subject into
   its ``L_p`` object range and the step repeats.

A node is reported whenever the initial NFA state becomes active.
Variable-to-variable queries run a first pass from the full ``L_p``
range to find the bindings of one side (chosen by the §5 cardinality
heuristic), then one anchored subquery per binding; §5's fast paths
handle length-1/2 and disjunctive patterns with pure backward search.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable

import numpy as np

from repro.automata.bitparallel import ReverseSimulator
from repro.automata.glushkov import build_glushkov, resolve_atom_to_predicates
from repro.automata.syntax import Concat, RegexNode, Symbol, Union
from repro.core.batchrun import BatchedBackwardRun
from repro.core.planner import choose_anchor_side
from repro.core.query import RPQ, as_query
from repro.core.result import QueryResult, QueryStats
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.obs.metrics import NULL_METRICS
from repro.obs.record import QueryRecord
from repro.ring.ring import listing_runs

#: How many :meth:`_Budget.tick` calls between wall-clock checks.  The
#: hot traversal loops already throttle their tick calls to one per 256
#: stack pops, so the effective check window is ``256 * _TICK_EVERY``
#: inner operations — keep this small or a mid-sized query can finish
#: (or badly overrun its budget) without ever consulting the clock.
_TICK_EVERY = 4

#: Phase-2 anchored subqueries merge into batched runs of this many
#: anchors.  Wide chunks are what make the shared L_p waves wide (the
#: dominant saving), so this errs large; the chunk still bounds how
#: stale the shared result-cap snapshot can get between checks.
_ANCHOR_BATCH = 1024


class _Budget:
    """Shared wall-clock / result-count budget for one evaluation.

    ``cancel`` is an optional cooperative cancellation token — anything
    with an ``is_set()`` method (a :class:`threading.Event` works).
    When set, the next consulted tick raises
    :class:`~repro.errors.QueryCancelledError`, so a running query
    stops at the same safe points where a timeout would: between
    traversal ticks, with every partial result well-formed.
    """

    __slots__ = ("cancel", "deadline", "start", "ticks")

    def __init__(self, timeout: float | None, cancel=None):
        self.start = time.monotonic()
        self.deadline = None if timeout is None else self.start + timeout
        self.cancel = cancel
        self.ticks = 0

    def tick(self) -> None:
        """Cheap periodic timeout/cancellation check; raises on expiry."""
        self.ticks += 1
        if self.ticks % _TICK_EVERY == 0:
            self.check()

    def check(self) -> None:
        """Consult the cancel token and the clock now; raises on expiry.

        For callers whose unit of work is already coarse — one run of a
        batched listing — and must not wait ``_TICK_EVERY`` of them.
        """
        if self.cancel is not None and self.cancel.is_set():
            raise QueryCancelledError(time.monotonic() - self.start)
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeoutError(
                time.monotonic() - self.start,
                self.deadline - self.start,
            )

    def elapsed(self) -> float:
        """Seconds since the evaluation started."""
        return time.monotonic() - self.start


class _EvalContext:
    """Everything mutable that belongs to *one* ``evaluate`` call.

    The engine itself holds only immutable configuration plus the
    (locked) cross-query prepare cache, so any number of threads can
    evaluate on the same engine over the same shared ring: budget,
    stats, the metrics registry, the forbidden-node set and the
    per-call prepare memo all travel in this context instead of being
    swapped onto the engine (the pre-serving design mutated
    ``engine.metrics`` / ``engine._forbidden_ids`` / ``ring.obs`` for
    the span of the call, which cross-polluted interleaved queries).
    """

    __slots__ = ("budget", "stats", "obs", "forbidden_ids", "memo")

    def __init__(self, budget: _Budget, stats: QueryStats, obs,
                 forbidden_ids: frozenset = frozenset()):
        self.budget = budget
        self.stats = stats
        self.obs = obs
        self.forbidden_ids = forbidden_ids
        self.memo: dict[RegexNode, "_Prepared"] = {}


def offer_slow(slow_log, query: str, stats: QueryStats, n_results: int,
               engine: str, obs=NULL_METRICS, query_span=None) -> None:
    """Offer one finished evaluation to a slow log, building the
    detail (counters, phases, the ``query_span`` subtree) only once
    ``would_keep`` says it will be retained: a fast query costs one
    small object and one comparison."""
    record = QueryRecord(query, stats, n_results, engine)
    if slow_log.would_keep(stats.elapsed):
        record.attach_detail(stats, obs, query_span)
    slow_log.offer(record)


def run_query(engine, query, observed: tuple, timeout, limit,
              forbidden_nodes, metrics, cancel, query_id) -> QueryResult:
    """The evaluation envelope every backend's ``evaluate`` runs in.

    Owns everything about one evaluation that is not the backend's
    algorithm: parsing, the :class:`QueryStats`, :class:`_Budget` and
    :class:`_EvalContext`, the ``query`` span, turning a timeout or a
    cancellation into a flagged partial result, the ``limit <= 0``
    short-circuit, the ``engine.queries`` counter and ``query.*``
    histograms, and the slow-log offer.  The backend is
    ``engine._dispatch(rpq, ctx, limit, result)``; ``observed`` names
    the :class:`QueryStats` counters it wants as ``query.<name>``
    histograms.
    """
    rpq = as_query(query)
    stats = QueryStats()
    stats.backend = engine.name
    if query_id:
        stats.query_id = query_id
    budget = _Budget(timeout, cancel=cancel)
    result = QueryResult(stats=stats)
    obs = metrics if metrics is not None else engine.metrics
    forbidden: frozenset[int] = frozenset()
    if forbidden_nodes is not None:
        dictionary = engine.dictionary
        forbidden = frozenset(
            dictionary.node_id(label)
            for label in forbidden_nodes
            if dictionary.has_node(label)
        )
    ctx = _EvalContext(budget, stats, obs, forbidden)
    spans = obs.spans if obs.enabled else None
    query_span = spans.start("query") if spans is not None else None
    try:
        if obs.enabled:
            obs.inc("engine.queries")
        if limit is not None and limit <= 0:
            stats.truncated = True
        else:
            engine._dispatch(rpq, ctx, limit, result)
    except QueryTimeoutError:
        stats.timed_out = True
    except QueryCancelledError:
        stats.cancelled = True
    finally:
        if query_span is not None:
            query_span.set(
                query=str(rpq), shape=rpq.shape(),
                n_results=len(result.pairs),
            )
            if query_id:
                query_span.set(query_id=query_id)
            # Also closes any spans a timeout left open underneath.
            spans.end(query_span)
    stats.elapsed = budget.elapsed()
    if obs.enabled:
        obs.add_phase("total", stats.elapsed)
        obs.observe("query.seconds", stats.elapsed)
        obs.observe("query.results", len(result.pairs))
        for name in observed:
            obs.observe(f"query.{name}", getattr(stats, name))
    if engine.slow_log is not None:
        offer_slow(engine.slow_log, str(rpq), stats, len(result.pairs),
                   engine.name, obs, query_span)
    return result


class _Prepared:
    """An expression compiled against a specific index.

    Holds the Glushkov automaton, the lazily-populated ``B`` masks over
    predicate ids, the per-wavelet-node aggregates ``B[v]`` for the
    ``L_p`` matrix, and the reverse bit-parallel simulator.
    """

    __slots__ = (
        "automaton", "b_masks", "bv_masks", "reverse", "mask_levels",
    )

    def __init__(self, expr: RegexNode, index) -> None:
        self.automaton = build_glushkov(expr)
        dictionary = index.dictionary
        self.b_masks = self.automaton.b_masks(
            lambda atom: resolve_atom_to_predicates(atom, dictionary)
        )
        height = index.ring.L_p.height
        bv: dict[tuple[int, int], int] = {}
        for pid, mask in self.b_masks.items():
            for level in range(height + 1):
                key = (level, pid >> (height - level))
                bv[key] = bv.get(key, 0) | mask
        self.bv_masks = bv
        self.reverse = ReverseSimulator(self.automaton, self.b_masks)
        # A merged L_p wave keeps NFA state sets in int64 columns, so it
        # needs every mask to fit a signed 64-bit word; for a larger
        # automaton ``mask_levels`` is None and the runner expands each
        # entry on its own, on Python-int masks.
        if self.automaton.num_states <= 63:
            # bv_masks as one dense int64 array per level, so the §4.1
            # prune becomes ``mask_levels[level][prefix] & D`` over the
            # whole frontier.  Level ``height`` rows equal ``b_masks``.
            mask_levels = []
            for level in range(height + 1):
                row = np.zeros(1 << level, dtype=np.int64)
                mask_levels.append(row)
            for (level, prefix), mask in bv.items():
                mask_levels[level][prefix] = mask
            self.mask_levels = mask_levels
        else:
            self.mask_levels = None


def _add_partner_pairs(
    pairs: set, labels: tuple, anchor: int, partners: Iterable[int],
    side: str,
) -> None:
    """Add the pairs of one phase-2 anchor and its reported partners,
    the anchor on the ``side`` it was bound to."""
    anchor_label = itertools.repeat(labels[anchor])
    partner_labels = map(labels.__getitem__, partners)
    if side == "subject":
        pairs.update(zip(anchor_label, partner_labels))
    else:
        pairs.update(zip(partner_labels, anchor_label))


class RingRPQEngine:
    """RPQ evaluation over a :class:`~repro.ring.builder.RingIndex`.

    Parameters
    ----------
    index:
        The ring index to evaluate against.
    prune:
        Enable the §4.1/§4.2 wavelet-node pruning with ``B[v]``/``D[v]``
        masks (on by default; the off position exists for the ablation
        benchmark and visits many more wavelet nodes).
    fast_paths:
        Enable the §5 special cases for length-1/2 and disjunctive
        variable-to-variable patterns.
    use_planner:
        Enable the §5 start-side cardinality heuristic for
        variable-to-variable and fixed-fixed queries; when off, the
        subject side is always anchored first.
    batch:
        Let the traversal runner
        (:class:`~repro.core.batchrun.BatchedBackwardRun`) merge wide
        frontiers into batched kernel calls, phase 2 run its anchors in
        lockstep chunks and the §5 fast paths run as array pipelines.
        Off is the reference the tests compare against: the same BFS
        with every entry expanded on its own, one anchor at a time.
    prepare_cache_size:
        Capacity of the per-engine LRU cache of compiled expressions
        (automaton + ``B``/``B[v]`` masks), keyed on the expression
        tree.  ``0`` or ``None`` disables the LRU; a single
        ``evaluate`` call still memoises its own ``_prepare`` results
        (an expression and its reverse recur across phases).
    metrics:
        A :class:`~repro.obs.metrics.Metrics` registry receiving phase
        timers, latency histograms and (when built with
        ``span_capacity > 0``) hierarchical spans; defaults to the
        no-op :data:`~repro.obs.metrics.NULL_METRICS` (operation
        *counters* always accumulate in :class:`QueryStats`
        regardless).  Can also be supplied per call via
        :meth:`evaluate`.
    slow_log:
        A :class:`~repro.obs.slowlog.SlowQueryLog`; every finished
        ``evaluate`` offers its query to the log, which retains the K
        slowest with full counter snapshots (and the captured span
        subtree when spans are on).  ``None`` (the default) disables
        the log at the cost of one attribute load per query.
    """

    name = "ring"

    def __init__(
        self,
        index,
        prune: bool = True,
        fast_paths: bool = True,
        use_planner: bool = True,
        batch: bool = True,
        prepare_cache_size: int | None = 128,
        metrics=None,
        slow_log=None,
    ):
        self.index = index
        self.prune = prune
        self.fast_paths = fast_paths
        self.use_planner = use_planner
        self.batch = batch
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.slow_log = slow_log
        self._lp_data = None
        self._ls_data = None
        self._prepare_cache_size = prepare_cache_size or 0
        self._prepare_cache: OrderedDict[RegexNode, _Prepared] = OrderedDict()
        # The prepare LRU is the only cross-query mutable state on the
        # engine; the lock makes concurrent evaluate() calls (the
        # serving layer shares one engine across its worker threads)
        # safe without taxing the per-query paths.
        self._prepare_lock = threading.Lock()

    # ------------------------------------------------------------------

    @property
    def ring(self):
        """The underlying ring."""
        return self.index.ring

    @property
    def dictionary(self):
        """The underlying label dictionary."""
        return self.index.dictionary

    @property
    def lp_data(self):
        """Cached low-level traversal arrays of ``L_p``."""
        if self._lp_data is None:
            self._lp_data = self.ring.L_p.traversal_data()
        return self._lp_data

    @property
    def ls_data(self):
        """Cached low-level traversal arrays of ``L_s``."""
        if self._ls_data is None:
            self._ls_data = self.ring.L_s.traversal_data()
        return self._ls_data

    # ------------------------------------------------------------------

    def evaluate(
        self,
        query: RPQ | str,
        timeout: float | None = None,
        limit: int | None = None,
        forbidden_nodes: "Iterable[str] | None" = None,
        metrics=None,
        cancel=None,
        query_id: "str | None" = None,
    ) -> QueryResult:
        """Evaluate an RPQ under set semantics.

        Returns a :class:`QueryResult` whose pairs are ``(subject,
        object)`` labels.  On timeout the partial result is returned
        with ``stats.timed_out`` set (the operation counters cover the
        work done up to the deadline); on hitting ``limit`` it is
        returned with ``stats.truncated`` set; when ``cancel`` trips
        mid-run the partial result is returned with ``stats.cancelled``
        set.  ``limit <= 0`` short-circuits to an empty truncated
        result without touching the index.

        ``forbidden_nodes`` implements the §6 extension: the listed
        nodes may not appear as *intermediate* nodes of a matching path
        (endpoints are still allowed).  Internally they are pre-marked
        as visited with every NFA state, exactly as the paper suggests
        ("marking the noncomplying nodes as already visited with the
        NFA states that enforce those conditions").

        ``metrics`` overrides the engine's registry for this one call —
        ``repro explain --analyze`` uses this to collect phase timers
        and spans for a single query.  ``cancel`` is an optional
        cooperative cancellation token (anything with ``is_set()``,
        e.g. a :class:`threading.Event`) consulted at the same periodic
        ticks as the timeout; the serving layer's ``cancel(query_id)``
        sets it from another thread.

        ``query_id`` is an opaque correlation id stamped onto
        ``stats.query_id``, the query span's attributes and the
        slow-log entry, so every telemetry signal of this evaluation
        can be joined on one id (the serving layer mints ``q<N>`` per
        submission).

        This method is re-entrant and thread-safe over the shared
        immutable ring: every piece of per-call mutable state lives in
        a private :class:`_EvalContext`, so concurrent evaluations on
        one engine never observe each other's metrics, forbidden sets
        or prepare memos.
        """
        return run_query(
            self, query, ("backward_steps", "wavelet_nodes"), timeout,
            limit, forbidden_nodes, metrics, cancel, query_id,
        )

    def explain(self, query: RPQ | str) -> dict:
        """Describe how a query would be evaluated, without running it.

        Returns a dict with the query shape, the automaton size, the
        predicates the ``B`` table would hold, whether a §5 fast path
        applies, and (for variable-to-variable queries) the anchor side
        the §5 cardinality heuristic selects.
        """
        rpq = as_query(query)
        shape = rpq.shape()
        prepared = _Prepared(rpq.expr, self.index)
        plan: dict = {
            "query": str(rpq),
            "shape": shape,
            "nfa_states": prepared.automaton.num_states,
            "nullable": prepared.automaton.nullable,
            "b_predicates": sorted(
                self.dictionary.predicate_label(p)
                for p in prepared.b_masks
            ),
        }
        if shape == "vc":
            plan["strategy"] = "backward run of E from the object"
        elif shape == "cv":
            plan["strategy"] = "backward run of ^E from the subject"
        elif shape == "cc":
            plan["strategy"] = "backward run with early exit at the target"
        else:
            fast = self.fast_paths and self._describe_fast_path(rpq.expr)
            if fast:
                plan["strategy"] = fast
            else:
                side = (
                    choose_anchor_side(
                        prepared.automaton, self.dictionary, self.ring
                    )
                    if self.use_planner else "subject"
                )
                plan["anchor_side"] = side
                plan["strategy"] = (
                    "full-range pass binds the "
                    f"{side} side, then one anchored run per binding"
                )
        return plan

    def _describe_fast_path(self, expr: RegexNode) -> str | None:
        if isinstance(expr, Symbol):
            return "fast path: single-predicate listing (§5)"
        if isinstance(expr, Union) and all(
            isinstance(c, Symbol) for c in expr.children
        ):
            return "fast path: disjunction of single-predicate listings"
        if (
            isinstance(expr, Concat)
            and len(expr.children) == 2
            and all(isinstance(c, Symbol) for c in expr.children)
        ):
            return "fast path: length-2 path via range intersection (§5)"
        return None

    # ------------------------------------------------------------------
    # Shape dispatch
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        rpq: RPQ,
        ctx: _EvalContext,
        limit: int | None,
        result: QueryResult,
    ) -> None:
        shape = rpq.shape()
        if shape == "vc":
            self._eval_anchored(rpq.expr, rpq.object, "object",
                                ctx, limit, result)
        elif shape == "cv":
            self._eval_anchored(rpq.expr.reverse(), rpq.subject, "subject",
                                ctx, limit, result)
        elif shape == "cc":
            self._eval_boolean(rpq, ctx, result)
        else:
            self._eval_var_var(rpq, ctx, limit, result)

    # -- one fixed endpoint --------------------------------------------

    def _eval_anchored(
        self,
        expr: RegexNode,
        anchor_label: str,
        anchor_role: str,
        ctx: _EvalContext,
        limit: int | None,
        result: QueryResult,
    ) -> None:
        """Backward run anchored at one constant node.

        ``anchor_role`` says which side of the *original* query the
        constant sits on, so reported nodes pair up correctly:
        ``object`` means the run reports subjects (query ``(?x, E, o)``,
        run on ``E``); ``subject`` means it reports objects (query
        ``(s, E, ?y)``, run on ``^E`` anchored at ``s``).
        """
        dictionary = self.dictionary
        if not dictionary.has_node(anchor_label):
            return
        anchor = dictionary.node_id(anchor_label)
        if anchor in ctx.forbidden_ids:
            return
        prepared = self._prepare(expr, ctx)

        if prepared.automaton.nullable:
            result.pairs.add((anchor_label, anchor_label))

        remaining = None if limit is None else limit - len(result.pairs)
        if remaining is not None and remaining <= 0:
            result.stats.truncated = True
            return

        run = BatchedBackwardRun(self, prepared, ctx, self.prune)
        obs = ctx.obs
        spans = obs.spans if obs.enabled else None
        span = spans.start("run:anchored") if spans is not None else None
        reported = run.run(
            self.ring.object_range(anchor),
            start_node=anchor,
            max_reported=remaining,
        )
        if span is not None:
            span.set(anchor=anchor_label, reported=len(reported))
            spans.end(span)
        result.stats.truncated = result.stats.truncated or run.stats.truncated
        for node_id in reported:
            label = dictionary.node_label(node_id)
            if anchor_role == "object":
                result.pairs.add((label, anchor_label))
            else:
                result.pairs.add((anchor_label, label))

    # -- both endpoints fixed --------------------------------------------

    def _eval_boolean(
        self, rpq: RPQ, ctx: _EvalContext, result: QueryResult
    ) -> None:
        """Both endpoints fixed: run from one side, early-exit at the
        other.  §4.4 allows starting from either end ("or vice versa
        with E"); the planner's cardinality rule picks the cheaper one
        — anchoring the subject means running ``^E`` from it."""
        dictionary = self.dictionary
        if not (dictionary.has_node(rpq.subject)
                and dictionary.has_node(rpq.object)):
            return
        subject = dictionary.node_id(rpq.subject)
        obj = dictionary.node_id(rpq.object)
        if subject in ctx.forbidden_ids or obj in ctx.forbidden_ids:
            return
        prepared = self._prepare(rpq.expr, ctx)

        if prepared.automaton.nullable and subject == obj:
            result.pairs.add((rpq.subject, rpq.object))
            return

        anchor, target = obj, subject
        if self.use_planner:
            side = choose_anchor_side(
                prepared.automaton, dictionary, self.ring
            )
            if side == "subject":
                prepared = self._prepare(rpq.expr.reverse(), ctx)
                anchor, target = subject, obj

        run = BatchedBackwardRun(self, prepared, ctx, self.prune)
        obs = ctx.obs
        spans = obs.spans if obs.enabled else None
        span = spans.start("run:boolean") if spans is not None else None
        reported = run.run(
            self.ring.object_range(anchor),
            start_node=anchor,
            target=target,
        )
        if span is not None:
            span.set(found=target in reported)
            spans.end(span)
        if target in reported:
            result.pairs.add((rpq.subject, rpq.object))

    # -- both endpoints variable -----------------------------------------

    def _eval_var_var(
        self,
        rpq: RPQ,
        ctx: _EvalContext,
        limit: int | None,
        result: QueryResult,
    ) -> None:
        dictionary = self.dictionary
        budget = ctx.budget
        prepared = self._prepare(rpq.expr, ctx)

        if prepared.automaton.nullable:
            for node_id in range(dictionary.num_nodes):
                budget.tick()
                if node_id in ctx.forbidden_ids:
                    continue
                label = dictionary.node_label(node_id)
                result.pairs.add((label, label))
                if limit is not None and len(result.pairs) >= limit:
                    result.stats.truncated = True
                    return

        use_fast = self.fast_paths and not ctx.forbidden_ids
        if use_fast and self._try_fast_path(
            rpq.expr, ctx, limit, result
        ):
            return

        if self.use_planner:
            side = choose_anchor_side(
                prepared.automaton, dictionary, self.ring
            )
        else:
            side = "subject"

        if side == "subject":
            first_expr, second_expr = rpq.expr, rpq.expr.reverse()
        else:
            first_expr, second_expr = rpq.expr.reverse(), rpq.expr

        obs = ctx.obs
        spans = obs.spans if obs.enabled else None

        # Phase 1: one traversal from the full L_p range binds one side.
        first_prepared = self._prepare(first_expr, ctx)
        run = BatchedBackwardRun(self, first_prepared, ctx, self.prune)
        span = spans.start("phase1:bind") if spans is not None else None
        bindings = run.run(
            self.ring.full_range(), start_node=None, max_reported=limit
        )
        if span is not None:
            span.set(side=side, bindings=len(bindings))
            spans.end(span)

        # Phase 2: one anchored run per binding, on the other automaton.
        second_prepared = self._prepare(second_expr, ctx)
        order = sorted(bindings)
        span = spans.start("phase2:anchors") if spans is not None else None
        if span is not None:
            span.set(n_anchors=len(order))
        # Anchored subqueries are independent (disjoint visited tables),
        # so chunks of them traverse in lockstep sharing each BFS wave's
        # kernel calls; provenance stays per-anchor inside the runner.
        # The result cap is re-snapshotted per chunk — same guarantee
        # (stop once ``limit`` pairs exist), coarser check.  The
        # ``batch=False`` reference takes one anchor at a time.
        width = _ANCHOR_BATCH if self.batch else 1
        try:
            for lo in range(0, len(order), width):
                chunk = order[lo:lo + width]
                for _ in chunk:
                    budget.tick()
                remaining = (
                    None if limit is None else limit - len(result.pairs)
                )
                if remaining is not None and remaining <= 0:
                    result.stats.truncated = True
                    return
                sub_run = BatchedBackwardRun(
                    self, second_prepared, ctx, self.prune
                )
                result.stats.subqueries += len(chunk)
                partner_sets = sub_run.run_many(
                    chunk,
                    self.ring.object_ranges_many(chunk, obs=obs),
                    max_reported=remaining,
                )
                for node_id, partners in zip(chunk, partner_sets):
                    if partners:
                        _add_partner_pairs(
                            result.pairs, dictionary.node_labels,
                            node_id, partners, side,
                        )
        finally:
            if span is not None:
                spans.end(span)

    # ------------------------------------------------------------------
    # §5 fast paths for short variable-to-variable patterns
    # ------------------------------------------------------------------

    def _try_fast_path(
        self,
        expr: RegexNode,
        ctx: _EvalContext,
        limit: int | None,
        result: QueryResult,
    ) -> bool:
        """Returns True when a special-case evaluation handled ``expr``."""
        dictionary = self.dictionary

        if isinstance(expr, Symbol):
            pids = resolve_atom_to_predicates(expr, dictionary)
            for pid in pids:
                self._vv_single_predicate(pid, ctx, limit, result)
            return True

        if isinstance(expr, Union) and all(
            isinstance(c, Symbol) for c in expr.children
        ):
            pids: set[int] = set()
            for child in expr.children:
                pids.update(resolve_atom_to_predicates(child, dictionary))
            for pid in sorted(pids):
                if limit is not None and len(result.pairs) >= limit:
                    result.stats.truncated = True
                    return True
                self._vv_single_predicate(pid, ctx, limit, result)
            return True

        if (
            isinstance(expr, Concat)
            and len(expr.children) == 2
            and all(isinstance(c, Symbol) for c in expr.children)
        ):
            first = resolve_atom_to_predicates(expr.children[0], dictionary)
            second = resolve_atom_to_predicates(expr.children[1], dictionary)
            if len(first) == 1 and len(second) == 1:
                self._vv_two_predicates(
                    next(iter(first)), next(iter(second)),
                    ctx, limit, result,
                )
                return True

        return False

    def _vv_single_predicate(
        self,
        pid: int,
        ctx: _EvalContext,
        limit: int | None,
        result: QueryResult,
    ) -> None:
        """All pairs of one predicate: subjects from ``L_s``, objects by
        one backward-search step with the inverse predicate (§5)."""
        ring = self.ring
        dictionary = self.dictionary
        budget = ctx.budget
        inv = dictionary.inverse_predicate(pid)
        b, e = ring.predicate_range(pid)
        height = ring.L_s.height

        if self.batch:
            # The same listing as an array pipeline: every subject maps
            # through C_o and the Eq. 4–5 step at once, and the object
            # descents go one bounded run of subjects at a time, the
            # budget consulted between runs.
            _, subjects, _, _ = ring.L_s.descend_batch([(b, e)])
            if not len(subjects):
                return
            steps = ring.backward_step_many(
                ring.object_ranges_many(subjects, obs=ctx.obs), inv,
                obs=ctx.obs,
            )
            labels = dictionary.node_labels
            pairs = result.pairs
            stats = result.stats
            for lo, hi in listing_runs(
                steps[:, 1] - steps[:, 0], limit, pairs
            ):
                budget.check()
                origins, objects, _, _ = ring.L_s.descend_batch(steps[lo:hi])
                stats.product_edges += hi - lo
                stats.backward_steps += hi - lo
                stats.object_ranges += hi - lo
                stats.storage_ops += 3 * height * (hi - lo)
                if limit is None or len(pairs) + len(objects) < limit:
                    pairs.update(zip(
                        map(labels.__getitem__,
                            subjects[lo:hi][origins].tolist()),
                        map(labels.__getitem__, objects.tolist()),
                    ))
                    continue
                # A run that can reach the cap is one subject.
                subject_label = labels[subjects[lo]]
                for obj in objects.tolist():
                    pairs.add((subject_label, labels[obj]))
                    if len(pairs) >= limit:
                        stats.truncated = True
                        return
            return

        subjects = [s for s, _, _ in ring.L_s.range_distinct(b, e)]
        for subject in subjects:
            budget.tick()
            subject_label = dictionary.node_label(subject)
            ob, oe = ring.object_range(subject)
            bs, es = ring.backward_step(ob, oe, inv)
            result.stats.product_edges += 1
            result.stats.backward_steps += 1
            result.stats.object_ranges += 1
            result.stats.storage_ops += 3 * height
            for obj, _, _ in ring.L_s.range_distinct(bs, es):
                result.pairs.add(
                    (subject_label, dictionary.node_label(obj))
                )
                if limit is not None and len(result.pairs) >= limit:
                    result.stats.truncated = True
                    return

    def _vv_two_predicates(
        self,
        p1: int,
        p2: int,
        ctx: _EvalContext,
        limit: int | None,
        result: QueryResult,
    ) -> None:
        """All pairs of ``p1/p2``: intersect the mid-point candidates
        (targets of ``p1`` vs sources of ``p2``) with the wavelet
        intersection, then expand each mid-point with two backward
        steps (§5)."""
        ring = self.ring
        dictionary = self.dictionary
        budget = ctx.budget
        inv1 = dictionary.inverse_predicate(p1)
        inv2 = dictionary.inverse_predicate(p2)
        r1 = ring.predicate_range(inv1)  # subjects here = targets of p1
        r2 = ring.predicate_range(p2)    # subjects here = sources of p2
        height = ring.L_s.height
        if self.batch:
            # The same expansion as an array pipeline: all mid-points
            # take both backward steps at once, and the two descents go
            # one bounded run of mid-points at a time, the budget
            # consulted between runs.
            mids = np.array(
                [mid for mid, *_ in ring.L_s.range_intersect(*r1, *r2)],
                dtype=np.int64,
            )
            if not len(mids):
                return
            obj_ranges = ring.object_ranges_many(mids, obs=ctx.obs)
            s_steps = ring.backward_step_many(obj_ranges, p1, obs=ctx.obs)
            o_steps = ring.backward_step_many(obj_ranges, inv2, obs=ctx.obs)
            labels = dictionary.node_labels
            pairs = result.pairs
            stats = result.stats
            for lo, hi in listing_runs(
                (s_steps[:, 1] - s_steps[:, 0])
                * (o_steps[:, 1] - o_steps[:, 0]),
                limit, pairs,
            ):
                budget.check()
                s_of, subjects, _, _ = ring.L_s.descend_batch(s_steps[lo:hi])
                o_of, objects, _, _ = ring.L_s.descend_batch(o_steps[lo:hi])
                stats.storage_ops += 4 * height * (hi - lo)
                stats.object_ranges += hi - lo
                stats.backward_steps += 2 * (hi - lo)
                stats.product_edges += len(subjects) + len(objects)
                subjects = [labels[s] for s in subjects.tolist()]
                objects = [labels[o] for o in objects.tolist()]
                per_mid = np.arange(hi - lo + 1)
                s_cut = np.searchsorted(s_of, per_mid)
                o_cut = np.searchsorted(o_of, per_mid)
                n_new = int(np.diff(s_cut) @ np.diff(o_cut))
                if limit is None or len(pairs) + n_new < limit:
                    s_cut, o_cut = s_cut.tolist(), o_cut.tolist()
                    for i in range(hi - lo):
                        pairs.update(itertools.product(
                            subjects[s_cut[i]:s_cut[i + 1]],
                            objects[o_cut[i]:o_cut[i + 1]],
                        ))
                    continue
                # A run that can reach the cap is one mid-point.
                for s_label in subjects:
                    for o_label in objects:
                        pairs.add((s_label, o_label))
                        if len(pairs) >= limit:
                            stats.truncated = True
                            return
            return

        for mid, _, _, _, _ in ring.L_s.range_intersect(*r1, *r2):
            budget.tick()
            result.stats.storage_ops += 4 * height
            ob, oe = ring.object_range(mid)
            result.stats.object_ranges += 1
            result.stats.backward_steps += 2
            sb, se = ring.backward_step(ob, oe, p1)
            subjects = [
                dictionary.node_label(s)
                for s, _, _ in ring.L_s.range_distinct(sb, se)
            ]
            tb, te = ring.backward_step(ob, oe, inv2)
            objects = [
                dictionary.node_label(o)
                for o, _, _ in ring.L_s.range_distinct(tb, te)
            ]
            result.stats.product_edges += len(subjects) + len(objects)
            for s_label in subjects:
                for o_label in objects:
                    result.pairs.add((s_label, o_label))
                    if limit is not None and len(result.pairs) >= limit:
                        result.stats.truncated = True
                        return

    # ------------------------------------------------------------------

    def _prepare(self, expr: RegexNode, ctx: _EvalContext) -> _Prepared:
        """Compile ``expr`` (or fetch the compilation from cache).

        Expression trees are immutable value objects, so they key both
        the context's per-``evaluate`` memo (a v-to-v evaluation
        prepares the same expression and its reverse up to three times)
        and a bounded per-engine LRU that persists across calls —
        benchmark loops and dashboards re-issue the same patterns
        constantly.  The LRU is shared by concurrent evaluations, so
        its get/insert/evict runs under ``_prepare_lock``; the memo is
        private to the context and needs none.  A cached entry still
        refreshes the per-query stats fields.
        """
        stats = ctx.stats
        stats.prepares += 1
        obs = ctx.obs
        memo = ctx.memo
        prepared = memo.get(expr)
        if prepared is None and self._prepare_cache_size:
            with self._prepare_lock:
                prepared = self._prepare_cache.get(expr)
                if prepared is not None:
                    self._prepare_cache.move_to_end(expr)
        if prepared is not None:
            stats.prepare_cache_hits += 1
            if obs.enabled:
                obs.inc("engine.prepare_cache_hits")
        else:
            prepared = _Prepared(expr, self.index)
            if obs.enabled:
                obs.inc("engine.prepare_builds")
            if self._prepare_cache_size:
                with self._prepare_lock:
                    cache = self._prepare_cache
                    cache[expr] = prepared
                    while len(cache) > self._prepare_cache_size:
                        cache.popitem(last=False)
        memo[expr] = prepared
        stats.nfa_states = max(stats.nfa_states, prepared.automaton.num_states)
        stats.b_entries = max(stats.b_entries, len(prepared.b_masks))
        return prepared

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingRPQEngine(prune={self.prune}, fast={self.fast_paths})"
