"""The backward product-graph traversal of §4, one runner.

:class:`BatchedBackwardRun` is the BFS of §4.1–4.3 over (object range,
state set) entries, for one anchor or for many anchored subqueries in
lockstep.  The pending queue is consumed wave by wave (one wave = one
BFS generation).  Every entry can be expanded on its own — one stack
walk of ``L_p`` pruned by the ``B[v]`` masks, and at each accepted
predicate leaf one stack walk of ``L_s`` pruned by the ``D[v]`` marks,
all on Python ints — and that is the whole algorithm.  Where a frontier
is wide — in a multi-anchor run (:meth:`BatchedBackwardRun.run_many`),
a full-range start, or a single-anchor run whose waves have grown —
the same work runs on whole frontiers instead:

* all L_p descents of a wave merge into one level-synchronous frontier
  — the ``B[v]`` mask pruning of §4.1 becomes a numpy boolean filter
  against a per-level mask array, and each level costs one vectorized
  rank call (:func:`repro._util.bits.rank1_many_words`) instead of two
  scalar ranks per node;
* the traversal state is arrays, not dicts: the ``D`` visited table is
  a sorted ``int64`` key column ``anchor·|V| + node`` with a mask
  column, and the ``D[v]`` marks of §4.2 are one such pair per ``L_s``
  level, keyed ``anchor·2^level + prefix``.  All L_s descents of a
  wave, from every anchor, then run as one level-synchronous descent:
  each level is one rank call, and the empty / prune / cover / child
  steps are whole-frontier filters with ``np.searchsorted`` lookups
  into the marks, merged back once per level.

What decides: the array path needs the automaton's masks to fit an
``int64`` column (``prepared.mask_levels`` is None for more than 63
states).  Then a multi-anchor run takes it for every wave, and so does
the full-range start of a v-to-v first pass, whose ``D`` and ``D[v]``
lookups default to its base mark instead of 0.  A single-anchor run
(:meth:`BatchedBackwardRun.run`) starts entry by entry and moves to the
array path, one way, at the first pending wave of ``_ARRAY_WAVE_MIN``
entries: its dict tables become the sorted columns, its wave the entry
columns, and the reports and the cap count carry over.  Narrow waves
stay on the stack walk, which costs no per-level numpy dispatch.  The
switch falls between two waves, and the array path does each wave's
work in the sequential order, so the run is the one the stack walk
would have made.  An engine built with ``batch=False`` never merges —
the reference the differential tests hold the merged paths to.

Correctness of the reordering:

* The wavelet matrix is a perfect tree — every leaf sits at level
  ``height`` — and children are emitted in ``[left, right]`` order, so
  a level-synchronous descent reports leaves in exactly the order the
  stack walk (push right, push left, pop) visits them.
* An L_p descent reads no mutable traversal state, so merging the
  descents of one wave cannot change any outcome; each entry's leaf
  list is what its own stack walk would produce.
* An L_s descent reads and writes the marks.  Within one descent every
  ``(level, prefix)`` node and every subject appears at most once, and
  a level's marks are read only at that level, so whether task ``t``
  prunes at a node depends only on the marks stored before the wave
  and on the writes of the *earlier* tasks of its anchor at that same
  node.  The merged descent keeps its frontier task-major (tasks in
  the sequential order) and computes, per element, the stored mark
  OR-ed with the exclusive prefix-OR of the masks of the earlier
  elements with the same key: at an internal node the earlier tasks
  that *covered* it (only those write ``D[v]``), at a leaf all earlier
  tasks that reached the subject.  That is exactly the ``seen`` the
  sequential walk would read (a pruned earlier task adds nothing, its
  mask already being inside ``seen``), so every prune decision, every
  ``d_new``, every report and every next-wave entry is the sequential
  one, in the sequential order.  Across anchors the keys are disjoint.

Counter semantics are preserved exactly — a batch of ``k`` nodes
counts as ``k`` in every bucket, so the PR-1 invariants
(``lp_nodes + lp_pruned + lp_empty == lp_descents + lp_children`` and
the L_s analogue) keep holding and the engine-level differential test
can assert merged == unmerged counter for counter.  The only divergence
is on an array run that stops early — at a cap, or at a ``cc`` target
reached after the switch: a merged wave has already accounted the whole
L_p leaf scan, and a merged L_s descent all its internal levels, where
the entry-by-entry walk stops mid-scan.  Reported *results* are
identical either way, because leaves are processed in the same order
up to the stopping point.

Timeout ticks fire only at *balanced* points — end of an L_p wave, end
of an entry's expansion or of an L_s descent — at a carry-accumulated
rate of one :meth:`_Budget.tick` per 256 processed nodes.  A
:class:`~repro.errors.QueryTimeoutError` therefore always surfaces
with balanced counter buckets, which the partial-stats-on-timeout
regression test relies on.

Both forms read the arrays the ring already holds: the stack walks the
Python-int lists of :meth:`WaveletMatrix.traversal_data`, the merged
kernels :meth:`WaveletMatrix._held_levels`.  A run leaves nothing
behind on the index.
"""

from __future__ import annotations

import time

import numpy as np

from repro._util.bits import rank1_many_words
from repro.automata.glushkov import GlushkovAutomaton

#: One timeout tick per this many processed wavelet nodes.
_TICK_GRAIN = 256

#: A single-anchor run moves to the array kernel, for good, at the
#: first pending wave of this many entries (docs/performance.md,
#: "Thresholds").
_ARRAY_WAVE_MIN = 32


def _children(level_data, z, prefix, b, e):
    """The ``[left, right]`` children of a frontier at one wavelet
    level, interleaved: one rank call for both ends of every range."""
    words, cum, n_bits = level_data
    k = len(b)
    ranks = rank1_many_words(words, cum, n_bits, np.concatenate((b, e)))
    r1b, r1e = ranks[:k], ranks[k:]
    next_prefix = np.empty(2 * k, dtype=np.int64)
    next_b = np.empty(2 * k, dtype=np.int64)
    next_e = np.empty(2 * k, dtype=np.int64)
    next_prefix[0::2] = prefix << 1
    next_prefix[1::2] = (prefix << 1) | 1
    next_b[0::2] = b - r1b
    next_b[1::2] = z + r1b
    next_e[0::2] = e - r1e
    next_e[1::2] = z + r1e
    return next_prefix, next_b, next_e


def _marks_of(keys, marks, query, base):
    """The mark of each ``query`` key in the sorted table, OR-ed with
    ``base``: the mark every key carries (0, or a full-range start's)."""
    if not len(keys):
        return np.full(len(query), base, dtype=np.int64)
    pos = np.searchsorted(keys, query)
    np.minimum(pos, len(keys) - 1, out=pos)
    return np.where(keys[pos] == query, marks[pos] | base, base)


def _table(keys, masks):
    """A sorted ``(key, mask)`` table from lists of distinct keys."""
    keys = np.asarray(keys, dtype=np.int64)
    order = np.argsort(keys)
    return keys[order], np.asarray(masks, dtype=np.int64)[order]


def _earlier_or(keys, masks):
    """Per element, the OR of ``masks`` over the earlier elements with
    the same key (0 for the first of its key): a segmented exclusive
    prefix-OR, doubling the reach of each element per step."""
    out = np.zeros(len(keys), dtype=np.int64)
    if len(keys) < 2:
        return out
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    same = keys[1:] == keys[:-1]
    if not same.any():
        return out
    acc = masks[order]
    step = 1
    while step < len(keys):
        link = keys[step:] == keys[:-step]
        if not link.any():
            break
        acc[step:] = acc[step:] | np.where(link, acc[:-step], 0)
        step <<= 1
    out[order[1:]] = np.where(same, acc[:-1], 0)
    return out


def _or_into(keys, marks, new_keys, new_masks):
    """The sorted table with ``new_masks`` OR-ed in at ``new_keys``."""
    if not len(new_keys):
        return keys, marks
    order = np.argsort(new_keys, kind="stable")
    new_keys = new_keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], new_keys[1:] != new_keys[:-1]))
    )
    new_keys = new_keys[starts]
    new_masks = np.bitwise_or.reduceat(new_masks[order], starts)
    pos = np.searchsorted(keys, new_keys)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == new_keys[hit]
    marks[pos[hit]] |= new_masks[hit]
    miss = ~hit
    if miss.any():
        keys = np.insert(keys, pos[miss], new_keys[miss])
        marks = np.insert(marks, pos[miss], new_masks[miss])
    return keys, marks


class BatchedBackwardRun:
    """Backward BFS over one prepared query, for one anchor
    (:meth:`run`) or many anchored subqueries in lockstep
    (:meth:`run_many`)."""

    def __init__(self, engine, prepared, ctx, prune: bool):
        self.engine = engine
        self.prepared = prepared
        self.budget = ctx.budget
        self.stats = ctx.stats
        self.prune = prune
        self.obs = ctx.obs
        self.forbidden = ctx.forbidden_ids
        # int64 mask columns exist for automata of at most 63 states.
        self.merge = engine.batch and prepared.mask_levels is not None
        self._tick_carry = 0
        # Per-anchor traversal state of a dict run, filled by _run:
        self.visited: list[dict[int, int]] = []
        self.vnode_visited: list[dict[tuple[int, int], int]] = []
        # ... and of an array run, filled by _run_arrays: the sorted
        # (key, mask) columns of D and of D[v], one pair per L_s level.
        self.d_table: tuple[np.ndarray, np.ndarray] | None = None
        self.dv_tables: list[tuple[np.ndarray, np.ndarray]] = []
        self.reported: list[set[int]] = []
        self.base_mask = 0
        self.max_reported: int | None = None
        self.target: int | None = None
        self.total_reported = 0
        self.done = False

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def run(
        self,
        start_range: tuple[int, int],
        start_node: int | None,
        max_reported: int | None = None,
        target: int | None = None,
    ) -> set[int]:
        """Traverse from one start range and return the reported ids.

        ``start_node=None`` means the full-range start of a v-to-v
        first pass: every node is then treated as already visited with
        the final states (minus the initial state, which must stay
        reportable).  ``target`` enables the early exit of fixed-fixed
        queries; ``max_reported`` implements the result cap.
        """
        # A full-range start is one wide wave from its first step.
        if self.merge and start_node is None:
            go = self._run_arrays
        else:
            go = self._run
        return go([start_node], [start_range], max_reported, target)[0]

    def visited_masks(self, ai: int = 0) -> dict[int, int]:
        """Anchor ``ai``'s ``D`` table as ``{node: state set}``, read
        from whichever form the run ended in."""
        if self.d_table is None:
            return dict(self.visited[ai])
        keys, marks = self.d_table
        n_nodes = self.engine.ring.num_nodes
        row = keys // n_nodes == ai
        return dict(zip(
            (keys[row] % n_nodes).tolist(),
            (marks[row] | self.base_mask).tolist(),
        ))

    def run_many(
        self,
        anchors: "list[int]",
        start_ranges,
        max_reported: int | None = None,
    ) -> "list[set[int]]":
        """One anchored subquery per anchor, traversed in lockstep.

        ``start_ranges[i]`` is anchor ``i``'s object range.
        ``max_reported`` caps the *total* across all anchors (phase 2
        consumes one shared result budget).  Returns the per-anchor
        reported sets, index-aligned with ``anchors``.
        """
        if self.merge:
            return self._run_arrays(anchors, start_ranges, max_reported)
        return self._run(list(anchors), start_ranges, max_reported, None)

    # ------------------------------------------------------------------

    def _begin(self, anchors, max_reported, target) -> bool:
        """Reset the per-run state; False when there is nothing to run."""
        k = len(anchors)
        self.reported = [set() for _ in range(k)]
        self.max_reported = max_reported
        self.target = target
        self.total_reported = 0
        self.done = False
        self.d_table = None
        # A full-range start treats every node as already visited with
        # the final states, minus the initial one (it must stay
        # reportable): the mark every D and D[v] lookup starts from.
        start_mask = self.prepared.automaton.final_mask
        self.base_mask = (
            start_mask & ~GlushkovAutomaton.INITIAL_MASK
            if None in anchors else 0
        )
        return start_mask != 0 and k != 0

    def _run(self, anchors, start_ranges, max_reported, target):
        if not self._begin(anchors, max_reported, target):
            return self.reported
        automaton = self.prepared.automaton
        start_mask = automaton.final_mask
        k = len(anchors)
        self.visited = [dict() for _ in range(k)]
        self.vnode_visited = [dict() for _ in range(k)]
        full_mask = (1 << automaton.num_states) - 1
        forbidden = self.forbidden
        wave: list[tuple[int, int, int, int]] = []
        for ai, anchor in enumerate(anchors):
            if anchor is not None:
                self.visited[ai][anchor] = start_mask
            for node in forbidden:
                self.visited[ai][node] = full_mask
            b, e = start_ranges[ai]
            wave.append((ai, int(b), int(e), start_mask))

        while wave and not self.done:
            if self.merge and len(wave) >= _ARRAY_WAVE_MIN:
                return self._finish_arrays(self._to_arrays(wave))
            wave = self._process_wave(wave)
        for visited in self.visited:
            self.stats.visited_nodes = max(
                self.stats.visited_nodes, len(visited)
            )
        return self.reported

    def _to_arrays(self, wave):
        """Move a dict run's ``D`` / ``D[v]`` tables into the sorted
        columns of an array run; returns ``wave`` as columns."""
        n_nodes = self.engine.ring.num_nodes
        self.d_table = _table(
            [ai * n_nodes + node
             for ai, visited in enumerate(self.visited) for node in visited],
            [mask for visited in self.visited for mask in visited.values()],
        )
        dv_lists = [([], []) for _ in range(self.engine.ring.L_s.height)]
        for ai, marks in enumerate(self.vnode_visited):
            for (level, prefix), mask in marks.items():
                keys, masks = dv_lists[level]
                keys.append((ai << level) | prefix)
                masks.append(mask)
        self.dv_tables = [_table(*lists) for lists in dv_lists]
        return tuple(np.array(wave, dtype=np.int64).T)

    def _run_arrays(self, anchors, start_ranges, max_reported, target=None):
        """:meth:`run_many`, and a full-range :meth:`run`, on array-held
        state (see the module notes)."""
        if not self._begin(anchors, max_reported, target):
            return self.reported
        automaton = self.prepared.automaton
        start_mask = automaton.final_mask
        k = len(anchors)
        ring = self.engine.ring
        n_nodes = ring.num_nodes
        full_mask = (1 << automaton.num_states) - 1
        rows = np.arange(k, dtype=np.int64)
        anchored = [ai for ai, node in enumerate(anchors) if node is not None]
        forbidden = np.fromiter(self.forbidden, np.int64, len(self.forbidden))
        empty = np.zeros(0, dtype=np.int64)
        self.d_table = _or_into(
            empty, empty,
            np.concatenate((
                rows[anchored] * n_nodes
                + np.asarray([anchors[ai] for ai in anchored], dtype=np.int64),
                (rows[:, None] * n_nodes + forbidden).ravel(),
            )),
            np.concatenate((
                np.full(len(anchored), start_mask, dtype=np.int64),
                np.full(k * len(forbidden), full_mask, dtype=np.int64),
            )),
        )
        self.dv_tables = [(empty, empty)] * ring.L_s.height
        ranges = np.asarray(start_ranges, dtype=np.int64).reshape(k, 2)
        return self._finish_arrays((
            rows, ranges[:, 0], ranges[:, 1],
            np.full(k, start_mask, dtype=np.int64),
        ))

    def _finish_arrays(self, wave):
        """Run the remaining waves on the array kernel; the reports join
        any a dict run made before it moved here."""
        reports = []
        while len(wave[0]) and not self.done:
            wave = self._array_wave(wave, reports)

        n_nodes = self.engine.ring.num_nodes
        keys = self.d_table[0]
        self.stats.visited_nodes = max(
            self.stats.visited_nodes,
            int(np.bincount(keys // n_nodes, minlength=1).max()),
        )
        if reports:
            rows = np.concatenate([row for row, _ in reports])
            nodes = np.concatenate([node for _, node in reports])
            order = np.argsort(rows, kind="stable")
            rows, nodes = rows[order], nodes[order]
            firsts = np.flatnonzero(np.diff(rows, prepend=-1))
            for row, group in zip(
                rows[firsts].tolist(), np.split(nodes, firsts[1:])
            ):
                self.reported[row].update(group.tolist())
        return self.reported

    # ------------------------------------------------------------------
    # One BFS generation
    # ------------------------------------------------------------------

    def _open_wave(self, width):
        """Wave-level telemetry; returns the wave's span (or None)."""
        obs = self.obs
        if not obs.enabled:
            return None
        obs.inc("engine.steps", width)
        if obs.spans is None:
            return None
        span = obs.spans.start("wave")
        span.set(width=width)
        return span

    def _close_wave(self, span, next_width):
        if span is not None:
            span.set(next_width=next_width)
            self.obs.spans.end(span)

    def _process_wave(self, wave):
        """Expand every pending entry of one generation of a dict run;
        returns the next generation's entries."""
        entries = [
            entry for entry in wave if entry[1] < entry[2]
        ]
        self._next_wave: list[tuple[int, int, int, int]] = []
        if not entries:
            return self._next_wave
        span = self._open_wave(len(entries))
        for ai, b_o, e_o, d in entries:
            self._expand_entry_scalar(ai, b_o, e_o, d)
            self._tick_flush()
            if self.done:
                break
        self._close_wave(span, len(self._next_wave))
        return self._next_wave

    def _array_wave(self, wave, reports):
        """One generation of an array run: ``wave`` and the returned
        next generation are ``(anchor row, b, e, D)`` columns."""
        rows, b, e, d = wave
        live = e > b
        if not live.all():
            rows, b, e, d = rows[live], b[live], e[live], d[live]
        if not len(b):
            return rows, b, e, d
        span = self._open_wave(len(b))
        tasks = self._lp_wave(rows, b, e, d)
        self._tick_flush()
        wave = self._ls_wave(*tasks, reports)
        self._tick_flush()
        self._close_wave(span, len(wave[0]))
        return wave

    def _tick_flush(self):
        """Fire the accumulated timeout ticks at a balanced point."""
        tick = self.budget.tick
        while self._tick_carry >= _TICK_GRAIN:
            self._tick_carry -= _TICK_GRAIN
            tick()

    # ------------------------------------------------------------------
    # Merged L_p wave (§4.1, frontier-at-once)
    # ------------------------------------------------------------------

    def _lp_wave(self, w_rows, w_b, w_e, w_d):
        """Merged L_p descent of all wave entries, given as columns.

        Returns the accepted predicate leaves mapped through the
        backward step, as ``(anchor row, b_s, e_s, d_next)`` columns in
        stack-walk order (entry-major, predicate ascending).
        """
        stats = self.stats
        prepared = self.prepared
        prune = self.prune
        mask_levels = prepared.mask_levels
        ring = self.engine.ring
        levels = ring.L_p._held_levels()
        bottom_start = ring.L_p._bottom_start
        _, zeros, height, _, _, _ = self.engine.lp_data
        obs = self.obs
        timed = obs.enabled
        spans = obs.spans if timed else None
        now = time.monotonic
        if timed:
            t_start = now()

        k0 = len(w_b)
        lp_span = None
        if spans is not None:
            lp_span = spans.start("lp_wave")
            lp_span.set(width=k0)
        stats.lp_descents += k0
        eidx = np.arange(k0, dtype=np.int64)
        dv = w_d
        prefix = np.zeros(k0, dtype=np.int64)
        b, e = w_b, w_e

        examined = 0
        lp_empty = lp_pruned = lp_nodes = lp_children = 0
        wavelet_nodes = 0
        for level in range(height + 1):
            k = len(b)
            if k == 0:
                break
            examined += k
            nonempty = e > b
            if not nonempty.all():
                lp_empty += k - int(nonempty.sum())
                eidx, dv, prefix, b, e = (
                    eidx[nonempty], dv[nonempty], prefix[nonempty],
                    b[nonempty], e[nonempty],
                )
                k = len(b)
                if k == 0:
                    break
            wavelet_nodes += k
            if prune:
                keep = (mask_levels[level][prefix] & dv) != 0
                if not keep.all():
                    lp_pruned += k - int(keep.sum())
                    eidx, dv, prefix, b, e = (
                        eidx[keep], dv[keep], prefix[keep],
                        b[keep], e[keep],
                    )
                    k = len(b)
                    if k == 0:
                        break
            lp_nodes += k
            if level == height:
                break
            lp_children += 2 * k
            eidx = np.repeat(eidx, 2)
            dv = np.repeat(dv, 2)
            prefix, b, e = _children(
                levels[level], zeros[level], prefix, b, e
            )
        stats.lp_empty += lp_empty
        stats.lp_pruned += lp_pruned
        stats.lp_nodes += lp_nodes
        stats.lp_children += lp_children
        stats.wavelet_nodes += wavelet_nodes
        stats.storage_ops += lp_children
        self._tick_carry += examined

        # The §4.2 hand-off per surviving (entry, predicate) leaf; the
        # leaf row of mask_levels is B.  Unpruned, a leaf may miss it.
        ring_span = None
        if spans is not None and len(b):
            ring_span = spans.start("ring.steps")
            ring_span.set(leaves=len(b))
        filtered = dv & mask_levels[height][prefix]
        accepted = filtered != 0
        if not accepted.all():
            eidx, prefix, b, e, filtered = (
                eidx[accepted], prefix[accepted], b[accepted],
                e[accepted], filtered[accepted],
            )
        product_edges = len(b)
        stats.product_edges += product_edges
        stats.backward_steps += product_edges
        step = prepared.reverse.step_prefiltered
        masks, inverse = np.unique(filtered, return_inverse=True)
        d_next = np.fromiter(
            (step(mask) for mask in masks.tolist()), np.int64, len(masks),
        )[inverse]
        base = ring.C_p.gather(prefix) - bottom_start[prefix]
        b_s, e_s = base + b, base + e
        rows = w_rows[eidx]
        moving = d_next != 0
        if not moving.all():
            rows, b_s, e_s, d_next = (
                rows[moving], b_s[moving], e_s[moving], d_next[moving],
            )
        if ring_span is not None:
            ring_span.set(steps=product_edges)
            spans.end(ring_span)
        if lp_span is not None:
            spans.end(lp_span)
        if timed:
            obs.add_phase("predicates_from_objects", now() - t_start)
        return rows, b_s, e_s, d_next

    # ------------------------------------------------------------------
    # Merged L_s descent (§4.2, every task of a wave at once)
    # ------------------------------------------------------------------

    def _ls_wave(self, t_rows, t_b, t_e, t_d, reports):
        """One level-synchronous L_s descent of all of a wave's tasks,
        against the array-held ``D`` / ``D[v]`` marks.

        The frontier stays task-major and prefix-ascending, so the leaf
        list is the sequential walk's visiting order.  Appends the
        ``(anchor row, subject)`` columns of the reports to ``reports``
        and returns the next wave as ``(anchor row, b, e, D)`` columns.
        """
        stats = self.stats
        prune = self.prune
        base_mask = self.base_mask
        ring = self.engine.ring
        levels = ring.L_s._held_levels()
        class_cum = ring.L_s._class_cum
        _, zeros, height, sigma, _, _ = self.engine.ls_data
        n_nodes = ring.num_nodes
        obs = self.obs
        timed = obs.enabled
        now = time.monotonic
        if timed:
            t_start = now()
        ls_span = None
        if timed and obs.spans is not None:
            ls_span = obs.spans.start("ls_wave")
            ls_span.set(width=len(t_b))

        stats.ls_descents += len(t_b)
        tid = np.arange(len(t_b), dtype=np.int64)
        prefix = np.zeros(len(t_b), dtype=np.int64)
        b, e = t_b, t_e
        examined = 0
        ls_empty = ls_pruned = ls_nodes = ls_children = 0
        wavelet_nodes = 0
        for level in range(height):
            k = len(b)
            if k == 0:
                break
            examined += k
            nonempty = e > b
            if not nonempty.all():
                ls_empty += k - int(nonempty.sum())
                tid, prefix, b, e = (
                    tid[nonempty], prefix[nonempty], b[nonempty],
                    e[nonempty],
                )
                k = len(b)
                if k == 0:
                    break
            wavelet_nodes += k
            if prune:
                d = t_d[tid]
                key = (t_rows[tid] << level) | prefix
                # Only a descent whose range covers the node (every
                # occurrence below it is inside the range) records the
                # visit — see DESIGN.md "Deviations".
                shift = height - level
                lo = prefix << shift
                hi = np.minimum(lo + (1 << shift), sigma)
                covered = class_cum[hi] - class_cum[lo] == e - b
                marks = self.dv_tables[level]
                seen = _marks_of(*marks, key, base_mask)
                if covered.any():
                    seen |= _earlier_or(key, np.where(covered, d, 0))
                    self.dv_tables[level] = _or_into(
                        *marks, key[covered], d[covered]
                    )
                keep = (d | seen) != seen
                if not keep.all():
                    ls_pruned += k - int(keep.sum())
                    tid, prefix, b, e = (
                        tid[keep], prefix[keep], b[keep], e[keep],
                    )
                    k = len(b)
                    if k == 0:
                        break
            ls_nodes += k
            ls_children += 2 * k
            tid = np.repeat(tid, 2)
            prefix, b, e = _children(
                levels[level], zeros[level], prefix, b, e
            )

        # Leaf level: each subject against the D table, with the same
        # exclusive prefix-OR over the earlier tasks of its anchor.
        k = len(b)
        examined += k
        live = np.flatnonzero(e > b)
        tid, subject = tid[live], prefix[live]
        rows, d = t_rows[tid], t_d[tid]
        key = rows * n_nodes + subject
        seen = _marks_of(*self.d_table, key, base_mask) | _earlier_or(key, d)
        keep = (d | seen) != seen
        d_new = d & ~seen
        report = keep & ((d_new & GlushkovAutomaton.INITIAL_MASK) != 0)
        # The early exits: the leaves after the one that reports the
        # ``cc`` target, or that fills the cap, are never reached.  At
        # one leaf the target wins, as in the entry-by-entry walk.
        cut = None
        hits = np.flatnonzero(report)
        if self.target is not None:
            found = hits[subject[hits] == self.target]
            if len(found):
                cut = int(found[0]) + 1
        if self.max_reported is not None:
            room = max(self.max_reported - self.total_reported, 1)
            last = int(hits[room - 1]) if len(hits) >= room else None
            if last is not None and (cut is None or last < cut - 1):
                cut = last + 1
                stats.truncated = True
        stop = len(live)
        if cut is not None:
            stop = cut
            self.done = True
            rows, subject, d, key, keep, d_new, report = (
                rows[:stop], subject[:stop], d[:stop], key[:stop],
                keep[:stop], d_new[:stop], report[:stop],
            )
        ls_empty += int(live[stop - 1]) + 1 - stop if self.done else k - stop
        n_keep = int(keep.sum())
        wavelet_nodes += stop
        ls_pruned += stop - n_keep
        ls_nodes += n_keep
        stats.product_nodes += n_keep
        self.d_table = _or_into(*self.d_table, key[keep], d[keep])
        reports.append((rows[report], subject[report]))
        self.total_reported += int(report.sum())
        if self.done:
            keep[stop - 1] = False  # the leaf that ended the run
        rows, subject, d_new = rows[keep], subject[keep], d_new[keep]
        stats.object_ranges += len(rows)
        ob = ring.C_o.gather(subject)
        oe = ring.C_o.gather(subject + 1)
        has = ob < oe
        stats.ls_empty += ls_empty
        stats.ls_pruned += ls_pruned
        stats.ls_nodes += ls_nodes
        stats.ls_children += ls_children
        stats.wavelet_nodes += wavelet_nodes
        stats.storage_ops += ls_children
        self._tick_carry += examined
        if ls_span is not None:
            obs.spans.end(ls_span)
        if timed:
            obs.add_phase("subjects_from_predicates", now() - t_start)
        return rows[has], ob[has], oe[has], d_new[has]

    # ------------------------------------------------------------------
    # One entry at a time (narrow single-anchor waves, > 63 states,
    # batch=False)
    # ------------------------------------------------------------------

    def _expand_entry_scalar(self, ai, b_o, e_o, d):
        """Parts 1–3 of one NFA step for one entry.

        The ``L_p`` descent is the node-API walk of §4.1 unrolled onto
        :meth:`WaveletMatrix.traversal_data` arrays — identical
        traversal order and pruning decisions, without per-node object
        construction — and collects inline at each accepted leaf.
        """
        ring = self.engine.ring
        prepared = self.prepared
        bv_masks = prepared.bv_masks
        b_masks = prepared.b_masks
        step_prefiltered = prepared.reverse.step_prefiltered
        stats = self.stats
        prune = self.prune
        c_p = ring.C_p.fast_list() or ring.C_p
        levels, zeros, height, _, _, bottom_start = self.engine.lp_data
        obs = self.obs
        timed = obs.enabled
        now = time.monotonic
        if timed:
            t_start = now()
            t_sub = 0.0
        stats.lp_descents += 1

        stack = [(0, 0, b_o, e_o)]
        pops = 0
        while stack:
            pops += 1
            level, prefix, b, e = stack.pop()
            if b >= e:
                stats.lp_empty += 1
                continue
            stats.wavelet_nodes += 1
            if prune:
                filtered = d & bv_masks.get((level, prefix), 0)
                if filtered == 0:
                    stats.lp_pruned += 1
                    continue
            stats.lp_nodes += 1
            if level == height:
                pid = prefix
                filtered = d & b_masks.get(pid, 0)
                if filtered == 0:
                    continue  # reachable only when pruning is disabled
                start = bottom_start[pid]
                base = c_p[pid]
                b_s, e_s = base + (b - start), base + (e - start)
                if b_s >= e_s:
                    continue
                stats.product_edges += 1
                stats.backward_steps += 1
                d_next = step_prefiltered(filtered)
                if d_next == 0:
                    continue
                if timed:
                    t0 = now()
                    self._collect_scalar(ai, b_s, e_s, d_next)
                    t_sub += now() - t0
                else:
                    self._collect_scalar(ai, b_s, e_s, d_next)
                if self.done:
                    break
            else:
                stats.lp_children += 2
                stats.storage_ops += 2
                words, cum, n_bits = levels[level]
                # rank1(b), rank1(e) inlined (BitVector fast path).
                if b <= 0:
                    r1b = 0
                elif b >= n_bits:
                    r1b = cum[-1]
                else:
                    w = b >> 6
                    off = b & 63
                    r1b = cum[w]
                    if off:
                        r1b += (words[w] & ((1 << off) - 1)).bit_count()
                if e >= n_bits:
                    r1e = cum[-1]
                else:
                    w = e >> 6
                    off = e & 63
                    r1e = cum[w]
                    if off:
                        r1e += (words[w] & ((1 << off) - 1)).bit_count()
                z = zeros[level]
                next_level = level + 1
                stack.append(
                    (next_level, (prefix << 1) | 1, z + r1b, z + r1e)
                )
                stack.append(
                    (next_level, prefix << 1, b - r1b, e - r1e)
                )
        self._tick_carry += pops
        if timed:
            obs.add_phase("predicates_from_objects", now() - t_start - t_sub)

    def _collect_scalar(self, ai, b_s, e_s, d_next):
        """Part 2 for one task: distinct unvisited subjects in
        ``L_s[b_s, e_s)``, each mapped on to its object range."""
        ring = self.engine.ring
        stats = self.stats
        prune = self.prune
        visited = self.visited[ai]
        vnode_visited = self.vnode_visited[ai]
        reported = self.reported[ai]
        base_mask = self.base_mask
        c_o = ring.C_o.fast_list() or ring.C_o
        levels, zeros, height, sigma, class_cum, _ = self.engine.ls_data
        initial_mask = GlushkovAutomaton.INITIAL_MASK
        max_reported = self.max_reported
        target = self.target
        next_wave = self._next_wave
        obs = self.obs
        timed = obs.enabled
        now = time.monotonic
        if timed:
            t_start = now()
            t_obj = 0.0
        stats.ls_descents += 1

        stack = [(0, 0, b_s, e_s)]
        pops = 0
        while stack:
            pops += 1
            level, prefix, b, e = stack.pop()
            if b >= e:
                stats.ls_empty += 1
                continue
            stats.wavelet_nodes += 1
            if level == height:
                subject = prefix
                seen = visited.get(subject, base_mask)
                if d_next | seen == seen:
                    stats.ls_pruned += 1
                    continue
                stats.ls_nodes += 1
                d_new = d_next & ~seen
                visited[subject] = seen | d_next
                stats.product_nodes += 1
                if d_new & initial_mask:
                    reported.add(subject)
                    self.total_reported += 1
                    if target is not None and subject == target:
                        self.done = True
                        break
                    if (
                        max_reported is not None
                        and self.total_reported >= max_reported
                    ):
                        stats.truncated = True
                        self.done = True
                        break
                if timed:
                    t0 = now()
                stats.object_ranges += 1
                ob = c_o[subject]
                oe = c_o[subject + 1]
                if ob < oe:
                    next_wave.append((ai, ob, oe, d_new))
                if timed:
                    t_obj += now() - t0
                continue
            if prune:
                key = (level, prefix)
                seen = vnode_visited.get(key, base_mask)
                if d_next | seen == seen:
                    stats.ls_pruned += 1
                    continue
                # Record the visit only when the range *covers* the node
                # (every occurrence below it is inside the range) — the
                # paper's unconditional update is unsound for partial
                # ranges; see DESIGN.md "Deviations".
                shift = height - level
                lo = prefix << shift
                hi = lo + (1 << shift)
                if hi > sigma:
                    hi = sigma
                if class_cum[hi] - class_cum[lo] == e - b:
                    vnode_visited[key] = seen | d_next
            stats.ls_nodes += 1
            stats.ls_children += 2
            stats.storage_ops += 2
            words, cum, n_bits = levels[level]
            if b <= 0:
                r1b = 0
            elif b >= n_bits:
                r1b = cum[-1]
            else:
                w = b >> 6
                off = b & 63
                r1b = cum[w]
                if off:
                    r1b += (words[w] & ((1 << off) - 1)).bit_count()
            if e >= n_bits:
                r1e = cum[-1]
            else:
                w = e >> 6
                off = e & 63
                r1e = cum[w]
                if off:
                    r1e += (words[w] & ((1 << off) - 1)).bit_count()
            z = zeros[level]
            next_level = level + 1
            stack.append((next_level, (prefix << 1) | 1, z + r1b, z + r1e))
            stack.append((next_level, prefix << 1, b - r1b, e - r1e))
        self._tick_carry += pops
        if timed:
            obs.add_phase("subjects_from_predicates", now() - t_start - t_obj)
            obs.add_phase("subjects_to_objects", t_obj)
