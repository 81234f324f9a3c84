"""The backward product-graph traversal of §4, one runner.

:class:`BatchedBackwardRun` is the BFS of §4.1–4.3 over (object range,
state set) entries, for one anchor or for many anchored subqueries in
lockstep.  The pending queue is consumed wave by wave (one wave = one
BFS generation).  Every entry can be expanded on its own — one stack
walk of ``L_p`` pruned by the ``B[v]`` masks, and at each accepted
predicate leaf one stack walk of ``L_s`` pruned by the ``D[v]`` marks,
all on Python ints — and that is the whole algorithm.  Where a frontier
is wide the same work runs on whole frontiers instead:

* all L_p descents of a wave merge into one level-synchronous frontier
  — the ``B[v]`` mask pruning of §4.1 becomes a numpy boolean filter
  against a per-level mask array, and each level costs one vectorized
  rank call (:func:`repro._util.bits.rank1_many_words`) instead of two
  scalar ranks per node;
* the L_s descents of §4.2 mutate per-run state (the ``D`` visited
  table and the ``D[v]`` node marks), so descents of the *same* anchor
  stay sequential; descents of *different* anchors are independent and
  run merged, one round-robin round at a time, with per-element anchor
  provenance carried in a parallel array.

What decides between the two is what the runner can observe: a wave
merges when it has at least ``_LP_WAVE_MIN`` entries and the automaton's
masks fit an ``int64`` column (``prepared.mask_levels`` is None for
more than 63 states), and an L_s round merges when it holds at least
``_LS_ROUND_MIN`` descents; below those widths the numpy fixed costs
exceed the saving.  An engine built with ``batch=False`` never merges —
the reference the differential tests hold the merged paths to.

Correctness of the reordering:

* The wavelet matrix is a perfect tree — every leaf sits at level
  ``height`` — and children are emitted in ``[left, right]`` order, so
  a level-synchronous descent reports leaves in exactly the order the
  stack walk (push right, push left, pop) visits them.
* An L_p descent reads no mutable traversal state, so merging the
  descents of one wave cannot change any outcome; each entry's leaf
  list is what its own stack walk would produce.
* Within one L_s descent every conceptual ``(level, prefix)`` node and
  every subject appears at most once, so level order vs DFS order
  cannot change a prune decision; across descents of one anchor the
  sequential task order preserves the entry-by-entry mutation order;
  across anchors the dictionaries are disjoint.

Counter semantics are preserved exactly — a batch of ``k`` nodes
counts as ``k`` in every bucket, so the PR-1 invariants
(``lp_nodes + lp_pruned + lp_empty == lp_descents + lp_children`` and
the L_s analogue) keep holding and the engine-level differential test
can assert merged == unmerged counter for counter.  The only divergence
is on early-exited runs (result cap hit, or boolean target found): a
merged wave has already accounted the whole L_p leaf scan it was in,
where the entry-by-entry walk stops mid-scan.  Reported *results* are
identical either way, because leaves are processed in the same order
up to the stopping point.

Timeout ticks fire only at *balanced* points — end of an L_p wave, end
of an entry's expansion, end of an L_s round — at a carry-accumulated
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

#: Waves with fewer pending entries than this expand entry by entry;
#: the numpy level machinery costs ~tens of µs per wave, which only
#: pays off once several descents share it.
_LP_WAVE_MIN = 8

#: L_s rounds merging fewer descents than this run them one after the
#: other instead: the per-subject work is dict-bound either way, so the
#: merge's frontier bookkeeping only pays off once enough descents
#: share each level's rank call.
_LS_ROUND_MIN = 32

#: One timeout tick per this many processed wavelet nodes.
_TICK_GRAIN = 256


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
        # Per-anchor traversal state, filled by _run:
        self.visited: list[dict[int, int]] = []
        self.vnode_visited: list[dict[tuple[int, int], int]] = []
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
        return self._run(
            [start_node], [start_range], max_reported, target
        )[0]

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
        return self._run(list(anchors), start_ranges, max_reported, None)

    # ------------------------------------------------------------------

    def _run(self, anchors, start_ranges, max_reported, target):
        automaton = self.prepared.automaton
        start_mask = automaton.final_mask
        k = len(anchors)
        self.reported = [set() for _ in range(k)]
        if start_mask == 0 or k == 0:
            return self.reported
        self.visited = [dict() for _ in range(k)]
        self.vnode_visited = [dict() for _ in range(k)]
        self.max_reported = max_reported
        self.target = target
        self.total_reported = 0
        self.done = False
        self.base_mask = 0
        full_mask = (1 << automaton.num_states) - 1
        forbidden = self.forbidden
        wave: list[tuple[int, int, int, int]] = []
        for ai, anchor in enumerate(anchors):
            if anchor is None:
                self.base_mask = (
                    start_mask & ~GlushkovAutomaton.INITIAL_MASK
                )
            else:
                self.visited[ai][anchor] = start_mask
            for node in forbidden:
                self.visited[ai][node] = full_mask
            b, e = start_ranges[ai]
            wave.append((ai, int(b), int(e), start_mask))

        while wave and not self.done:
            wave = self._process_wave(wave)
        for visited in self.visited:
            self.stats.visited_nodes = max(
                self.stats.visited_nodes, len(visited)
            )
        return self.reported

    # ------------------------------------------------------------------
    # One BFS generation
    # ------------------------------------------------------------------

    def _process_wave(self, wave):
        """Expand every pending entry of one generation; returns the
        next generation's entries."""
        entries = [
            entry for entry in wave if entry[1] < entry[2]
        ]
        self._next_wave: list[tuple[int, int, int, int]] = []
        if not entries:
            return self._next_wave
        obs = self.obs
        spans = obs.spans if obs.enabled else None
        wave_span = None
        if obs.enabled:
            obs.inc("engine.steps", len(entries))
            if obs.tracing:
                for _, b, e, d in entries:
                    obs.record("step", range=(b, e), states=d)
            if spans is not None:
                wave_span = spans.start("wave")
                wave_span.set(width=len(entries))
        if self.merge and len(entries) >= _LP_WAVE_MIN:
            tasks = self._lp_wave(entries)
            self._tick_flush()
            self._run_rounds(tasks)
        else:
            for ai, b_o, e_o, d in entries:
                self._expand_entry_scalar(ai, b_o, e_o, d)
                self._tick_flush()
                if self.done:
                    break
        if wave_span is not None:
            wave_span.set(next_width=len(self._next_wave))
            spans.end(wave_span)
        return self._next_wave

    def _run_rounds(self, tasks):
        """Drain per-anchor L_s task queues, one round-robin round at a
        time; a round merges at most one task per anchor."""
        obs = self.obs
        spans = obs.spans if obs.enabled else None
        pending = [(ai, lst) for ai, lst in tasks.items() if lst]
        while pending and not self.done:
            round_tasks = []
            still = []
            for ai, lst in pending:
                round_tasks.append((ai,) + lst.pop(0))
                if lst:
                    still.append((ai, lst))
            pending = still
            round_span = None
            if spans is not None:
                round_span = spans.start("ls_round")
                round_span.set(width=len(round_tasks))
            if len(round_tasks) < _LS_ROUND_MIN:
                for ai, b_s, e_s, d_next in round_tasks:
                    self._collect_scalar(ai, b_s, e_s, d_next)
                    if self.done:
                        break
            else:
                self._collect_round(round_tasks)
            self._tick_flush()
            if round_span is not None:
                spans.end(round_span)

    def _tick_flush(self):
        """Fire the accumulated timeout ticks at a balanced point."""
        tick = self.budget.tick
        while self._tick_carry >= _TICK_GRAIN:
            self._tick_carry -= _TICK_GRAIN
            tick()

    # ------------------------------------------------------------------
    # Merged L_p wave (§4.1, frontier-at-once)
    # ------------------------------------------------------------------

    def _lp_wave(self, entries):
        """Merged L_p descent of all wave entries.

        Returns ``{anchor_index: [(b_s, e_s, d_next), ...]}`` — the
        accepted predicate leaves mapped through the backward step, in
        stack-walk order (entry-major, predicate ascending).
        """
        stats = self.stats
        prepared = self.prepared
        prune = self.prune
        mask_levels = prepared.mask_levels
        b_masks = prepared.b_masks
        step_prefiltered = prepared.reverse.step_prefiltered
        ring = self.engine.ring
        c_p = ring.C_p.fast_list() or ring.C_p
        levels = ring.L_p._held_levels()
        # Python-int bottom offsets: the leaf hand-off feeds the L_s
        # stack walk, which must not receive numpy int64 values (its
        # word masks are Python ints wider than a C long).
        _, zeros, height, _, _, bottom_start = self.engine.lp_data
        obs = self.obs
        timed = obs.enabled
        tracing = obs.tracing
        spans = obs.spans if timed else None
        now = time.monotonic
        if timed:
            t_start = now()

        k0 = len(entries)
        lp_span = None
        if spans is not None:
            lp_span = spans.start("lp_wave")
            lp_span.set(width=k0)
        stats.lp_descents += k0
        d_list = [entry[3] for entry in entries]
        eidx = np.arange(k0, dtype=np.int64)
        dv = np.fromiter(d_list, np.int64, k0)
        prefix = np.zeros(k0, dtype=np.int64)
        b = np.fromiter((entry[1] for entry in entries), np.int64, k0)
        e = np.fromiter((entry[2] for entry in entries), np.int64, k0)

        examined = 0
        lp_empty = lp_pruned = lp_nodes = lp_children = 0
        wavelet_nodes = 0
        for level in range(height):
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
            lp_children += 2 * k
            words, cum, n_bits = levels[level]
            ranks = rank1_many_words(
                words, cum, n_bits, np.concatenate((b, e))
            )
            r1b, r1e = ranks[:k], ranks[k:]
            z = zeros[level]
            eidx = np.repeat(eidx, 2)
            dv = np.repeat(dv, 2)
            next_prefix = np.empty(2 * k, dtype=np.int64)
            next_b = np.empty(2 * k, dtype=np.int64)
            next_e = np.empty(2 * k, dtype=np.int64)
            next_prefix[0::2] = prefix << 1
            next_prefix[1::2] = (prefix << 1) | 1
            next_b[0::2] = b - r1b
            next_b[1::2] = z + r1b
            next_e[0::2] = e - r1e
            next_e[1::2] = z + r1e
            prefix, b, e = next_prefix, next_b, next_e

        # Leaf level: the same empty/prune bookkeeping, then the §4.2
        # hand-off per surviving (entry, predicate) leaf in order.
        tasks: dict[int, list] = {}
        k = len(b)
        if k:
            examined += k
            nonempty = e > b
            if not nonempty.all():
                lp_empty += k - int(nonempty.sum())
                eidx, dv, prefix, b, e = (
                    eidx[nonempty], dv[nonempty], prefix[nonempty],
                    b[nonempty], e[nonempty],
                )
                k = len(b)
        if k:
            wavelet_nodes += k
            if prune:
                keep = (mask_levels[height][prefix] & dv) != 0
                if not keep.all():
                    lp_pruned += k - int(keep.sum())
                    eidx, prefix, b, e = (
                        eidx[keep], prefix[keep], b[keep], e[keep],
                    )
                    k = len(b)
            lp_nodes += k
        stats.lp_empty += lp_empty
        stats.lp_pruned += lp_pruned
        stats.lp_nodes += lp_nodes
        stats.lp_children += lp_children
        stats.wavelet_nodes += wavelet_nodes
        stats.storage_ops += lp_children
        self._tick_carry += examined
        if k:
            ring_span = None
            if spans is not None:
                ring_span = spans.start("ring.steps")
                ring_span.set(leaves=k)
            product_edges = 0
            eidx_l = eidx.tolist()
            prefix_l = prefix.tolist()
            b_l = b.tolist()
            e_l = e.tolist()
            for i in range(k):
                ei = eidx_l[i]
                pid = prefix_l[i]
                filtered = d_list[ei] & b_masks.get(pid, 0)
                if filtered == 0:
                    continue  # reachable only when pruning is disabled
                start = bottom_start[pid]
                base = c_p[pid]
                b_s = base + (b_l[i] - start)
                e_s = base + (e_l[i] - start)
                product_edges += 1
                d_next = step_prefiltered(filtered)
                if d_next == 0:
                    continue
                if tracing:
                    obs.record(
                        "backward_step", pid=pid, range=(b_s, e_s),
                        states=d_next,
                    )
                tasks.setdefault(entries[ei][0], []).append(
                    (b_s, e_s, d_next)
                )
            stats.product_edges += product_edges
            stats.backward_steps += product_edges
            if ring_span is not None:
                ring_span.set(steps=product_edges)
                spans.end(ring_span)
        if lp_span is not None:
            spans.end(lp_span)
        if timed:
            obs.add_phase("predicates_from_objects", now() - t_start)
        return tasks

    # ------------------------------------------------------------------
    # Merged L_s round (§4.2, one task per anchor)
    # ------------------------------------------------------------------

    def _collect_round(self, round_tasks):
        """Merged level-synchronous L_s descent of one task per anchor.

        The frontier is kept as parallel Python lists (the per-node
        work is dict-heavy and must run per element anyway); only the
        rank mapping to the next level is vectorized.
        """
        stats = self.stats
        prune = self.prune
        base_mask = self.base_mask
        visited_by_anchor = self.visited
        vnodes_by_anchor = self.vnode_visited
        reported_by_anchor = self.reported
        ring = self.engine.ring
        c_o = ring.C_o.fast_list() or ring.C_o
        levels = ring.L_s._held_levels()
        _, zeros, height, sigma, class_cum, _ = self.engine.ls_data
        initial_mask = GlushkovAutomaton.INITIAL_MASK
        max_reported = self.max_reported
        target = self.target
        obs = self.obs
        timed = obs.enabled
        tracing = obs.tracing
        now = time.monotonic
        if timed:
            t_start = now()

        n_tasks = len(round_tasks)
        stats.ls_descents += n_tasks
        # Per-task context: (visited, vnodes, d_next, reported, ai).
        ctx = [
            (
                visited_by_anchor[ai],
                vnodes_by_anchor[ai],
                d_next,
                reported_by_anchor[ai],
                ai,
            )
            for ai, _, _, d_next in round_tasks
        ]
        tid = list(range(n_tasks))
        prefix = [0] * n_tasks
        bs = [task[1] for task in round_tasks]
        es = [task[2] for task in round_tasks]

        examined = 0
        ls_empty = ls_pruned = ls_nodes = ls_children = 0
        wavelet_nodes = 0
        for level in range(height):
            k = len(tid)
            if k == 0:
                break
            examined += k
            kt: list[int] = []
            kp: list[int] = []
            kb: list[int] = []
            ke: list[int] = []
            shift = height - level
            for i in range(k):
                b = bs[i]
                e = es[i]
                if b >= e:
                    ls_empty += 1
                    continue
                wavelet_nodes += 1
                t = tid[i]
                p = prefix[i]
                if prune:
                    key = (level, p)
                    vnodes = ctx[t][1]
                    d_next = ctx[t][2]
                    seen = vnodes.get(key, base_mask)
                    if d_next | seen == seen:
                        ls_pruned += 1
                        continue
                    lo = p << shift
                    hi = lo + (1 << shift)
                    if hi > sigma:
                        hi = sigma
                    if class_cum[hi] - class_cum[lo] == e - b:
                        vnodes[key] = seen | d_next
                ls_nodes += 1
                ls_children += 2
                kt.append(t)
                kp.append(p)
                kb.append(b)
                ke.append(e)
            k = len(kt)
            if k == 0:
                tid = []
                break
            z = zeros[level]
            words, cum, n_bits = levels[level]
            ranks = rank1_many_words(
                words, cum, n_bits, np.fromiter(kb + ke, np.int64, 2 * k)
            ).tolist()
            r1b, r1e = ranks[:k], ranks[k:]
            tid = [t for t in kt for _ in (0, 1)]
            prefix = [q for p in kp for q in (p << 1, (p << 1) | 1)]
            bs = [v for pb, rb in zip(kb, r1b) for v in (pb - rb, z + rb)]
            es = [v for pe, re in zip(ke, r1e) for v in (pe - re, z + re)]

        # Leaf level: visit subjects per element, exactly the stack
        # walk's leaf logic against the owning anchor's state.
        product_nodes = object_ranges = 0
        next_wave = self._next_wave
        k = len(tid)
        examined += k
        for i in range(k):
            b = bs[i]
            e = es[i]
            if b >= e:
                ls_empty += 1
                continue
            wavelet_nodes += 1
            t = tid[i]
            visited, _, d_next, reported, ai = ctx[t]
            subject = prefix[i]
            seen = visited.get(subject, base_mask)
            if d_next | seen == seen:
                ls_pruned += 1
                continue
            ls_nodes += 1
            d_new = d_next & ~seen
            visited[subject] = seen | d_next
            product_nodes += 1
            if d_new & initial_mask:
                reported.add(subject)
                self.total_reported += 1
                if tracing:
                    obs.record("emit", subject=subject, states=d_new)
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
            object_ranges += 1
            ob = c_o[subject]
            oe = c_o[subject + 1]
            if ob < oe:
                next_wave.append((ai, ob, oe, d_new))
        stats.ls_empty += ls_empty
        stats.ls_pruned += ls_pruned
        stats.ls_nodes += ls_nodes
        stats.ls_children += ls_children
        stats.wavelet_nodes += wavelet_nodes
        stats.storage_ops += ls_children
        stats.product_nodes += product_nodes
        stats.object_ranges += object_ranges
        self._tick_carry += examined
        if timed:
            obs.add_phase("subjects_from_predicates", now() - t_start)

    # ------------------------------------------------------------------
    # One entry at a time (narrow frontiers, > 63 states, batch=False)
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
        tracing = obs.tracing
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
                if tracing:
                    obs.record(
                        "backward_step", pid=pid, range=(b_s, e_s),
                        states=d_next,
                    )
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
        tracing = obs.tracing
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
                    if tracing:
                        obs.record("emit", subject=subject, states=d_new)
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
