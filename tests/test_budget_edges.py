"""Edge cases of the evaluation budget and cooperative cancellation.

The budget is the single interruption point of the engine — timeout,
deadline and cancellation all ride its throttled ticks — so its edges
are the edges of the whole degradation story: zero budgets, pre-set
cancel tokens, tokens tripping mid-phase, and the requirement that an
interrupted evaluation still leaves well-formed observability behind
(spans closed, counters consistent).
"""

from __future__ import annotations

import pytest

from repro.core.engine import _TICK_EVERY, RingRPQEngine, _Budget
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.obs.metrics import Metrics


class TripAfter:
    """A cancel token that trips after ``n`` consultations.

    Deterministic replacement for "cancel from another thread at just
    the right moment": the budget consults it at fixed tick intervals,
    so ``n`` positions the cancellation at a precise point of the
    evaluation's own progress.
    """

    def __init__(self, n: int):
        self.n = n
        self.calls = 0

    def is_set(self) -> bool:
        self.calls += 1
        return self.calls > self.n


class TestBudget:
    def test_no_timeout_no_cancel_never_raises(self):
        budget = _Budget(None)
        for _ in range(10_000):
            budget.tick()

    def test_zero_timeout_raises_on_first_check(self):
        budget = _Budget(0.0)
        with pytest.raises(QueryTimeoutError):
            for _ in range(_TICK_EVERY + 1):
                budget.tick()

    def test_preset_cancel_raises_on_first_check(self):
        class Set:
            @staticmethod
            def is_set():
                return True

        budget = _Budget(None, cancel=Set())
        with pytest.raises(QueryCancelledError):
            for _ in range(_TICK_EVERY + 1):
                budget.tick()

    def test_cancel_checked_before_timeout(self):
        """When both tripped, cancellation wins — the caller asked."""
        class Set:
            @staticmethod
            def is_set():
                return True

        budget = _Budget(0.0, cancel=Set())
        with pytest.raises(QueryCancelledError):
            for _ in range(_TICK_EVERY + 1):
                budget.tick()

    @pytest.mark.parametrize("start", [0, 1, _TICK_EVERY - 1, _TICK_EVERY])
    @pytest.mark.parametrize("n", [0, 1, _TICK_EVERY - 1, _TICK_EVERY,
                                   3 * _TICK_EVERY + 1, 1024])
    def test_counted_tick_matches_single_ticks(self, start, n):
        """``tick(n)`` is ``n`` ticks with no work between them: the
        same count afterwards, and under an expired deadline it raises
        exactly when the first of them would."""
        single, counted = _Budget(None), _Budget(None)
        for _ in range(start):
            single.tick()
            counted.tick()
        for _ in range(n):
            single.tick()
        counted.tick(n)
        assert counted.ticks == single.ticks == start + n

        single, counted = _Budget(None), _Budget(None)
        single.ticks = counted.ticks = start
        single.deadline = counted.deadline = single.start - 1.0
        single_raised = False
        try:
            for _ in range(n):
                single.tick()
        except QueryTimeoutError:
            single_raised = True
        if single_raised:
            with pytest.raises(QueryTimeoutError):
                counted.tick(n)
        else:
            counted.tick(n)
        assert counted.ticks == start + n

    def test_ticks_are_throttled(self):
        token = TripAfter(0)
        budget = _Budget(None, cancel=token)
        for _ in range(_TICK_EVERY - 1):
            budget.tick()
        # The token was never consulted between checkpoints.
        assert token.calls == 0


class TestEngineCancellation:
    def test_cancel_before_any_work(self, kg_index):
        engine = RingRPQEngine(kg_index)
        result = engine.evaluate("(?x, (p0|p1)*, ?y)", timeout=60,
                                 cancel=TripAfter(0))
        assert result.stats.cancelled
        assert not result.stats.timed_out

    def test_cancel_mid_run_returns_partial(self, kg_index):
        engine = RingRPQEngine(kg_index)
        query = "(?x, (p0|p1)*, ?y)"
        full = engine.evaluate(query, timeout=60)
        assert not full.stats.cancelled
        partial = engine.evaluate(query, timeout=60, cancel=TripAfter(25))
        assert partial.stats.cancelled
        assert partial.pairs <= full.pairs
        assert len(partial.pairs) < len(full.pairs)
        # Elapsed is still recorded for the partial run.
        assert partial.stats.elapsed >= 0.0

    def test_cancel_mid_phase_two(self, kg_index):
        """Trip the token once phase 2 (per-anchor subqueries of a
        v-to-v evaluation) is underway: the partial result must carry
        the subqueries already finished and stay well-formed."""
        engine = RingRPQEngine(kg_index, use_planner=False,
                               fast_paths=False)
        query = "(?x, (p0|p1)*, ?y)"
        # Probe run: count how often the budget consults the token over
        # the whole (deterministic) evaluation, without tripping it.
        probe = TripAfter(1 << 60)
        full = engine.evaluate(query, timeout=60, cancel=probe)
        total = probe.calls
        assert full.stats.subqueries > 4 and total > 10
        for frac in (0.9, 0.75, 0.6, 0.5):
            partial = engine.evaluate(
                query, timeout=60, cancel=TripAfter(int(total * frac))
            )
            assert partial.stats.cancelled
            if partial.stats.subqueries >= 1:
                assert partial.pairs <= full.pairs
                return
        pytest.fail("no trip point landed inside phase 2")

    def test_zero_timeout_times_out(self, kg_index):
        engine = RingRPQEngine(kg_index)
        result = engine.evaluate("(?x, (p0|p1|p2)*, ?y)", timeout=0.0)
        assert result.stats.timed_out
        assert not result.stats.cancelled

    def test_limit_zero_short_circuits(self, kg_index):
        engine = RingRPQEngine(kg_index)
        result = engine.evaluate("(?x, (p0|p1)*, ?y)", timeout=60,
                                 limit=0)
        assert result.stats.truncated
        assert result.pairs == set()
        assert result.stats.backward_steps == 0
        assert result.stats.product_nodes == 0

    def test_limit_equal_to_answer_count_tags_truncated(self, kg_index):
        """At limit == |answer| the engine stops *at* the cap and tags
        truncated — the premise of the cache's strict-inequality rule."""
        engine = RingRPQEngine(kg_index)
        query = "(?x, p0|p1, ?y)"
        full = engine.evaluate(query, timeout=60)
        assert len(full.pairs) > 0 and not full.stats.truncated
        exact = engine.evaluate(query, timeout=60, limit=len(full.pairs))
        assert exact.pairs == full.pairs
        assert exact.stats.truncated

    def test_spans_closed_after_cancellation(self, kg_index):
        """A cancelled evaluation must not leak open spans: the span
        stack unwinds to depth zero and every recorded span has an end
        time, so the obs forest stays exportable."""
        obs = Metrics(span_capacity=4096)
        engine = RingRPQEngine(kg_index)
        result = engine.evaluate("(?x, (p0|p1)*, ?y)", timeout=60,
                                 metrics=obs, cancel=TripAfter(25))
        assert result.stats.cancelled
        assert obs.spans._open == []
        for span in obs.spans.spans:
            assert span.t1 >= span.t0
        # The tree export still works on the interrupted forest.
        assert isinstance(obs.spans.tree(), list)

    def test_spans_closed_after_timeout(self, kg_index):
        obs = Metrics(span_capacity=4096)
        engine = RingRPQEngine(kg_index)
        result = engine.evaluate("(?x, (p0|p1|p2)*, ?y)", timeout=0.0,
                                 metrics=obs)
        assert result.stats.timed_out
        assert obs.spans._open == []
