"""Per-request lifecycle accounting: monotonic stage marks per query.

The paper's evaluation discipline is fine-grained accounting — §4.1–
§4.3 operation counts say where *engine* time goes — but a served query
spends time in places the engine never sees: the admission queue, the
dispatch bookkeeping, and (in the process tier) pickling and pipe
transfer.  :class:`QueryLifecycle` closes that gap with a strictly
ordered sequence of :func:`time.monotonic` marks::

    submitted → admitted → dequeued → dispatched
        → [process tier: request_serialized → worker_started
           → worker_finished → reply_deserialized]
        → settled

The thread tier marks ``worker_started``/``worker_finished`` around the
in-process engine call, so ``execute`` means the same thing in both
tiers.  Stage *durations* are the differences between consecutive
recorded marks, named by the transition (see :data:`TRANSITION_NAMES`);
because every duration is one telescoping difference on one clock, the
durations sum to exactly ``settled - submitted`` — the invariant the
test suite asserts, and the property that makes the decomposition
trustworthy (nothing is double-counted, nothing is lost).

Cross-process marks work because ``CLOCK_MONOTONIC`` is system-wide on
Linux (and boot-relative on the other supported platforms): the worker
stamps ``worker_started``/``worker_finished`` with its own
:func:`time.monotonic` and ships the floats back over the pipe.
Worker and parent do race, though: the worker can stamp
``worker_started`` before the parent's post-``send()``
``request_serialized`` mark lands, and a descheduled parent marks
late.  :meth:`QueryLifecycle.mark` therefore clamps each new mark
forward to its predecessor's timestamp — the skew is absorbed into
the stage where the late mark sat, the timeline stays monotone, and
the telescoping-sum invariant holds unconditionally.
"""

from __future__ import annotations

import time

#: Canonical mark order.  Marks may be skipped (the thread tier never
#: records the serialize/pipe marks; a cache hit jumps straight from
#: ``submitted`` to ``settled``) but never reordered.
STAGE_MARKS = (
    "submitted",
    "admitted",
    "dequeued",
    "dispatched",
    "request_serialized",
    "worker_started",
    "worker_finished",
    "reply_deserialized",
    "settled",
)

#: Duration names for consecutive mark pairs.  A pair absent here (a
#: tier skipped intermediate marks) falls back to ``"<from>_to_<to>"``
#: except for the pairs listed, which collapse onto the canonical name
#: of the work the gap actually contains.
TRANSITION_NAMES = {
    ("submitted", "admitted"): "admission",
    ("submitted", "dequeued"): "queue_wait",
    ("submitted", "settled"): "cache_hit",
    ("admitted", "dequeued"): "queue_wait",
    ("admitted", "settled"): "abandoned",
    ("dequeued", "dispatched"): "dispatch",
    ("dequeued", "settled"): "settle",
    ("dispatched", "worker_started"): "startup",
    ("dispatched", "request_serialized"): "request_serialize",
    ("dispatched", "settled"): "settle",
    ("request_serialized", "worker_started"): "pipe_to_worker",
    ("worker_started", "worker_finished"): "execute",
    ("worker_finished", "settled"): "settle",
    ("worker_finished", "reply_deserialized"): "reply_transfer",
    ("reply_deserialized", "settled"): "settle",
}

_ORDER = {name: i for i, name in enumerate(STAGE_MARKS)}


class QueryLifecycle:
    """Ordered monotonic stage marks for one served query.

    Created at submission (stamping ``submitted``); the serving tiers
    add marks as the query moves through them.  Not thread-safe in the
    general sense, but safe in the serving layer's actual access
    pattern: exactly one thread owns the record at any time (submitter
    → worker/manager thread → settled, read-only afterwards).
    """

    __slots__ = ("query_id", "marks")

    def __init__(self, query_id: str = "", t: "float | None" = None):
        self.query_id = query_id
        self.marks: list[tuple[str, float]] = [
            ("submitted", time.monotonic() if t is None else t)
        ]

    def mark(self, stage: str, t: "float | None" = None) -> float:
        """Record ``stage`` now (or at ``t``); returns the timestamp.

        Out-of-order marks (unknown stage names, or a stage earlier in
        the canonical order than one already recorded) are rejected
        with :class:`ValueError` — the audit plane is only trustworthy
        if the timeline cannot be scrambled.
        """
        order = _ORDER.get(stage)
        if order is None:
            raise ValueError(f"unknown lifecycle stage {stage!r}")
        last_stage = self.marks[-1][0]
        if order <= _ORDER[last_stage]:
            raise ValueError(
                f"stage {stage!r} cannot follow {last_stage!r}"
            )
        now = time.monotonic() if t is None else t
        # Clamp the timeline forward: a mark may not land before its
        # predecessor.  This happens legitimately — the pool worker
        # stamps ``worker_started`` the instant it parses the request,
        # which can precede the parent recording ``request_serialized``
        # after its ``send()`` returns (the two run in parallel), and a
        # descheduled parent marks late.  Keeping marks monotone here
        # preserves the telescoping invariant (durations sum exactly to
        # ``total``); the skew is absorbed into the preceding stage,
        # where the late mark actually sat.
        prev_t = self.marks[-1][1]
        if now < prev_t:
            now = prev_t
        self.marks.append((stage, now))
        return now

    # ------------------------------------------------------------------
    # Derived durations
    # ------------------------------------------------------------------

    def stage_durations(self) -> dict[str, float]:
        """Named durations between consecutive marks, in timeline order.

        Gaps are nonnegative by construction (:meth:`mark` clamps the
        timeline forward; the ``max`` here is pure defence); repeated
        transition names (impossible today, defensive forever)
        accumulate.  The values sum to exactly :meth:`total`.
        """
        out: dict[str, float] = {}
        marks = self.marks
        for i in range(1, len(marks)):
            prev_name, prev_t = marks[i - 1]
            name, t = marks[i]
            label = TRANSITION_NAMES.get(
                (prev_name, name), f"{prev_name}_to_{name}"
            )
            out[label] = out.get(label, 0.0) + max(0.0, t - prev_t)
        return out

    def total(self) -> float:
        """End-to-end seconds from ``submitted`` to the last mark."""
        return max(0.0, self.marks[-1][1] - self.marks[0][1])

    @property
    def settled(self) -> bool:
        """True once the ``settled`` mark landed."""
        return self.marks[-1][0] == "settled"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chain = " -> ".join(name for name, _ in self.marks)
        return f"QueryLifecycle({self.query_id!r}, {chain})"
