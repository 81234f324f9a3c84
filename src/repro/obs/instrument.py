"""Opt-in instrumentation of the succinct layer via class swapping.

The default code path must stay byte-identical to the uninstrumented
build — the acceptance bar for this subsystem is *zero* overhead when
metrics are off, and even a single ``if metrics.enabled`` guard inside
:meth:`BitVector.rank1` would tax the hottest operation of the whole
library.  So instead of threading a sink through the structures, the
instrumentors here *swap the class* of live instances:

* :class:`CountingBitVector` and :class:`CountingWaveletMatrix` are
  ``__slots__ = ()`` subclasses, layout-compatible with their parents,
  so ``instance.__class__ = CountingBitVector`` is legal and reversible;
* the overriding methods bump a counter and delegate to the parent;
* :func:`instrument_matrix` / :func:`instrument_index` are context
  managers that swap on entry and restore the original classes on exit.

The counting classes report to a single class-level sink, so only one
:class:`~repro.obs.metrics.Metrics` registry can be instrumenting at a
time (nesting with the *same* registry is fine); the context managers
enforce this.  Two families of code read the packed words without a
method call per operation and therefore bypass the *bitvector* wrappers
by design:

* the RPQ engine's inlined descents
  (:meth:`WaveletMatrix.traversal_data`) — their rank work is accounted
  arithmetically in ``QueryStats`` (``rank_ops`` = two per expanded
  internal node);
* the array kernels (``descend_batch``, ``range_intersect``,
  ``rank_pair_many``), which is what the §5 fast paths and
  ``match_pattern(None, p, None)`` run on by default — they are counted
  one level up, per *range*: a ``descend_batch`` of k ranges counts k
  ``wavelet.range_distinct`` and a ``backward_step_many`` of k ranges k
  ``ring.backward_step``, the same totals k scalar calls would give,
  and ``stats.storage_ops`` carries their rank work.

``bitvector.rank`` / ``wavelet.node`` therefore count the *scalar*
method-call ops only: ``rank_pair`` backward steps, ``range_distinct``
walks, selects, the ``batch=False`` reference engine.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

import numpy as np

from repro.obs.metrics import Metrics, NULL_METRICS
from repro.succinct.bitvector import BitVector
from repro.succinct.wavelet_matrix import WaveletMatrix


class CountingBitVector(BitVector):
    """A :class:`BitVector` whose rank/select calls hit a metrics sink.

    ``rank0``/``rank`` need no override: the parent implements them on
    top of :meth:`rank1`, which dispatches back here — so each call
    counts exactly the one elementary rank it performs.
    """

    __slots__ = ()

    _obs: Metrics = NULL_METRICS

    def rank1(self, i: int) -> int:
        type(self)._obs.inc("bitvector.rank")
        return BitVector.rank1(self, i)

    def select1(self, j: int) -> int:
        type(self)._obs.inc("bitvector.select")
        return BitVector.select1(self, j)

    def select0(self, j: int) -> int:
        type(self)._obs.inc("bitvector.select")
        return BitVector.select0(self, j)


class CountingWaveletMatrix(WaveletMatrix):
    """A :class:`WaveletMatrix` counting its node-API and query calls.

    ``children`` is the choke point of every scalar range algorithm
    (``range_distinct``, ``range_next_value``,
    ``range_count_distinct``), so counting it yields the per-node cost
    of all of them without overriding each walker.  The array kernels
    do not walk nodes one at a time; they count per range.
    """

    __slots__ = ()

    _obs: Metrics = NULL_METRICS

    def access(self, i: int) -> int:
        type(self)._obs.inc("wavelet.access")
        return WaveletMatrix.access(self, i)

    def rank(self, symbol: int, i: int) -> int:
        type(self)._obs.inc("wavelet.rank")
        return WaveletMatrix.rank(self, symbol, i)

    def rank_pair(self, symbol: int, b: int, e: int) -> tuple[int, int]:
        type(self)._obs.inc("wavelet.rank_pair")
        return WaveletMatrix.rank_pair(self, symbol, b, e)

    def select(self, symbol: int, j: int) -> int:
        type(self)._obs.inc("wavelet.select")
        return WaveletMatrix.select(self, symbol, j)

    def children(self, node):
        type(self)._obs.inc("wavelet.node")
        return WaveletMatrix.children(self, node)

    def range_distinct(self, b: int, e: int):
        type(self)._obs.inc("wavelet.range_distinct")
        return WaveletMatrix.range_distinct(self, b, e)

    def range_intersect(self, b1: int, e1: int, b2: int, e2: int):
        type(self)._obs.inc("wavelet.range_intersect")
        return WaveletMatrix.range_intersect(self, b1, e1, b2, e2)

    def descend_batch(self, ranges, prune_fn=None):
        # A batch of k ranges counts as k listings — same semantics as
        # k scalar calls, just one kernel invocation.
        type(self)._obs.inc("wavelet.range_distinct", np.size(ranges) // 2)
        return WaveletMatrix.descend_batch(self, ranges, prune_fn)


def _claim_sink(counting_cls, metrics: Metrics) -> None:
    """Point a counting class at ``metrics``, rejecting a second owner."""
    current = counting_cls._obs
    if current is not NULL_METRICS and current is not metrics:
        raise RuntimeError(
            "another Metrics registry is already instrumenting "
            f"{counting_cls.__name__}; finish that profile first"
        )
    counting_cls._obs = metrics


@contextmanager
def instrument_bitvector(bv: BitVector, metrics: Metrics):
    """Count ``rank``/``select`` calls on one bitvector."""
    previous = CountingBitVector._obs
    _claim_sink(CountingBitVector, metrics)
    original = bv.__class__
    bv.__class__ = CountingBitVector
    try:
        yield metrics
    finally:
        bv.__class__ = original
        CountingBitVector._obs = previous


@contextmanager
def instrument_matrix(matrix: WaveletMatrix, metrics: Metrics):
    """Count operations on one wavelet matrix and its level bitvectors."""
    previous_wm = CountingWaveletMatrix._obs
    previous_bv = CountingBitVector._obs
    _claim_sink(CountingWaveletMatrix, metrics)
    _claim_sink(CountingBitVector, metrics)
    original_matrix = matrix.__class__
    original_levels = [bv.__class__ for bv in matrix._levels]
    matrix.__class__ = CountingWaveletMatrix
    for bv in matrix._levels:
        bv.__class__ = CountingBitVector
    try:
        yield metrics
    finally:
        matrix.__class__ = original_matrix
        for bv, cls in zip(matrix._levels, original_levels):
            bv.__class__ = cls
        CountingWaveletMatrix._obs = previous_wm
        CountingBitVector._obs = previous_bv


@contextmanager
def instrument_ring(ring, metrics: Metrics):
    """Count backward-search steps on one ring.

    :class:`~repro.ring.ring.Ring` is a plain class, so the wrapper is
    an instance attribute shadowing the bound method — removed on exit.
    """
    inner = ring.backward_step
    inner_many = ring.backward_step_many

    def backward_step(b_o: int, e_o: int, p: int) -> tuple[int, int]:
        metrics.inc("ring.backward_step")
        return inner(b_o, e_o, p)

    def backward_step_many(ranges, p: int, obs=None):
        # A batch of k ranges counts as k steps — same semantics as k
        # scalar calls, just one kernel invocation.
        out = inner_many(ranges, p, obs=obs)
        metrics.inc("ring.backward_step", len(out))
        return out

    ring.backward_step = backward_step
    ring.backward_step_many = backward_step_many
    try:
        yield metrics
    finally:
        del ring.__dict__["backward_step"]
        del ring.__dict__["backward_step_many"]


@contextmanager
def instrument_index(index, metrics: Metrics):
    """Instrument a whole :class:`~repro.ring.builder.RingIndex`.

    Swaps the classes of ``L_p``/``L_s`` (and ``L_o`` when present)
    with their counting variants, including every level bitvector, and
    wraps :meth:`Ring.backward_step`.  Restores everything on exit, so
    the index is back to its zero-overhead self afterwards.
    """
    ring = index.ring
    with ExitStack() as stack:
        stack.enter_context(instrument_matrix(ring.L_p, metrics))
        stack.enter_context(instrument_matrix(ring.L_s, metrics))
        if ring.L_o is not None:
            stack.enter_context(instrument_matrix(ring.L_o, metrics))
        stack.enter_context(instrument_ring(ring, metrics))
        yield metrics
