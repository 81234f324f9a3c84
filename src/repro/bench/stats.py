"""Aggregation helpers for benchmark timings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Average/median/timeouts over one set of query timings."""

    count: int
    average: float
    median: float
    timeouts: int

    def __str__(self) -> str:
        return (
            f"n={self.count} avg={self.average:.4f}s "
            f"med={self.median:.4f}s timeouts={self.timeouts}"
        )


def summarize(times: list[float], timed_out: list[bool],
              timeout: float) -> Summary:
    """Aggregate, counting timed-out queries at the timeout value.

    This is the paper's convention: a 60-second cap enters the average
    as 60 seconds (Jena's v-to-v *median* in Table 2 is literally
    60.00 — more than half its v-to-v queries timed out).
    """
    if not times:
        return Summary(0, 0.0, 0.0, 0)
    clamped = np.array(
        [timeout if flag else min(t, timeout)
         for t, flag in zip(times, timed_out)],
        dtype=np.float64,
    )
    return Summary(
        count=len(times),
        average=float(clamped.mean()),
        median=float(np.median(clamped)),
        timeouts=int(sum(timed_out)),
    )


@dataclass(frozen=True)
class FiveNumber:
    """Five-number summary backing one boxplot."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def of(cls, values: list[float]) -> "FiveNumber":
        arr = np.asarray(values, dtype=np.float64)
        q1, med, q3 = np.percentile(arr, [25, 50, 75])
        return cls(float(arr.min()), float(q1), float(med), float(q3),
                   float(arr.max()))

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.minimum, self.q1, self.median, self.q3, self.maximum)


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation.

    Deterministic and numpy-free on purpose: the target rank is
    ``(n - 1) * q / 100`` over the sorted values, interpolating
    linearly between the two bracketing order statistics (the same
    "linear" method as ``numpy.percentile``'s default, spelled out so
    reports cannot drift with library versions).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    fraction = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * fraction


def geometric_mean(values: list[float], floor: float = 1e-6) -> float:
    """Geometric mean with a floor to absorb zero timings."""
    arr = np.maximum(np.asarray(values, dtype=np.float64), floor)
    return float(np.exp(np.log(arr).mean()))
