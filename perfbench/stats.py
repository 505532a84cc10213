"""Summary statistics for timing samples."""

from __future__ import annotations

import math
import statistics

# a tail percentile is reported only with at least this many samples above it
TAIL_MIN_ABOVE = 10


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with at least ``TAIL_MIN_ABOVE`` of ``n``
    samples above it (nearest-rank definition), or None when ``n`` is too small."""
    if n < TAIL_MIN_ABOVE + 1:
        return None
    return (100 * (n - TAIL_MIN_ABOVE)) // n


def nearest_rank(samples, p: int) -> float:
    """The ``p``-th percentile by nearest rank: the smallest sample with at
    least ``p`` percent of the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def tail(samples) -> tuple[float | None, int | None]:
    """(value, percentile) of the tail rule for ``samples``."""
    p = tail_percentile(len(samples))
    if p is None:
        return None, None
    return nearest_rank(samples, p), p


def median(samples) -> float | None:
    return statistics.median(samples) if samples else None
