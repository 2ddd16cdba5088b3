"""Estimators for the benchmark's end-to-end times.

The host alternates between fast stretches and stretches about 1.5-1.8x
slower, each lasting seconds (see NOTES.md), so a single total per run
moves with whichever stretch it landed in.  Each query is therefore timed
in every round and only its best time is kept.
"""

from __future__ import annotations

import math

MIN_TAIL = 10


def best_of_rounds(samples: dict[str, list[float]]) -> dict[str, float]:
    """Each query's best time over the rounds that timed it."""
    return {qid: min(times) for qid, times in samples.items() if times}


def tail_count(n: int, p: float) -> int:
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - math.ceil(p * n)


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile, 0 < p < 1.  Raises ValueError unless
    at least MIN_TAIL samples lie beyond it."""
    ordered = sorted(values)
    if tail_count(len(ordered), p) < MIN_TAIL:
        raise ValueError(f"p{round(100 * p)} of {len(ordered)} samples has "
                         f"fewer than {MIN_TAIL} samples beyond it")
    return ordered[math.ceil(p * len(ordered)) - 1]
