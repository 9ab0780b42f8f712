"""Summary statistics for benchmark timings and failure accounting.

A timing is reported as its median plus the highest percentile that
still has at least :data:`MIN_BEYOND` samples beyond it, with the
sample count: a p90 read off 30 samples rests on three values and moves
with every run, so it is refused rather than reported.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["MIN_BEYOND", "TAIL_PERCENTILES", "samples_beyond", "percentile",
           "tail_percentile", "summarize", "fail_frac"]

#: Samples that must lie above a reported percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def samples_beyond(n, p):
    """How many of ``n`` samples lie above the nearest-rank ``p``-th
    percentile (rank ``ceil(p/100 * n)``)."""
    if n < 1:
        return 0
    rank = max(1, math.ceil(p / 100.0 * n))
    return n - rank


def percentile(values, p):
    """Nearest-rank ``p``-th percentile of ``values``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it — the median of 20 samples is the least this accepts.
    """
    values = sorted(values)
    beyond = samples_beyond(len(values), p)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(values)} sample(s) has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}")
    return values[max(1, math.ceil(p / 100.0 * len(values))) - 1]


def tail_percentile(n):
    """The highest of :data:`TAIL_PERCENTILES` that ``n`` samples support,
    or ``None`` when not even the median has enough beyond it."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def summarize(values):
    """``{"n", "median", "tail_p", "tail"}`` for one timing series.

    The median is the ordinary (interpolated) median; the tail is the
    nearest-rank percentile :func:`tail_percentile` allows, or ``None``.
    """
    if not values:
        raise ValueError("cannot summarize an empty sample")
    tail_p = tail_percentile(len(values))
    return {"n": len(values),
            "median": statistics.median(values),
            "tail_p": tail_p,
            "tail": None if tail_p is None else percentile(values, tail_p)}


def fail_frac(attempted, failed):
    """Failed or refused operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("fail_frac needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} is outside 0..{attempted}")
    return failed / attempted
