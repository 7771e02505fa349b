"""Order statistics for per-op times."""

from __future__ import annotations

import statistics

TAIL_MIN_SAMPLES = 40  # below this the tail would be no tail: report the median
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def tail(values) -> tuple:
    """(value, label) of the highest percentile with at least TAIL_BEYOND
    samples beyond it: the (N - 10)-th smallest of N values, labelled with
    its percentile.  With fewer than TAIL_MIN_SAMPLES values it is the median."""
    values = sorted(values)
    n = len(values)
    if n < TAIL_MIN_SAMPLES:
        return statistics.median(values), f"p50 of {n} ops (fewer than {TAIL_MIN_SAMPLES})"
    rank = n - TAIL_BEYOND  # 1-based rank; values[rank:] are the samples beyond
    return values[rank - 1], f"p{100 * rank // n} of {n} ops ({TAIL_BEYOND} beyond)"
