"""Summary statistics the benchmark reports."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail(values, beyond=TAIL_BEYOND):
    """Highest-percentile sample that still has `beyond` samples above it.

    Returns (value, percentile, sample count). With `beyond` samples or
    fewer no percentile qualifies, and the maximum is reported at 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, n
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, n


def quartile_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
