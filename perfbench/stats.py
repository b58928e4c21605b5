"""Order statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it (a tail figure read off fewer than
ten slower samples is one unlucky scheduler tick, not a property of the
program).  The tail uses the nearest-rank definition, so the value
reported is a value that was measured.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float], q: float = 0.9,
                    beyond: int = TAIL_SAMPLES) -> tuple[float, float]:
    """``(quantile used, value)`` for a tail figure.

    The ``q``-quantile when at least ``beyond`` samples lie above its
    rank; otherwise the highest rank that still has ``beyond`` samples
    above it, but never below the upper median: with ``2 * beyond``
    samples or fewer the tail figure is the upper median, so it never
    reads below the median.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = min(math.ceil(q * n), n - beyond)
    rank = max(rank, n // 2 + 1)
    return rank / n, float(sorted(values)[rank - 1])


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
