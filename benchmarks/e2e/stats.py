"""Estimators: nearest-rank percentiles, round medians, run-to-run spread.

Every end-to-end timing of the benchmark is the **median across rounds of
a per-round statistic** (the round's median, its p90, its rate).  A noisy
second then moves one round's value, not the reported one, and no pooled
tail — which on a shared disk or a 2-core box is mostly the neighbours'
noise — enters the end-to-end set.
"""

from __future__ import annotations

import math
import statistics
from statistics import median
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q * n`` samples at or below it.

    With ``n = 100`` and ``q = 0.9`` this is the 90th smallest sample, so
    ten samples lie beyond it — the highest percentile a 100-query round
    supports under the ten-samples-beyond rule.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def round_median(rounds: Sequence[Sequence[float]], q: float = 0.5) -> float:
    """Median over rounds of each round's ``q``-percentile.

    Rounds without samples (an ingest segment that raised no alert) are
    skipped; at least one round must have samples.
    """
    per_round = [percentile(r, q) for r in rounds if r]
    if not per_round:
        raise ValueError("no round has samples")
    return median(per_round)


def iqr_ratio(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the driver computes over ten runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else math.inf


def range_ratio(values: Sequence[float]) -> float:
    """(max - min) / median."""
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else math.inf
