"""Estimator arithmetic: nearest-rank percentiles, round medians, spreads."""

from __future__ import annotations

import statistics

import pytest

from benchmarks.e2e import stats


def test_p90_of_a_100_query_round_leaves_ten_samples_beyond():
    samples = list(range(1, 101))
    p90 = stats.percentile(samples, 0.9)
    assert p90 == 90
    assert sum(1 for s in samples if s > p90) == 10


def test_percentile_is_nearest_rank_not_interpolated():
    assert stats.percentile([10.0, 20.0, 30.0, 40.0], 0.5) == 20.0
    assert stats.percentile([10.0, 20.0, 30.0], 0.5) == 20.0
    assert stats.percentile([5.0], 0.9) == 5.0
    assert stats.percentile([3.0, 1.0, 2.0], 1.0) == 3.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)


def test_round_median_is_the_median_of_per_round_statistics():
    quiet = [1.0] * 9 + [2.0]
    noisy = [50.0] * 10  # one bad round
    rounds = [quiet, quiet, noisy, quiet, quiet]
    # The pooled median is still 1.0, but the pooled p90 is the noisy
    # round's; the round median ignores it.
    assert stats.round_median(rounds, 0.9) == 1.0
    pooled = [sample for r in rounds for sample in r]
    assert stats.percentile(pooled, 0.9) == 50.0


def test_round_median_skips_rounds_without_samples():
    assert stats.round_median([[4.0], [], [6.0]]) == 5.0
    with pytest.raises(ValueError):
        stats.round_median([[], []])


def test_iqr_ratio_is_the_drivers_statistic():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_ratio(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )
    assert stats.range_ratio(values) == pytest.approx(0.9 / 10.05)
