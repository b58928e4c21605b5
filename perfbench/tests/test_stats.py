import pytest

from stats import median, quartile_spread, tail_percentile


def test_p90_kept_when_ten_samples_lie_beyond_it():
    values = list(range(1, 101))
    assert tail_percentile(values) == (0.9, 90.0)


def test_smaller_samples_fall_back_to_the_highest_rank_with_ten_beyond():
    values = [float(v) for v in range(1, 51)]
    q, value = tail_percentile(values)
    assert (q, value) == (0.8, 40.0)
    assert sum(v > value for v in values) == 10


def test_tail_never_drops_below_the_median_rank():
    values = [float(v) for v in range(1, 16)]
    assert tail_percentile(values) == (8 / 15, 8.0)
    assert tail_percentile([3.0, 1.0, 2.0]) == (2 / 3, 2.0)
    evens = [float(v) for v in range(1, 11)]
    assert tail_percentile(evens) == (0.6, 6.0) and median(evens) == 5.5


def test_the_rule_counts_samples_not_distinct_values():
    values = [1.0] * 95 + [5.0] * 5
    q, value = tail_percentile(values)
    assert q == 0.9 and value == 1.0


def test_empty_samples_are_refused():
    with pytest.raises(ValueError):
        tail_percentile([])
    with pytest.raises(ValueError):
        median([])


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)
