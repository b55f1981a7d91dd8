import math

import pytest

from bench import stats


def test_failures_count_as_infinite_latency():
    values = [float(i) for i in range(1, 31)]  # 30 successes
    assert stats.median(values) == 15.5
    # 30 failures push the median past every success.
    assert stats.median(values, failed=30) == math.inf
    assert stats.median(values, failed=1) == 16.0


def test_p99_needs_a_thousand_samples():
    assert stats.percentile(range(999), 99.0) is None
    assert stats.percentile(range(1000), 99.0) == 989
    # Failures are samples too: 990 successes + 10 failures reach 1000,
    # and the 10 failures are exactly the 1% tail.
    assert stats.percentile(range(990), 99.0, failed=10) == 989
    assert stats.percentile(range(990), 99.0, failed=11) == math.inf


def test_tail_reports_the_highest_supported_level():
    assert stats.tail(range(1000)) == (99.0, 989)
    assert stats.tail(range(200)) == (95.0, 189)
    assert stats.tail(range(40)) == (75.0, 29)
    assert stats.tail(range(20)) is None
    assert stats.tail([]) is None


def test_percentile_rejects_out_of_range_levels():
    with pytest.raises(ValueError):
        stats.percentile([1.0], 100.0)
    with pytest.raises(ValueError):
        stats.median([])


def test_quartiles_match_statistics_quantiles():
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)
    q1, q2, q3 = stats.quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q1, q2, q3) == (1.25, 2.5, 3.75)
