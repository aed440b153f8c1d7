import pytest

from sysbench.common import (
    BenchError,
    best_rate,
    best_time,
    highest_supported,
    latency_summary,
    percentile,
    quartile_spread,
    samples_beyond,
)
from sysbench.fleet import window_medians


@pytest.mark.parametrize(
    "n, pct, beyond",
    [(1000, 99.0, 10), (999, 99.0, 9), (100, 90.0, 10), (99, 90.0, 9), (10000, 99.9, 10)],
)
def test_samples_beyond_is_exact(n, pct, beyond):
    assert samples_beyond(n, pct) == beyond


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_highest_supported_needs_ten_samples_beyond(n, expected):
    assert highest_supported(n) == expected


def test_latency_summary_tail_is_the_highest_supported_up_to_p99():
    small = latency_summary([0.001] * 150)
    assert small["tail_pct"] == 90.0
    big = latency_summary([0.001] * 50000)
    assert big["tail_pct"] == 99.0 and big["supported_pct"] == 99.9
    with pytest.raises(BenchError):
        latency_summary([0.001] * 99)


def test_percentile_matches_linear_interpolation():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50.0) == 2.5
    assert percentile(values, 100.0) == 4.0
    assert percentile(values, 0.0) == 1.0


def test_quartile_spread_is_iqr_over_median():
    q1, med, q3, spread = quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, med, q3) == (1.5, 3.0, 4.5)
    assert spread == pytest.approx(1.0)


def test_best_decile_ignores_windows_slowed_from_outside():
    rates = [100.0] * 16 + [40.0, 55.0, 70.0, 80.0]
    assert best_rate(rates) == 100.0
    times = [1.0] * 16 + [9.0, 5.0, 3.0, 2.0]
    assert best_time(times) == 1.0


def test_window_medians_follow_due_order():
    dues = [3.0, 0.0, 2.0, 1.0] * 100
    lats = [0.030, 0.000, 0.020, 0.010] * 100
    medians = window_medians(dues, lats)
    assert len(medians) == 2
    assert medians == sorted(medians) and medians[0] < medians[1]
