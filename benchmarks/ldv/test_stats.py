"""The percentile rule, quartile math and compare verdicts."""

import pytest

from benchmarks.ldv.compare import verdict
from benchmarks.ldv.stats import (
    highest_supported_percentile,
    percentile,
    quartiles,
    relative_spread,
    summarize,
)


@pytest.mark.parametrize("count, expected", [
    (19, None),    # even the median lacks 10 samples beyond it
    (20, 50.0),
    (99, 50.0),    # p90 would leave 9.9 beyond
    (100, 90.0),
    (199, 90.0),   # p95 would leave 9.95 beyond
    (200, 95.0),
    (1000, 99.0),
    (9999, 99.0),
    (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert highest_supported_percentile(count) == expected


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile(list(range(1, 101)), 95) == pytest.approx(95.05)
    assert percentile([7.0], 99) == 7.0


def test_quartiles_match_statistics_quantiles_exclusive():
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8]) == (2.25, 4.5, 6.75)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_summary_and_relative_spread():
    summary = summarize([10.0, 11.0, 9.0, 10.0, 30.0])
    assert summary["median"] == 10.0
    assert (summary["q1"], summary["q3"]) == (9.5, 20.5)
    assert (summary["min"], summary["max"], summary["n"]) == (9.0, 30.0, 5)
    assert relative_spread(summary) == pytest.approx(1.1)


def _side(median, q1, q3, low, high):
    return {"median": median, "q1": q1, "q3": q3, "min": low, "max": high}


@pytest.mark.parametrize("head, expected", [
    (_side(1.05, 1.04, 1.06, 1.03, 1.07), "within-bound"),
    (_side(1.20, 1.19, 1.21, 1.18, 1.22), "worse"),
    (_side(0.80, 0.79, 0.81, 0.78, 0.82), "better"),
    # spread wider than the bound, runs overlapping: cannot tell
    (_side(1.05, 0.90, 1.30, 0.85, 1.40), "unresolved"),
    # spread wider than the bound, but every run is slower
    (_side(1.60, 1.40, 1.80, 1.30, 1.90), "worse"),
])
def test_verdicts_for_a_lower_is_better_metric(head, expected):
    base = _side(1.00, 0.99, 1.01, 0.98, 1.02)
    assert verdict(base, head, 0.10, lower_is_better=True)[1] == expected


def test_change_is_signed_as_a_regression():
    base = _side(100.0, 100.0, 100.0, 100.0, 100.0)
    head = _side(90.0, 90.0, 90.0, 90.0, 90.0)
    assert verdict(base, head, 0.05, True) == (pytest.approx(-0.1), "better")
    assert verdict(base, head, 0.05, False) == (pytest.approx(0.1), "worse")
