"""Nearest-rank percentiles and the reported tail."""

import pytest

from stats import describe, nearest_rank, percentile, summarize, supported_tail


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, "50") == 50
    assert percentile(values, "99") == 99
    assert percentile(values, "100") == 100
    # Nearest rank never interpolates: p50 of four values is the second.
    assert percentile([4.0, 1.0, 3.0, 2.0], "50") == 2.0
    assert percentile([7.0], "99.9") == 7.0


def test_rank_is_exact_where_floating_point_is_not():
    # 99.9 / 100 * 1000 is 999.0000000000001 in binary floating point.
    assert nearest_rank("99.9", 1000) == 999
    assert nearest_rank("99", 100) == 99


@pytest.mark.parametrize("pct", ["0", "-1", "100.5"])
def test_out_of_range_percentile_is_refused(pct):
    with pytest.raises(ValueError):
        nearest_rank(pct, 10)


def test_empty_sample_is_refused():
    with pytest.raises(ValueError):
        nearest_rank("50", 0)


@pytest.mark.parametrize(
    "count, tail",
    [(10, None), (99, None), (100, "90"), (999, "90"), (1000, "99"), (10000, "99.9"), (100000, "99.99")],
)
def test_tail_needs_ten_samples_beyond_it(count, tail):
    assert supported_tail(count) == tail


def test_summary_reports_the_sample_count():
    summary = summarize([float(value) for value in range(1, 1001)])
    assert summary["n"] == 1000
    assert summary["median"] == 500.5
    assert summary["tail_pct"] == "99"
    assert summary["tail"] == 990.0
    assert "n=1000" in describe(summary, "ms")


def test_small_samples_report_median_and_count_only():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "median": 2.0}
    assert describe(summary, "s").endswith("n=3")
