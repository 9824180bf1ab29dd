"""Unit tests for measurement instruments."""

import math

import numpy as np
import pytest

from repro.sim.metrics import (
    Counter,
    LatencyStats,
    MessageLedger,
    RateOverTime,
    RatioMeter,
    TimeSeries,
    summary_stats,
)


class TestSummaryStats:
    def test_empty_sample_is_nan_safe(self):
        s = summary_stats([])
        assert s["count"] == 0
        assert math.isnan(s["mean"]) and math.isnan(s["p99"])

    def test_known_values(self):
        s = summary_stats([1.0, 2.0, 3.0, 4.0])
        assert s["count"] == 4
        assert s["mean"] == 2.5
        assert s["min"] == 1.0 and s["max"] == 4.0
        assert s["p50"] == 2.5

    def test_single_value(self):
        s = summary_stats([7.0])
        assert s["mean"] == s["min"] == s["max"] == s["p50"] == 7.0
        assert s["std"] == 0.0


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.incr("a")
        c.incr("a", 4)
        assert c.get("a") == 5

    def test_unknown_is_zero(self):
        assert Counter().get("missing") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().incr("a", -1)

    def test_as_dict(self):
        c = Counter()
        c.incr("x", 2)
        assert c.as_dict() == {"x": 2}


class TestRatioMeter:
    def test_ratio(self):
        m = RatioMeter()
        for ok in (True, True, False, True):
            m.record(ok)
        assert m.ratio == 0.75

    def test_empty_ratio_is_nan(self):
        assert math.isnan(RatioMeter().ratio)

    def test_merge(self):
        a, b = RatioMeter(), RatioMeter()
        a.record(True)
        b.record(False)
        b.record(True)
        merged = a.merge(b)
        assert merged.total == 3 and merged.successes == 2


class TestTimeSeries:
    def test_record_and_window_mean(self):
        ts = TimeSeries()
        for t, v in [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]:
            ts.record(t, v)
        assert ts.window_mean(0.0, 2.0) == 2.0
        assert len(ts) == 3

    def test_out_of_order_rejected(self):
        ts = TimeSeries()
        ts.record(2.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(1.0, 1.0)

    def test_empty_window_nan(self):
        ts = TimeSeries()
        assert math.isnan(ts.window_mean(0, 1))

    def test_as_arrays(self):
        ts = TimeSeries()
        ts.record(1.0, 2.0)
        t, v = ts.as_arrays()
        assert t.tolist() == [1.0] and v.tolist() == [2.0]


class TestRateOverTime:
    def test_bins_counts(self):
        r = RateOverTime(bin_width=1.0)
        r.record(0.2)
        r.record(0.8)
        r.record(2.5)
        times, counts = r.series()
        assert times.tolist() == [0.0, 1.0, 2.0]
        assert counts.tolist() == [2.0, 0.0, 1.0]

    def test_until_extends_with_zeros(self):
        r = RateOverTime(bin_width=1.0)
        r.record(0.5)
        times, counts = r.series(until=4.0)
        assert len(counts) == 4
        assert counts.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_empty_series(self):
        times, counts = RateOverTime(1.0).series()
        assert len(times) == 0

    def test_total(self):
        r = RateOverTime(2.0)
        r.record(1.0, count=3)
        r.record(5.0)
        assert r.total == 4

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            RateOverTime(1.0).record(-1.0)

    def test_bad_bin_width_rejected(self):
        with pytest.raises(ValueError):
            RateOverTime(0.0)


class TestLatencyStats:
    def test_phase_means(self):
        ls = LatencyStats()
        ls.record("discovery", 0.1)
        ls.record("discovery", 0.3)
        ls.record("probe", 1.0)
        assert ls.mean("discovery") == pytest.approx(0.2)
        assert ls.phases() == ["discovery", "probe"]

    def test_totals_sums_phases(self):
        ls = LatencyStats()
        ls.record("a", 1.0)
        ls.record("b", 2.0)
        assert ls.totals()["total"] == pytest.approx(3.0)

    def test_unknown_phase_nan(self):
        assert math.isnan(LatencyStats().mean("nope"))

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().record("x", -0.5)

    def test_stats_shape(self):
        ls = LatencyStats()
        ls.record("x", 1.0)
        assert ls.stats("x")["count"] == 1


class TestMessageLedger:
    def test_counts_and_bytes(self):
        ml = MessageLedger()
        ml.record("probe", 256)
        ml.record("probe", 256, count=3)
        assert ml.count["probe"] == 4
        assert ml.bytes["probe"] == 1024

    def test_total_by_category(self):
        ml = MessageLedger()
        ml.record("a", 10, 2)
        ml.record("b", 20, 1)
        assert ml.total_count() == 3
        assert ml.total_count(["a"]) == 2
        assert ml.bytes["b"] == 20

    def test_zero_size_counts_no_bytes(self):
        ml = MessageLedger()
        ml.record("x", 0, 5)
        assert ml.total_count() == 5
        assert ml.bytes["x"] == 0

    def test_as_dict(self):
        ml = MessageLedger()
        ml.record("x", 8)
        d = ml.as_dict()
        assert d["count"] == {"x": 1} and d["bytes"] == {"x": 8}
