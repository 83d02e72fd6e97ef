"""Unit tests for counters and latency histograms."""

import pytest

from repro.metrics.counters import CounterSet
from repro.metrics.latency import LatencyHistogram


class TestCounterSet:
    def test_zero_default(self):
        assert CounterSet().get("anything") == 0

    def test_inc(self):
        c = CounterSet()
        c.inc("ops")
        c.inc("ops", 5)
        assert c.get("ops") == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CounterSet().inc("x", -1)

    def test_snapshot_is_copy(self):
        c = CounterSet()
        c.inc("a")
        snap = c.snapshot()
        c.inc("a")
        assert snap == {"a": 1}

    def test_ratio(self):
        c = CounterSet()
        c.inc("hits", 3)
        c.inc("lookups", 4)
        assert c.ratio("hits", "lookups") == pytest.approx(0.75)
        assert c.ratio("hits", "nothing") == 0.0

    def test_reset(self):
        c = CounterSet()
        c.inc("a", 10)
        c.reset()
        assert c.get("a") == 0

    def test_iteration_sorted(self):
        c = CounterSet()
        c.inc("z")
        c.inc("a")
        assert [k for k, _ in c] == ["a", "z"]


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0

    def test_single_sample(self):
        h = LatencyHistogram()
        h.record(0.01)
        assert h.count == 1
        assert h.mean == pytest.approx(0.01)
        assert h.percentile(50) == pytest.approx(0.01, rel=0.1)

    def test_percentiles_ordered(self):
        h = LatencyHistogram()
        for i in range(1, 1001):
            h.record(i / 1000.0)
        p50, p90, p99 = h.percentile(50), h.percentile(90), h.percentile(99)
        assert p50 < p90 < p99
        assert p50 == pytest.approx(0.5, rel=0.1)
        assert p99 == pytest.approx(0.99, rel=0.1)

    def test_min_max_tracked_exactly(self):
        h = LatencyHistogram()
        h.record(0.002)
        h.record(0.5)
        assert h.min_seen == pytest.approx(0.002)
        assert h.max_seen == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-0.1)

    def test_invalid_percentile_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)

    def test_summary_keys(self):
        h = LatencyHistogram()
        h.record(0.001)
        assert set(h.summary()) == {"count", "mean", "p50", "p90", "p99", "p999", "max"}

    def test_summary_p999_between_p99_and_max(self):
        h = LatencyHistogram()
        for i in range(1, 10_001):
            h.record(i / 10_000.0)
        s = h.summary()
        assert s["p99"] <= s["p999"] <= s["max"]
        assert s["p999"] == pytest.approx(0.999, rel=0.1)

    def test_p999_near_100_clamps_to_observed_max(self):
        # Percentiles in the last bucket must never exceed the true max.
        h = LatencyHistogram()
        h.record(0.01)
        h.record(0.7)
        for p in (99.0, 99.9, 99.99, 100.0):
            assert h.percentile(p) <= 0.7 + 1e-12
        assert h.percentile(99.9) == pytest.approx(0.7)

    def test_single_sample_summary_consistent(self):
        h = LatencyHistogram()
        h.record(0.03)
        s = h.summary()
        assert s["count"] == 1.0
        assert s["p50"] == pytest.approx(0.03, rel=0.1)
        assert s["p999"] == pytest.approx(0.03, rel=0.1)
        assert s["max"] == pytest.approx(0.03)
        assert s["p50"] <= s["p90"] <= s["p99"] <= s["p999"] <= s["max"]

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for _ in range(10):
            a.record(0.001)
        for _ in range(10):
            b.record(0.1)
        a.merge(b)
        assert a.count == 20
        assert a.percentile(99) > 0.05

    def test_clamping_out_of_range(self):
        h = LatencyHistogram(min_value=1e-6, max_value=1.0)
        h.record(1e-9)
        h.record(50.0)
        assert h.count == 2
        assert h.percentile(100) <= 50.0

    def test_bucket_edges(self):
        # A sample exactly on a bound belongs to that bound's bucket (upper
        # edges are inclusive); one past the last bound to the overflow one.
        h = LatencyHistogram(min_value=1.0, max_value=4.0, growth=2.0)
        assert h._bounds == [1.0, 2.0, 4.0]
        for sample in (2.0, 2.0000001, 4.0, 4.0000001, 1e9, 0.5, 1.0):
            h.record(sample)
        assert h._counts == [2, 1, 2, 2]

    def test_percentile_zero_is_observed_min(self):
        # Regression: p=0 used to return the first bucket's edge (the
        # zero threshold is satisfied before any sample is counted),
        # not the minimum actually observed.
        h = LatencyHistogram()
        h.record(0.01)
        h.record(0.5)
        assert h.percentile(0) == pytest.approx(0.01)

    def test_percentile_zero_empty(self):
        assert LatencyHistogram().percentile(0) == 0.0

    def test_percentile_hundred_is_observed_max(self):
        h = LatencyHistogram()
        h.record(0.01)
        h.record(0.5)
        assert h.percentile(100) == pytest.approx(0.5)

    def test_single_sample_all_percentiles_agree(self):
        h = LatencyHistogram()
        h.record(0.02)
        assert h.percentile(0) == pytest.approx(0.02)
        assert h.percentile(100) == pytest.approx(0.02)
        assert h.percentile(50) == pytest.approx(0.02, rel=0.1)
