"""Unit tests for counters, latency recorders, throughput meters."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.monitor import (
    Counter,
    Gauge,
    LatencyRecorder,
    ThroughputMeter,
    TimeSeries,
    instruments_summary,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(4)
        assert int(counter) == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().increment(-1)


class TestLatencyRecorder:
    def test_mean_and_percentiles(self):
        recorder = LatencyRecorder()
        recorder.extend([10, 20, 30, 40, 50])
        assert recorder.mean() == 30
        assert recorder.median() == 30
        assert recorder.minimum() == 10
        assert recorder.maximum() == 50

    def test_p99_on_hundred_samples(self):
        recorder = LatencyRecorder()
        recorder.extend(range(1, 101))
        assert recorder.p99() == 99

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1)

    def test_empty_recorder_raises(self):
        with pytest.raises(ValueError):
            LatencyRecorder().mean()

    def test_cdf_is_monotonic(self):
        recorder = LatencyRecorder()
        recorder.extend([5, 1, 9, 3, 7, 2, 8])
        curve = recorder.cdf()
        values = [v for v, _f in curve]
        fractions = [f for _v, f in curve]
        assert values == sorted(values)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_cdf_downsamples(self):
        recorder = LatencyRecorder()
        recorder.extend(range(1000))
        assert len(recorder.cdf(points=50)) == 50

    def test_summary_keys(self):
        recorder = LatencyRecorder("lat")
        recorder.extend([1, 2, 3])
        summary = recorder.summary()
        assert set(summary) == {"name", "kind", "count", "mean", "p50",
                                "p99", "min", "max"}
        assert summary["name"] == "lat"
        assert summary["kind"] == "histogram"

    def test_summary_empty_is_none_not_raise(self):
        summary = LatencyRecorder("lat").summary()
        assert summary["count"] == 0
        assert summary["mean"] is None
        assert summary["p99"] is None

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1))
    def test_percentile_bounds_property(self, samples):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        assert recorder.minimum() == min(samples)
        assert recorder.maximum() == max(samples)
        assert min(samples) <= recorder.median() <= max(samples)

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=2),
           st.floats(min_value=0, max_value=100))
    def test_percentile_monotone_in_pct(self, samples, pct):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        assert recorder.percentile(pct) <= recorder.percentile(100.0)
        assert recorder.percentile(0.0) <= recorder.percentile(pct)


class TestThroughputMeter:
    def test_ops_per_second(self):
        meter = ThroughputMeter()
        # 11 completions over 1 ms -> 10 intervals -> 10k ops/s.
        for i in range(11):
            meter.record(i * 100_000)
        assert meter.ops_per_second() == pytest.approx(10_000)

    def test_single_completion_rejected(self):
        meter = ThroughputMeter()
        meter.record(0)
        with pytest.raises(ValueError):
            meter.ops_per_second()

    def test_default_returned_for_degenerate_window(self):
        meter = ThroughputMeter()
        assert meter.ops_per_second(default=None) is None
        meter.record(5)
        assert meter.ops_per_second(default=0.0) == 0.0
        meter.record(5)  # two completions at the same instant
        assert meter.ops_per_second(default=None) is None

    def test_summary_never_raises(self):
        meter = ThroughputMeter("m")
        meter.record(7)
        summary = meter.summary()
        assert summary == {"name": "m", "kind": "meter", "count": 1,
                           "ops_per_second": None}


class TestInstrumentsSummary:
    def _component(self):
        class Component:
            def __init__(self):
                self.hits = Counter("comp.hits")
                self.depth = Gauge("comp.depth")
                self.hits.increment(3)
                self.depth.update(2)
                self.depth.update(1)

            def instruments(self):
                return (self.hits, self.depth)

        return Component()

    def test_flattens_to_short_names(self):
        summary = instruments_summary(self._component().instruments())
        assert summary == {"hits": 3, "depth": 1, "depth_highwater": 2}


class TestTimeSeries:
    def test_records_points(self):
        series = TimeSeries()
        series.record(0, 1.0)
        series.record(10, 2.0)
        assert series.values() == [1.0, 2.0]
        assert len(series) == 2

    def test_rejects_time_going_backwards(self):
        series = TimeSeries()
        series.record(10, 1.0)
        with pytest.raises(ValueError):
            series.record(5, 2.0)
