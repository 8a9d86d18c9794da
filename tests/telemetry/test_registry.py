"""Tests for the metrics registry and its instruments."""

import pytest

from repro.errors import ReproError
from repro.telemetry import MetricsRegistry
from repro.telemetry.registry import Counter, TimeSeries


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5


class TestTimeSeries:
    def test_append_and_iterate(self):
        series = TimeSeries()
        series.append(0, 1.0)
        series.append(10, 2.0)
        assert list(series) == [(0, 1.0), (10, 2.0)]
        assert series.as_tuples() == ((0, 10), (1.0, 2.0))

    def test_decimation_halves_and_keeps_newest(self):
        series = TimeSeries(max_samples=4)
        for t in range(5):
            series.append(t, float(t))
        # Exceeding the budget keeps every other sample, newest included.
        assert series.decimations == 1
        assert series.times == [0, 2, 4]
        assert series.values == [0.0, 2.0, 4.0]

    def test_decimated_series_spans_full_run(self):
        series = TimeSeries(max_samples=8)
        for t in range(100):
            series.append(t, float(t))
        assert len(series) <= 8
        assert series.times[-1] == 99
        assert series.decimations >= 1
        # times stay sorted through decimation
        assert series.times == sorted(series.times)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x", node=1) is not reg.counter("x")

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ReproError):
            reg.series("x")
        reg.series("y")
        with pytest.raises(ReproError):
            reg.counter("y")

    def test_items_deterministic_order(self):
        reg = MetricsRegistry()
        reg.counter("b", node=2)
        reg.counter("b")
        reg.counter("a", node=0)
        keys = [key for key, _ in reg.items()]
        assert keys == [("a", 0), ("b", None), ("b", 2)]

    def test_counters_and_series_data_views(self):
        reg = MetricsRegistry()
        reg.counter("events").inc(7)
        reg.series("depth", node=3).append(5, 2.0)
        assert reg.counters() == {("events", None): 7}
        assert reg.series_data() == {("depth", 3): ((5,), (2.0,))}

    def test_contains_accepts_bare_name(self):
        reg = MetricsRegistry()
        reg.counter("x")
        assert "x" in reg
        assert ("x", None) in reg
        assert "y" not in reg

