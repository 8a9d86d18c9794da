"""Tests for the telemetry probe's storage: series and snapshot key order."""

from dataclasses import replace

from repro.telemetry import TimeSeries


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
    def test_items_deterministic_order(self):
        """Snapshot keys come out in one order whatever the run touched
        first: event counts by name, then the run totals, then the
        contention counters; series by name; per-node series by name,
        nodes ascending, with the final utilization track last."""
        from repro import simulate
        from repro.apps import Application
        from repro.platform.generator import TreeGeneratorParams, generate_tree
        from repro.protocols import ProtocolConfig
        from repro.telemetry import TelemetryConfig

        tree = generate_tree(TreeGeneratorParams(min_nodes=8, max_nodes=8),
                             seed=3)
        config = replace(ProtocolConfig.interruptible(3),
                         telemetry=TelemetryConfig.tracing(sample_dt=10))
        result = simulate(tree, [Application(30), Application(30)], config,
                          allocator="fairshare")
        snap = result.apps[0].telemetry
        keys = list(snap.counters)
        events = [k for k in keys if k.startswith("events.")]
        assert events == sorted(events) and keys[:len(events)] == events
        rest = keys[len(events):]
        assert rest[:4] == ["completed", "preemptions", "transfers", "samples"]
        assert rest[4:] and all(k.startswith("contention.") for k in rest[4:])
        assert list(snap.series) == sorted(snap.series)
        assert "contention_solves" in snap.series
        assert list(snap.node_series) == [
            "buffer_occupancy", "queue_depth", "cpu_util"]
        for per_node in snap.node_series.values():
            assert list(per_node) == list(range(snap.num_nodes))
