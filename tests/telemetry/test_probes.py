"""Behaviour-neutrality and correctness of the telemetry probes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro import simulate
from repro.metrics.usage import node_utilization
from repro.platform import figure2a_tree
from repro.platform.generator import TreeGeneratorParams, generate_tree
from repro.protocols import ProtocolConfig, ProtocolEngine
from repro.telemetry import TelemetryConfig


def run(tree, config, tasks=300):
    return ProtocolEngine(tree, config, tasks).run()


@pytest.fixture(scope="module")
def tree():
    return generate_tree(TreeGeneratorParams(min_nodes=20, max_nodes=20),
                         seed=11)


class TestEventBound:
    def test_sampler_fires_grow_with_log_of_makespan(self):
        # The Figure 2a tree's root computes until t=1e9: a sampler firing
        # every sample_dt would fire 5e6 times for 2000 tasks.  Decimation
        # halves the series and doubles the period each time they fill,
        # so each doubling costs max_samples/2 more fires: O(max_samples
        # * log T) in all (7268 fires here).
        config = replace(ProtocolConfig.interruptible(3),
                         telemetry=TelemetryConfig())
        snapshot = simulate(figure2a_tree(), 2000, config).telemetry
        cap, dt = config.telemetry.max_samples, config.telemetry.sample_dt
        doublings = math.log2(snapshot.makespan / (dt * cap))
        assert snapshot.samples <= cap * (2 + doublings)


class TestBehaviourNeutrality:
    def test_sampling_preserves_fingerprint(self, tree):
        base = ProtocolConfig.interruptible(3)
        plain = run(tree, base)
        sampled = run(tree, replace(base, telemetry=TelemetryConfig(
            sample_dt=5)))
        assert sampled.fingerprint() == plain.fingerprint()
        assert sampled.events_processed == plain.events_processed

    def test_tracing_preset_preserves_fingerprint(self, tree):
        base = ProtocolConfig.non_interruptible(2)
        plain = run(tree, base)
        traced = run(tree, replace(base,
                                   telemetry=TelemetryConfig.tracing()))
        assert traced.fingerprint() == plain.fingerprint()

    def test_telemetry_off_result_has_no_snapshot(self, tree):
        result = run(tree, ProtocolConfig.interruptible(2))
        assert result.telemetry is None

    def test_warp_stands_down_under_telemetry(self):
        config = replace(ProtocolConfig.interruptible(3, warp=True),
                         telemetry=TelemetryConfig())
        result = run(figure2a_tree(), config, tasks=2000)
        assert result.warp is not None
        assert not result.warp.applied
        assert "telemetry" in result.warp.reason
        # The probe still covered the whole (unwarped) run.
        assert result.telemetry is not None
        assert result.telemetry.samples > 0


class TestSnapshotContents:
    def test_scalar_counters(self, tree):
        config = replace(ProtocolConfig.interruptible(3),
                         telemetry=TelemetryConfig(sample_dt=10))
        result = run(tree, config)
        snap = result.telemetry
        assert snap.counters["completed"] == 300
        assert snap.counters["samples"] == snap.samples
        assert snap.counters["preemptions"] == result.preemptions
        assert snap.num_nodes == tree.num_nodes
        assert snap.makespan == result.makespan

    def test_series_monotone_and_bounded(self, tree):
        config = replace(ProtocolConfig.interruptible(3),
                         telemetry=TelemetryConfig(sample_dt=3,
                                                   max_samples=64))
        snap = run(tree, config).telemetry
        for name, (times, values) in snap.series.items():
            assert len(times) == len(values)
            assert len(times) <= 64, name
            assert list(times) == sorted(times), name
        completed = snap.series["completed"][1]
        assert list(completed) == sorted(completed)
        assert completed[-1] <= 300

    def test_utilization_matches_metrics_sampling_mode(self, tree):
        config = replace(ProtocolConfig.interruptible(3),
                         telemetry=TelemetryConfig(sample_dt=10))
        result = run(tree, config)
        np.testing.assert_allclose(result.telemetry.utilization(),
                                   node_utilization(result))

    def test_utilization_matches_metrics_tap_mode(self, tree):
        config = replace(ProtocolConfig.interruptible(3),
                         telemetry=TelemetryConfig.tracing(sample_dt=10))
        result = run(tree, config)
        np.testing.assert_allclose(result.telemetry.utilization(),
                                   node_utilization(result))

    def test_tap_mode_final_cpu_util_track(self, tree):
        """The Perfetto counter track ends on node_utilization's value."""
        config = replace(ProtocolConfig.interruptible(3),
                         telemetry=TelemetryConfig.tracing(sample_dt=10))
        result = run(tree, config)
        snap = result.telemetry
        util = node_utilization(result)
        track = snap.node_series["cpu_util"]
        for node, (times, values) in track.items():
            assert times[-1] == snap.makespan
            assert values[-1] == pytest.approx(util[node])

    def test_per_node_series_off_by_default(self, tree):
        config = replace(ProtocolConfig.interruptible(3),
                         telemetry=TelemetryConfig(sample_dt=10))
        snap = run(tree, config).telemetry
        assert snap.node_series == {}
        config = replace(config,
                         telemetry=TelemetryConfig(sample_dt=10,
                                                   per_node_series=True))
        snap = run(tree, config).telemetry
        assert "buffer_occupancy" in snap.node_series
        assert "queue_depth" in snap.node_series

    def test_decimation_doubles_effective_dt(self, tree):
        config = replace(ProtocolConfig.interruptible(3),
                         telemetry=TelemetryConfig(sample_dt=1,
                                                   max_samples=16))
        snap = run(tree, config).telemetry
        assert snap.effective_dt > snap.sample_dt
        assert len(snap.series["completed"][0]) <= 16

    def test_coexists_with_user_tracer(self, tree):
        """A user Tracer and the event tap both see the run."""
        from repro.protocols import Tracer
        from repro.protocols import trace as tr

        config = replace(ProtocolConfig.interruptible(3),
                         telemetry=TelemetryConfig.tracing(sample_dt=10))
        engine = ProtocolEngine(tree, config, 300)
        tracer = Tracer()
        engine.tracer = tracer
        result = engine.run()
        assert tracer.count(tr.COMPUTE_DONE) == 300
        assert result.telemetry.counters["events.compute-done"] == 300


class TestConfigValidation:
    def test_bad_sample_dt(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            TelemetryConfig(sample_dt=0)

    def test_bad_max_samples(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            TelemetryConfig(max_samples=1)

    def test_tracing_preset(self):
        cfg = TelemetryConfig.tracing()
        assert cfg.per_node_series and cfg.trace_events
        assert cfg.sample_dt == 50
