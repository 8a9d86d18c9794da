"""End-to-end open-loop service runs: engines, warp, multi-app, digests."""

import dataclasses

import pytest

from repro import simulate
from repro.apps import Application, Workload
from repro.errors import ProtocolError
from repro.harness.checkpoint import config_digest
from repro.platform import figure1_tree, generate_platform
from repro.platform.faults import CrashEvent, FaultSchedule
from repro.platform.generator import TreeGeneratorParams, generate_tree
from repro.protocols.config import ProtocolConfig
from repro.service import (DiurnalArrivals, PeriodicArrivals,
                           PoissonArrivals, QueueDepthBound, TokenBucket)
from repro.telemetry import TelemetryConfig
from repro.sim.warp import REASON_OPEN_LOOP

IC3 = ProtocolConfig.interruptible(3)
IC3_WARP = ProtocolConfig.interruptible(3, warp=True)


def service_invariants(stats):
    assert stats.offered == stats.admitted + stats.dropped
    assert stats.completed == stats.admitted  # open-loop runs drain fully
    assert 0 <= stats.utilization <= 1 + 1e-9
    assert 0 <= stats.saturation <= 1 + 1e-9
    if stats.completed:
        assert stats.latency_total >= 0 and stats.latency_max >= 0
        assert None not in (stats.p50, stats.p95, stats.p99)


class TestEventBound:
    def test_idle_timers_stay_proportional_to_arrivals_and_tasks(self):
        # A diurnal day on a 60-node tree.  The driver arms one timer per
        # arrival event; everything else must be the protocol's own work,
        # a few events per completed task, not timers that keep firing
        # through the idle stretches between the phases (283,260 events
        # against a bound of 405,491 here).
        arrivals = DiurnalArrivals(rates=(0.05, 0.6, 0.15), phase_len=5000,
                                   horizon=600_000, seed=3)
        workload = Workload(arrivals=arrivals,
                            admission=TokenBucket(rate="1/4", burst=64))
        tree = generate_tree(TreeGeneratorParams(
            min_nodes=60, max_nodes=60, max_comm=8, max_comp=16,
            comp_divisor=16), seed=1)
        config = dataclasses.replace(IC3, telemetry=TelemetryConfig())
        result = simulate(tree, workload, config)
        emitted = sum(1 for _ in arrivals.events())
        assert result.service.completed > 0
        assert (result.events_processed
                <= emitted + 3 * result.service.completed)


class TestClosedBagUnchanged:
    def test_no_arrivals_means_no_service(self):
        result = simulate(figure1_tree(), 50, IC3)
        assert result.service is None

    def test_workload_without_arrivals_matches_int(self):
        tree = figure1_tree()
        assert simulate(tree, Workload(tasks=50), IC3).fingerprint() == \
            simulate(tree, 50, IC3).fingerprint()


class TestOpenLoopRuns:
    @pytest.mark.parametrize("platform", [
        figure1_tree(), generate_platform("star", seed=3),
        generate_platform("leafspine", seed=5),
    ], ids=["tree", "star", "leafspine"])
    def test_poisson_drains_and_accounts(self, platform):
        workload = Workload(
            arrivals=PoissonArrivals(rate=0.05, horizon=4000, seed=1))
        result = simulate(platform, workload, IC3)
        stats = result.service
        service_invariants(stats)
        assert stats.dropped == 0
        assert stats.offered == len(result.completion_times)
        assert result.makespan == result.last_completion_time

    def test_token_bucket_sheds_overload(self):
        workload = Workload(
            arrivals=PeriodicArrivals(interval=2, horizon=4000),
            admission=TokenBucket(rate="1/10", burst=5))
        stats = simulate(figure1_tree(), workload, IC3).service
        service_invariants(stats)
        assert stats.dropped > 0
        assert 0.75 < stats.drop_rate < 0.85  # 1/10 admitted of 1/2 offered

    def test_queue_bound_caps_outstanding_work(self):
        workload = Workload(
            arrivals=PeriodicArrivals(interval=1, horizon=4000, batch=2),
            admission=QueueDepthBound(limit=12))
        stats = simulate(figure1_tree(), workload, IC3).service
        service_invariants(stats)
        assert stats.pending_high_water <= 12
        assert stats.dropped > 0

    def test_no_completion_list_retention(self):
        workload = Workload(
            arrivals=PeriodicArrivals(interval=5, horizon=5000))
        result = simulate(figure1_tree(), workload, IC3,
                          record_completion_times=False)
        assert result.completion_times == ()
        service_invariants(result.service)

    def test_fingerprint_folds_service(self):
        base = Workload(arrivals=PoissonArrivals(rate=0.05, horizon=3000))
        gated = Workload(arrivals=PoissonArrivals(rate=0.05, horizon=3000),
                         admission=TokenBucket(rate="1/25", burst=2))
        tree = figure1_tree()
        assert simulate(tree, base, IC3).fingerprint() != \
            simulate(tree, gated, IC3).fingerprint()


class TestRejections:
    def test_arrivals_exclude_closed_tasks(self):
        with pytest.raises(ProtocolError):
            Workload(tasks=10, arrivals=PeriodicArrivals(interval=1,
                                                         horizon=5))
        with pytest.raises(ProtocolError):
            Application(tasks=10,
                        arrivals=PeriodicArrivals(interval=1, horizon=5))

    def test_admission_requires_arrivals(self):
        with pytest.raises(ProtocolError):
            Workload(tasks=10, admission=TokenBucket(rate=1, burst=1))

    def test_open_loop_rejects_faults(self):
        faults = FaultSchedule([CrashEvent(at_time=50, node=1)])
        workload = Workload(
            arrivals=PeriodicArrivals(interval=5, horizon=500))
        with pytest.raises(ProtocolError):
            simulate(figure1_tree(), workload, IC3, faults=faults)


class TestWarp:
    PARAMS = TreeGeneratorParams(min_nodes=30, max_nodes=30, max_comm=8,
                                 max_comp=16, comp_divisor=16)

    @pytest.mark.parametrize("seed,interval,batch", [
        (1, 40, 2), (2, 25, 1), (5, 60, 3),
    ])
    def test_periodic_warp_is_bit_identical(self, seed, interval, batch):
        tree = generate_tree(self.PARAMS, seed=seed)
        workload = Workload(arrivals=PeriodicArrivals(
            interval=interval, horizon=60_000, batch=batch))
        exact = simulate(tree, workload, IC3)
        warped = simulate(tree, workload, IC3_WARP)
        assert warped.warp is not None and warped.warp.applied
        assert warped.warp.events_skipped > 0
        assert exact.fingerprint() == warped.fingerprint()
        assert exact.service == warped.service  # latency fold included

    def test_aperiodic_stands_down(self):
        workload = Workload(
            arrivals=PoissonArrivals(rate=0.1, horizon=3000))
        result = simulate(figure1_tree(), workload, IC3_WARP)
        assert result.warp is not None and not result.warp.applied
        assert result.warp.reason == REASON_OPEN_LOOP

    def test_periodic_with_admission_warps_identically(self):
        tree = generate_tree(self.PARAMS, seed=1)
        workload = Workload(
            arrivals=PeriodicArrivals(interval=10, horizon=40_000),
            admission=TokenBucket(rate="1/15", burst=8))
        exact = simulate(tree, workload, IC3)
        warped = simulate(tree, workload, IC3_WARP)
        assert warped.warp.applied
        assert exact.fingerprint() == warped.fingerprint()
        assert exact.service == warped.service


class TestMultiApp:
    def test_mixed_closed_and_open_lanes(self):
        workload = Workload(apps=(
            Application(tasks=40),
            Application(arrivals=PoissonArrivals(rate=0.05, horizon=3000,
                                                 seed=2)),
        ))
        result = simulate(figure1_tree(), workload, IC3)
        assert result.apps[0].service is None
        lane_stats = result.apps[1].service
        service_invariants(lane_stats)
        # Merged platform view covers exactly the open-loop lane here.
        assert result.service.offered == lane_stats.offered
        assert result.service.completed == lane_stats.completed

    def test_two_open_lanes_merge(self):
        workload = Workload(apps=(
            Application(arrivals=PeriodicArrivals(interval=25, horizon=2000)),
            Application(arrivals=PeriodicArrivals(interval=35, horizon=2000),
                        arrival=500),
        ))
        result = simulate(figure1_tree(), workload, IC3)
        merged = result.service
        service_invariants(merged)
        assert merged.offered == sum(a.service.offered for a in result.apps)
        assert merged.completed == sum(a.service.completed
                                       for a in result.apps)


class TestSources:
    GRAPH = generate_platform("leafspine", seed=5)

    def hosts(self):
        return [h for h in self.GRAPH.hosts if h != self.GRAPH.root]

    def test_distinct_sources_complete_and_differ(self):
        hosts = self.hosts()
        distinct = simulate(self.GRAPH, Workload(apps=(
            Application(tasks=30), Application(tasks=30, source=hosts[2]),
        )), IC3)
        both_root = simulate(self.GRAPH, Workload(apps=(
            Application(tasks=30), Application(tasks=30),
        )), IC3)
        assert len(distinct.completion_times) == 60
        assert sum(distinct.per_node_computed) == 60
        assert distinct.fingerprint() != both_root.fingerprint()

    def test_single_app_non_root_source(self):
        result = simulate(self.GRAPH, Workload(apps=(
            Application(tasks=20, source=self.hosts()[0]),)), IC3)
        assert len(result.completion_times) == 20

    def test_open_loop_lane_with_source(self):
        result = simulate(self.GRAPH, Workload(apps=(
            Application(arrivals=PeriodicArrivals(interval=30, horizon=1500),
                        source=self.hosts()[1]),)), IC3)
        service_invariants(result.service)
        assert result.service.completed == 50

    def test_non_host_source_rejected(self):
        switch = next(iter(self.GRAPH.switches))
        with pytest.raises(Exception):
            simulate(self.GRAPH, Workload(apps=(
                Application(tasks=5, source=switch),)), IC3)

    def test_faults_with_non_root_source_rejected(self):
        faults = FaultSchedule([CrashEvent(at_time=50,
                                           node=self.hosts()[0])])
        with pytest.raises(ProtocolError):
            simulate(self.GRAPH, Workload(apps=(
                Application(tasks=5, source=self.hosts()[1]),)), IC3,
                faults=faults)


class TestCheckpointDigests:
    def test_open_and_closed_digests_differ(self):
        closed = Workload(tasks=100)
        open_loop = Workload(
            arrivals=PeriodicArrivals(interval=5, horizon=500))
        assert config_digest("exp", closed) != config_digest("exp", open_loop)

    def test_arrival_spec_changes_digest(self):
        a = Workload(arrivals=PeriodicArrivals(interval=5, horizon=500))
        b = Workload(arrivals=PeriodicArrivals(interval=6, horizon=500))
        c = Workload(arrivals=PeriodicArrivals(interval=5, horizon=500),
                     admission=QueueDepthBound(limit=4))
        assert len({config_digest("exp", w) for w in (a, b, c)}) == 3

    def test_closed_bag_repr_is_pre_service_stable(self):
        # The digest contract: specs without arrivals render exactly as
        # they did before service mode existed.
        assert "arrivals" not in repr(Application(5))
        assert "arrivals" not in repr(Workload(tasks=5))
        assert "arrivals" in repr(
            Workload(arrivals=PeriodicArrivals(interval=5, horizon=50)))


class TestTelemetry:
    def test_probes_do_not_change_results(self):
        from repro.telemetry import TelemetryConfig

        workload = Workload(
            arrivals=PoissonArrivals(rate=0.2, horizon=3000, seed=4),
            admission=TokenBucket(rate="1/8", burst=8))
        cfg_tel = dataclasses.replace(
            IC3, telemetry=TelemetryConfig(sample_dt=50))
        plain = simulate(figure1_tree(), workload, IC3)
        probed = simulate(figure1_tree(), workload, cfg_tel)
        assert plain.fingerprint() == probed.fingerprint()
        snap = probed.telemetry
        assert snap.counters["service.offered"] == probed.service.offered
        assert snap.counters["service.dropped"] == probed.service.dropped
        assert "service_in_system" in snap.series
        assert "service_admitted" in snap.series
