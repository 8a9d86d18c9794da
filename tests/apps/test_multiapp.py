"""Multi-application runs end to end through the public front door."""

import pytest

from repro import simulate
from repro.apps import Application, MultiAppEngine
from repro.errors import ProtocolError
from repro.platform.faults import CrashEvent, FaultSchedule, chaos_schedule
from repro.platform.generator import TreeGeneratorParams, generate_tree
from repro.platform.graph import PlatformGraph, generate_platform
from repro.protocols import ProtocolConfig
from repro.protocols.engine import ProtocolEngine
from repro.protocols.graph_engine import GraphFaultDriver, GraphProtocolEngine
from repro.sim.warp import (REASON_CONTENTION, REASON_GRAPH_FAULTS,
                            REASON_MULTI_APP, STAND_DOWN_REASONS)

SMALL = TreeGeneratorParams(min_nodes=12, max_nodes=18)
CONFIG = ProtocolConfig.interruptible(3)


def _two_apps(tasks=60):
    return [Application(tasks, name="alpha", priority=0),
            Application(tasks, name="beta", priority=1)]


class TestTwoAppRun:
    @pytest.fixture(scope="class")
    def result(self):
        tree = generate_tree(SMALL, seed=11)
        return simulate(tree, _two_apps(), CONFIG, allocator="selfish")

    def test_per_app_slices(self, result):
        assert [a.name for a in result.apps] == ["alpha", "beta"]
        assert all(len(a.completion_times) == 60 for a in result.apps)
        assert all(a.steady_rate > 0 for a in result.apps)

    def test_merged_result_is_consistent(self, result):
        assert len(result.completion_times) == 120
        assert result.num_tasks == 120
        assert result.makespan == max(a.makespan for a in result.apps)
        assert sum(result.per_node_computed) == 120

    def test_fairness_metrics(self, result):
        assert 0 < result.jain_index <= 1.0
        assert result.cooperative_rate > 0
        assert result.price_of_anarchy is not None
        assert result.price_of_anarchy > 0

    def test_fingerprint_covers_app_slices(self, result):
        # N > 1 folds per-app parts in: dropping them must change it.
        import dataclasses

        stripped = dataclasses.replace(result, apps=result.apps[:1])
        assert stripped.fingerprint() != result.fingerprint()


def test_staggered_arrival_starts_late():
    tree = generate_tree(SMALL, seed=11)
    apps = [Application(60, name="early"),
            Application(60, name="late", arrival=500)]
    result = simulate(tree, apps, CONFIG, allocator="maxmin")
    late = result.apps[1]
    assert min(late.completion_times) > 500
    assert late.duration == late.makespan - 500


def test_n1_result_carries_app_slice():
    tree = generate_tree(seed=3)
    result = MultiAppEngine(tree, Application(120),
                            ProtocolConfig.interruptible(3)).run()
    assert len(result.apps) == 1
    assert result.apps[0].app.tasks == 120
    assert result.cooperative_rate is not None
    # Degenerate runs stay out of the fairness metrics.
    assert result.jain_index is None


def test_allocator_default_is_platform_contention():
    tree = generate_tree(SMALL, seed=11)
    engine = MultiAppEngine(tree, _two_apps(), CONFIG)
    # PlatformGraph.from_tree defaults to maxmin.
    assert engine.allocator == "maxmin"


class TestFrontDoorValidation:
    def test_mutations_rejected_for_multi_app(self):
        from repro.platform.mutation import Mutation, MutationSchedule

        tree = generate_tree(SMALL, seed=11)
        mutations = MutationSchedule(
            [Mutation(node=1, attribute="w", value=tree.w[1], at_time=50)])
        with pytest.raises(ProtocolError, match="single-application"):
            simulate(tree, _two_apps(), CONFIG, mutations=mutations)

    def test_faults_now_run_for_multi_app(self):
        # PR-8 replaced the old rejection with a shared GraphFaultDriver.
        tree = generate_tree(SMALL, seed=11)
        faults = FaultSchedule([CrashEvent(at_time=50, node=1)])
        result = simulate(tree, _two_apps(), CONFIG, faults=faults,
                          check_invariants=True)
        assert result.crashed_node_ids == (1,)
        assert sum(len(a.completion_times) for a in result.apps) \
            == result.num_tasks

    def test_route_refresh_looks_each_overlay_edge_up_once(self,
                                                          monkeypatch):
        # Three lanes share one overlay: a refresh must not repeat an
        # edge's lookup once per lane.
        lookups, refreshes = [], []
        route_or_none = PlatformGraph.route_or_none
        refresh_routes = GraphFaultDriver._refresh_routes

        def counting_route(graph, src, dst):
            lookups.append((src, dst))
            return route_or_none(graph, src, dst)

        def recording_refresh(driver, peer=None):
            start = len(lookups)
            refresh_routes(driver, peer)
            refreshes.append(lookups[start:])

        monkeypatch.setattr(PlatformGraph, "route_or_none", counting_route)
        monkeypatch.setattr(GraphFaultDriver, "_refresh_routes",
                            recording_refresh)
        platform = generate_platform("leafspine", seed=1)
        apps = [Application(15, name=f"app{i}", priority=i, arrival=i * 100)
                for i in range(3)]
        result = simulate(platform, apps, CONFIG,
                          faults=chaos_schedule(platform, seed=1017))
        assert sum(len(a.completion_times) for a in result.apps) == 45
        assert any(refreshes)
        assert all(len(edges) == len(set(edges)) for edges in refreshes)

    def test_allocator_rejected_for_single_app(self):
        tree = generate_tree(SMALL, seed=11)
        with pytest.raises(ProtocolError, match="allocator"):
            simulate(tree, 100, CONFIG, allocator="maxmin")

    def test_missing_config_is_an_error(self):
        tree = generate_tree(SMALL, seed=11)
        with pytest.raises(ProtocolError, match="ProtocolConfig"):
            simulate(tree, 100, None)

    def test_non_root_source_runs_rerooted(self):
        # Once a PR 7 rejection; bags now fan out from their source via
        # a re-rooted overlay (service-mode PR), trees included.
        tree = generate_tree(SMALL, seed=11)
        apps = [Application(10, source=2), Application(10)]
        result = simulate(tree, apps, CONFIG)
        assert sum(len(a.completion_times) for a in result.apps) == 20
        both_root = simulate(tree, [Application(10), Application(10)],
                             CONFIG)
        assert result.fingerprint() != both_root.fingerprint()

    def test_cooperative_rate_is_the_result_trees_optimum(self):
        """``cooperative_rate`` is Theorem 1 on the result's tree, read on
        demand.  A single app sourced off the root runs on the overlay
        re-rooted at its source, so its optimum is that tree's: 0.01835
        here, where an optimum of the root's overlay (0.01238) would
        describe a platform the app never ran on."""
        from fractions import Fraction

        from repro.steady_state import solve_tree

        tree = generate_tree(seed=1)
        root_optimum = Fraction(832288027922805917, 67231862642917426272)
        off_root = simulate(tree, [Application(40, source=2)], CONFIG)
        assert off_root.cooperative_rate == solve_tree(off_root.tree).rate
        assert float(off_root.cooperative_rate) == pytest.approx(
            0.018349738344549265, rel=1e-12)
        for apps, anarchy in (
                ([Application(40)], 10.127276000266765),
                ([Application(40, source=2), Application(40)],
                 8.693830168160535)):
            result = simulate(tree, apps, CONFIG)
            assert result.cooperative_rate == root_optimum
            assert result.price_of_anarchy == pytest.approx(anarchy,
                                                            rel=1e-12)

    def test_unknown_source_rejected(self):
        tree = generate_tree(SMALL, seed=11)
        with pytest.raises(Exception, match="host"):
            simulate(tree, [Application(10, source=999),
                            Application(10)], CONFIG)

    def test_tracer_count_must_match_apps(self):
        from repro.protocols import Tracer

        tree = generate_tree(SMALL, seed=11)
        with pytest.raises(ProtocolError, match="tracers"):
            simulate(tree, _two_apps(), CONFIG, tracer=[Tracer()])


class TestWarpStandDown:
    def test_multi_app_reports_the_shared_constant(self):
        tree = generate_tree(SMALL, seed=11)
        config = ProtocolConfig.interruptible(3, warp=True)
        result = simulate(tree, _two_apps(20), config)
        assert result.warp is not None
        assert not result.warp.applied
        assert result.warp.reason == REASON_MULTI_APP

    def test_engines_use_the_shared_reason_set(self):
        """Satellite contract: every engine's stand-down string comes
        from the one constant set in ``repro.sim.warp``."""
        assert ProtocolEngine._warp_stand_down in STAND_DOWN_REASONS
        assert GraphProtocolEngine._warp_stand_down in STAND_DOWN_REASONS
        tree = generate_tree(SMALL, seed=11)
        lanes = MultiAppEngine(tree, _two_apps(), CONFIG).lanes
        assert [lane._warp_stand_down for lane in lanes] \
            == [REASON_MULTI_APP, REASON_MULTI_APP]

    def test_graph_result_shape_follows_the_workload(self):
        """A plain count on a graph is one lane with no app slice; one
        explicit application adds the slice and the cooperative rate."""
        from repro.platform import EdgeFailureEvent, EdgeRepairEvent
        from repro.platform.graph import generate_platform

        graph = generate_platform("star", seed=7)
        config = ProtocolConfig.interruptible(3, warp=True)
        plain = simulate(graph, 60, config)
        assert plain.apps == () and plain.cooperative_rate is None
        assert plain.warp.reason == REASON_CONTENTION
        faults = FaultSchedule([EdgeFailureEvent(at_time=10, link=0),
                                EdgeRepairEvent(at_time=60, link=0)])
        faulted = simulate(graph, 60, config, faults=faults)
        assert faulted.apps == () and faulted.cooperative_rate is None
        assert faulted.warp.reason == REASON_GRAPH_FAULTS
        one = simulate(graph, Application(60), config)
        assert len(one.apps) == 1 and one.cooperative_rate is not None
        assert one.warp.reason == REASON_MULTI_APP
        assert one.fingerprint() == plain.fingerprint()

    def test_contended_graph_reason_is_in_the_set(self):
        from repro.platform.graph import generate_platform

        graph = generate_platform("leafspine", seed=7)
        config = ProtocolConfig.interruptible(3, warp=True)
        result = simulate(graph, 100, config)
        assert result.warp.reason in STAND_DOWN_REASONS
