"""Fault injection and autonomous recovery (crashes, link outages)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import simulate
from repro.errors import PlatformError, ProtocolError
from repro.metrics.faults import (post_recovery_rate, recovery_latencies,
                                  recovery_report)
from repro.platform import (ChurnSchedule, CrashEvent, EdgeFailureEvent,
                            FaultSchedule, JoinEvent, LeaveEvent,
                            LinkFailureEvent, LinkRepairEvent, Mutation,
                            MutationSchedule, PlatformGraph, PlatformTree,
                            figure1_tree, figure2a_tree)
from repro.platform.generator import (PAPER_DEFAULTS, TreeGeneratorParams,
                                      generate_tree)
from repro.protocols import PriorityRule, ProtocolConfig, ProtocolEngine
from repro.protocols import trace as trace_mod
from repro.protocols.trace import Tracer
from repro.steady_state import solve_tree

IC3 = ProtocolConfig.interruptible(3)
NON_IC = ProtocolConfig.non_interruptible()
SMALL = TreeGeneratorParams(min_nodes=2, max_nodes=20, max_comm=10,
                            max_comp=60)

#: The headline scenario: node 2 of the Figure 1 platform crashes mid-run
#: (its children 3 and 4 are cut off and finish only what they hold) and
#: node 5's parent link drops for a while, killing whatever was in flight.
ACCEPTANCE_FAULTS = FaultSchedule([
    CrashEvent(at_time=80, node=2),
    LinkFailureEvent(at_time=60, node=5),
    LinkRepairEvent(at_time=220, node=5),
])


class TestAcceptance:
    def test_crash_and_outage_still_completes_everything(self):
        result = simulate(figure1_tree(), 2000, IC3, faults=ACCEPTANCE_FAULTS)
        assert len(result.completion_times) == 2000
        assert sum(result.per_node_computed) == 2000
        assert result.tasks_reexecuted > 0
        assert result.transfers_wasted > 0
        assert result.crashed_node_ids == (2,)
        assert result.crash_times == (80,)

    def test_post_recovery_rate_matches_surviving_tree(self):
        result = simulate(figure1_tree(), 2000, IC3, faults=ACCEPTANCE_FAULTS)
        surviving = result.surviving_tree()
        assert surviving.num_nodes == figure1_tree().num_nodes - 3
        optimal = solve_tree(surviving).rate
        achieved = post_recovery_rate(result)
        assert achieved is not None
        assert abs(float(achieved / optimal) - 1.0) <= 0.05

    def test_non_interruptible_also_recovers(self):
        result = simulate(figure1_tree(), 2000, NON_IC,
                          faults=ACCEPTANCE_FAULTS)
        assert len(result.completion_times) == 2000
        assert result.tasks_reexecuted > 0

    def test_recovery_report(self):
        result = simulate(figure1_tree(), 2000, IC3, faults=ACCEPTANCE_FAULTS)
        report = recovery_report(result)
        assert report.num_crashed_nodes == 1
        assert report.tasks_reexecuted == result.tasks_reexecuted
        assert report.recovery_latencies == tuple(recovery_latencies(result))
        assert all(lat > 0 for lat in report.recovery_latencies)
        assert report.post_recovery_efficiency is not None
        assert report.post_recovery_efficiency >= 0.95

    def test_trace_records_fault_lanes(self):
        engine = ProtocolEngine(figure1_tree(), IC3, 2000,
                                faults=ACCEPTANCE_FAULTS)
        tracer = Tracer()
        engine.tracer = tracer
        engine.run()
        assert tracer.count(trace_mod.CRASH) == 1
        # Node 5's outage, then orphans 3 and 4 parking: the crash took
        # their only links.
        assert tracer.count(trace_mod.LINK_DOWN) == 3
        assert tracer.count(trace_mod.LINK_UP) == 1
        assert tracer.count(trace_mod.SUSPECT) >= 1
        assert tracer.count(trace_mod.RECLAIM) >= 1
        # Reclaims carry the lost-instance count in the peer slot.
        reclaimed = sum(e.peer for e in tracer.events
                        if e.kind == trace_mod.RECLAIM)
        assert reclaimed == engine.tasks_reexecuted


class TestEmptyScheduleIsFree:
    """An empty FaultSchedule must not change a single calendar entry."""

    @pytest.mark.parametrize("config", [IC3, NON_IC],
                             ids=["IC/FB=3", "non-IC"])
    def test_figure1_bit_identical(self, config):
        base = simulate(figure1_tree(), 500, config)
        gated = simulate(figure1_tree(), 500, config, faults=FaultSchedule())
        assert gated.completion_times == base.completion_times
        assert gated.per_node_computed == base.per_node_computed
        assert gated.events_processed == base.events_processed

    def test_random_trees_bit_identical(self):
        for seed in range(5):
            tree = generate_tree(PAPER_DEFAULTS, seed=seed)
            base = simulate(tree, 400, IC3)
            gated = simulate(tree, 400, IC3, faults=FaultSchedule())
            assert gated.completion_times == base.completion_times
            assert gated.events_processed == base.events_processed

    def test_no_fault_result_reports_no_faults(self):
        result = simulate(figure1_tree(), 100, IC3)
        assert result.crashed_node_ids == ()
        assert result.tasks_reexecuted == 0
        assert result.transfers_wasted == 0
        assert result.surviving_tree() is result.tree


class TestRecoverySemantics:
    def test_crashed_nodes_stop_computing(self):
        result = simulate(figure1_tree(), 2000, IC3, faults=ACCEPTANCE_FAULTS)
        survivors = {0, 1, 5, 6, 7}
        lost_side = sum(result.per_node_computed[i] for i in (2, 3, 4))
        # The cut-off subtree only contributed what it finished before t=80
        # and what its parked orphans already held.
        assert lost_side < 2000 // 10
        assert sum(result.per_node_computed[i] for i in survivors) \
            == 2000 - lost_side

    def test_outage_only_is_transparent_to_conservation(self):
        faults = FaultSchedule([
            LinkFailureEvent(at_time=50, node=1),
            LinkRepairEvent(at_time=300, node=1),
        ])
        result = simulate(figure1_tree(), 1000, IC3, faults=faults)
        assert len(result.completion_times) == 1000
        assert result.crashed_node_ids == ()

    def test_quick_flap_repaired_before_detection(self):
        # Repair lands before the first probe (request_timeout=50), so the
        # parent may never even suspect the child.
        faults = FaultSchedule([
            LinkFailureEvent(at_time=100, node=5),
            LinkRepairEvent(at_time=110, node=5),
        ])
        result = simulate(figure1_tree(), 1000, IC3, faults=faults)
        assert len(result.completion_times) == 1000

    def test_long_outage_declares_dead_then_readmits(self):
        # Outage far longer than the full probe backoff (50+100+200):
        # the subtree is declared dead, then re-admitted on repair.
        faults = FaultSchedule([
            LinkFailureEvent(at_time=100, node=5),
            LinkRepairEvent(at_time=2000, node=5),
        ])
        engine = ProtocolEngine(figure1_tree(), IC3, 3000, faults=faults)
        tracer = Tracer()
        engine.tracer = tracer
        result = engine.run()
        assert len(result.completion_times) == 3000
        assert tracer.count(trace_mod.SUSPECT) >= 1
        assert tracer.count(trace_mod.READMIT) >= 1
        # Node 5's subtree survived the partition and computes again after.
        late = [e for e in tracer.events
                if e.kind == trace_mod.COMPUTE_DONE and e.node in (5, 6, 7)
                and e.time > 2000]
        assert late

    def test_crash_of_partitioned_subtree(self):
        # Node 2 is unreachable when it dies; no live parent can detect
        # the crash, so the loss must surface via the engine (probes
        # declare the silent child dead after max_retries).
        faults = FaultSchedule([
            LinkFailureEvent(at_time=40, node=2),
            CrashEvent(at_time=60, node=2),
        ])
        result = simulate(figure1_tree(), 1000, IC3, faults=faults)
        assert len(result.completion_times) == 1000
        assert result.crashed_node_ids == (2,)

    def test_post_crash_link_events_rejected(self):
        # A repair addressed to a node that already crashed would fire
        # against a dead subtree; validate() now rejects the schedule.
        faults = FaultSchedule([
            LinkFailureEvent(at_time=40, node=2),
            CrashEvent(at_time=60, node=2),
            LinkRepairEvent(at_time=400, node=2),
        ])
        with pytest.raises(PlatformError, match="after the node's crash"):
            simulate(figure1_tree(), 1000, IC3, faults=faults)

    def test_all_root_children_crash(self):
        faults = FaultSchedule([
            CrashEvent(at_time=50, node=1),
            CrashEvent(at_time=50, node=2),
            CrashEvent(at_time=50, node=5),
        ])
        result = simulate(figure1_tree(), 300, IC3, faults=faults)
        assert len(result.completion_times) == 300
        # Only the root is left; it must have finished the reclaimed work.
        assert result.per_node_computed[0] > 0
        assert result.surviving_tree().num_nodes == 1

    def test_timeout_knobs_change_detection_speed(self):
        fast = ProtocolConfig.interruptible(
            3, request_timeout=10, max_retries=2)
        slow = ProtocolConfig.interruptible(
            3, request_timeout=200, max_retries=3)
        # Node 1 is the root's cheapest child: it is always being served,
        # so a crash there is guaranteed to destroy in-system instances.
        faults = FaultSchedule([CrashEvent(at_time=80, node=1)])
        lat_fast = recovery_latencies(
            simulate(figure1_tree(), 2000, fast, faults=faults))
        lat_slow = recovery_latencies(
            simulate(figure1_tree(), 2000, slow, faults=faults))
        assert lat_fast and lat_slow
        assert max(lat_fast) < min(lat_slow)

    def test_faults_with_graceful_churn(self):
        churn = ChurnSchedule([
            JoinEvent(at_time=150, parent=0,
                      subtree=PlatformTree([2, 2], [(0, 1, 1)]),
                      attach_cost=1),
            LeaveEvent(at_time=300, node=1),
        ])
        result = simulate(figure1_tree(), 1500, IC3,
                          faults=ACCEPTANCE_FAULTS, churn=churn)
        assert len(result.completion_times) == 1500
        assert 1 in result.departed_node_ids

    def test_fifo_with_faults_rejected(self):
        config = ProtocolConfig.non_interruptible(
            3, buffer_growth=False, priority_rule=PriorityRule.FIFO)
        with pytest.raises(ProtocolError, match="FIFO"):
            simulate(figure1_tree(), 100, config,
                     faults=FaultSchedule([CrashEvent(at_time=10, node=1)]))

    def test_unknown_node_rejected_at_fire_time(self):
        faults = FaultSchedule([CrashEvent(at_time=10, node=99)])
        with pytest.raises(ProtocolError, match="unknown node"):
            simulate(figure1_tree(), 100, IC3, faults=faults)


class TestEventBound:
    """A fault costs events in proportion to what it disturbs, not to how
    long the run lasts after it: liveness sweeps run only while an
    unsuspected child is unreachable."""

    @pytest.mark.parametrize("routed, event", [
        (False, CrashEvent(at_time=150, node=2)),
        # Never repaired: the child stays suspected, then declared dead.
        (False, LinkFailureEvent(at_time=150, node=1)),
        # The same tree embedded as a graph takes the routed
        # GraphFaultDriver path, whose kicks and probe chains must stay
        # bounded too; a fabric link never repaired is a permanent
        # partition.
        (True, CrashEvent(at_time=150, node=2)),
        (True, LinkFailureEvent(at_time=150, node=1)),
        (True, EdgeFailureEvent(at_time=150, link=0)),
    ], ids=["crash", "permanent-link-failure", "routed-crash",
            "routed-permanent-link-failure", "routed-permanent-edge-failure"])
    def test_figure2a_long_tail(self, routed, event):
        # The root's last compute ends near t=1e9, so a sweep re-armed
        # every request_timeout until completion ran ~2e7 times per parent.
        platform = figure2a_tree()
        if routed:
            platform = PlatformGraph.from_tree(platform)
        result = simulate(platform, 2000, IC3, faults=FaultSchedule([event]))
        assert sum(result.per_node_computed) == 2000
        assert result.events_processed <= 3 * 2000

    @given(seed=st.integers(0, 10_000), num_tasks=st.integers(20, 150),
           crash=st.booleans(), at_time=st.integers(0, 3000),
           config=st.sampled_from([IC3, NON_IC]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_tree_single_fault(self, seed, num_tasks, crash, at_time,
                                      config, data):
        tree = generate_tree(SMALL, seed=seed)
        node = data.draw(st.integers(1, tree.num_nodes - 1), label="node")
        event = (CrashEvent if crash else LinkFailureEvent)(
            at_time=at_time, node=node)
        result = simulate(tree, num_tasks, config,
                          faults=FaultSchedule([event]),
                          check_invariants=True)
        assert sum(result.per_node_computed) == num_tasks
        assert len(result.completion_times) == num_tasks
        assert result.events_processed <= 20 * num_tasks


class TestDeterminism:
    """Mutations, churn, and faults landing at the same virtual time must
    resolve identically run after run."""

    def _run_once(self):
        tree = figure1_tree()
        mutations = MutationSchedule([
            Mutation(node=1, attribute="c", value=3, at_time=200),
            Mutation(node=5, attribute="w", value=1, at_time=200),
        ])
        churn = ChurnSchedule([
            JoinEvent(at_time=200, parent=0,
                      subtree=PlatformTree([2, 2], [(0, 1, 1)]),
                      attach_cost=1),
        ])
        faults = FaultSchedule([
            CrashEvent(at_time=200, node=2),
            LinkFailureEvent(at_time=200, node=7),
            LinkRepairEvent(at_time=500, node=7),
        ])
        return simulate(tree, 1200, IC3, mutations=mutations, churn=churn,
                        faults=faults)

    def test_same_time_mutation_churn_fault_is_deterministic(self):
        first = self._run_once()
        second = self._run_once()
        assert first.completion_times == second.completion_times
        assert first.per_node_computed == second.per_node_computed
        assert first.events_processed == second.events_processed
        assert first.crashed_node_ids == second.crashed_node_ids
        assert first.reclaim_times == second.reclaim_times
        assert len(first.completion_times) == 1200
