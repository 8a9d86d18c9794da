"""Tests for dynamic node churn: live joins and graceful departures."""

from fractions import Fraction

import pytest

from repro import simulate
from repro.errors import PlatformError, ProtocolError
from repro.platform import (
    ChurnSchedule,
    JoinEvent,
    LeaveEvent,
    PlatformTree,
    figure1_tree,
)
from repro.protocols import PriorityRule, ProtocolConfig, ProtocolEngine
from repro.steady_state import solve_tree

IC3 = ProtocolConfig.interruptible(3)


def fast_worker(w=2):
    """A single-node subtree: one fast worker."""
    return PlatformTree.single_node(w)


def tail_rate(result, skip):
    times = result.completion_times
    return Fraction(len(times) - skip, times[-1] - times[skip - 1])


class TestEventValidation:
    def test_join_validation(self):
        with pytest.raises(PlatformError):
            JoinEvent(at_time=-1, parent=0, subtree=fast_worker(), attach_cost=1)
        with pytest.raises(PlatformError):
            JoinEvent(at_time=0, parent=-1, subtree=fast_worker(), attach_cost=1)
        with pytest.raises(PlatformError):
            JoinEvent(at_time=0, parent=0, subtree="nope", attach_cost=1)
        with pytest.raises(PlatformError):
            JoinEvent(at_time=0, parent=0, subtree=fast_worker(), attach_cost=0)

    def test_leave_validation(self):
        with pytest.raises(PlatformError):
            LeaveEvent(at_time=-1, node=1)
        with pytest.raises(PlatformError):
            LeaveEvent(at_time=0, node=-1)

    def test_schedule_rejects_root_leave(self):
        sched = ChurnSchedule([LeaveEvent(at_time=5, node=0)])
        with pytest.raises(PlatformError):
            sched.validate(figure1_tree())

    def test_schedule_rejects_impossible_leave_target(self):
        sched = ChurnSchedule([LeaveEvent(at_time=5, node=99)])
        with pytest.raises(PlatformError):
            sched.validate(figure1_tree())

    def test_schedule_allows_leave_of_joined_node(self):
        sched = ChurnSchedule([
            JoinEvent(at_time=5, parent=0, subtree=fast_worker(), attach_cost=1),
            LeaveEvent(at_time=50, node=8),  # the node joined above
        ])
        sched.validate(figure1_tree())

    def test_events_sorted_by_time(self):
        sched = ChurnSchedule([
            LeaveEvent(at_time=50, node=1),
            JoinEvent(at_time=5, parent=0, subtree=fast_worker(), attach_cost=1),
        ])
        assert [e.at_time for e in sched] == [5, 50]

    def test_fifo_with_churn_rejected(self):
        cfg = ProtocolConfig.non_interruptible(priority_rule=PriorityRule.FIFO)
        sched = ChurnSchedule([LeaveEvent(at_time=5, node=1)])
        with pytest.raises(ProtocolError):
            ProtocolEngine(figure1_tree(), cfg, 10, churn=sched)


class TestJoin:
    def test_joined_worker_computes(self):
        sched = ChurnSchedule([
            JoinEvent(at_time=50, parent=0, subtree=fast_worker(2),
                      attach_cost=1)])
        result = simulate(figure1_tree(), 1000, IC3, churn=sched)
        assert result.tree.num_nodes == 9
        assert result.per_node_computed[8] > 0
        assert sum(result.per_node_computed) == 1000

    def test_throughput_rises_toward_new_optimal(self):
        base_tree = figure1_tree()
        grown_tree = base_tree.copy()
        grown_tree.attach_subtree(0, fast_worker(2), cost=1)
        new_optimal = solve_tree(grown_tree).rate
        assert new_optimal > solve_tree(base_tree).rate

        sched = ChurnSchedule([
            JoinEvent(at_time=50, parent=0, subtree=fast_worker(2),
                      attach_cost=1)])
        result = simulate(base_tree, 2000, IC3, churn=sched)
        rate = tail_rate(result, skip=600)
        assert abs(float(rate / new_optimal) - 1) < 0.05

    def test_join_whole_subtree(self):
        subtree = PlatformTree([4, 2, 3], [(0, 1, 1), (0, 2, 2)])
        sched = ChurnSchedule([
            JoinEvent(at_time=30, parent=1, subtree=subtree, attach_cost=2)])
        result = simulate(figure1_tree(), 800, IC3, churn=sched)
        assert result.tree.num_nodes == 11
        assert result.tree.parent[8] == 1
        assert result.tree.parent[9] == 8 and result.tree.parent[10] == 8
        assert sum(result.per_node_computed) == 800

    def test_join_under_joined_node(self):
        sched = ChurnSchedule([
            JoinEvent(at_time=30, parent=0, subtree=fast_worker(3),
                      attach_cost=1),
            JoinEvent(at_time=60, parent=8, subtree=fast_worker(2),
                      attach_cost=1),
        ])
        result = simulate(figure1_tree(), 1000, IC3, churn=sched)
        assert result.tree.num_nodes == 10
        assert result.tree.parent[9] == 8
        assert sum(result.per_node_computed) == 1000

    def test_join_under_unknown_node_fails(self):
        sched = ChurnSchedule([
            JoinEvent(at_time=30, parent=42, subtree=fast_worker(),
                      attach_cost=1)])
        with pytest.raises(ProtocolError):
            simulate(figure1_tree(), 500, IC3, churn=sched)


class TestLeave:
    def test_no_work_lost_on_departure(self):
        sched = ChurnSchedule([LeaveEvent(at_time=100, node=1)])
        result = simulate(figure1_tree(), 1000, IC3, churn=sched)
        assert sum(result.per_node_computed) == 1000
        assert result.departed_node_ids == (1,)

    def test_subtree_departs_together(self):
        sched = ChurnSchedule([LeaveEvent(at_time=100, node=5)])
        result = simulate(figure1_tree(), 1000, IC3, churn=sched)
        assert set(result.departed_node_ids) == {5, 6, 7}

    def test_throughput_drops_toward_reduced_optimal(self):
        base_tree = figure1_tree()
        reduced_optimal = solve_tree(base_tree.pruned(1)).rate
        assert reduced_optimal < solve_tree(base_tree).rate

        sched = ChurnSchedule([LeaveEvent(at_time=100, node=1)])
        result = simulate(base_tree, 2000, IC3, churn=sched)
        rate = tail_rate(result, skip=800)
        assert abs(float(rate / reduced_optimal) - 1) < 0.05

    def test_departed_node_computes_nothing_after_drain(self):
        """The departed node's compute count freezes once it drains."""
        sched = ChurnSchedule([LeaveEvent(at_time=100, node=1)])
        engine = ProtocolEngine(figure1_tree(), IC3, 1500, churn=sched)
        result = engine.run()
        node = engine.nodes[1]
        assert node.tasks_held == 0 and node.incoming == 0
        assert node.requested == 0
        # It computed some tasks early, far fewer than the ~2/3 share it
        # takes in the steady optimal schedule.
        assert 0 < result.per_node_computed[1] < 300

    def test_leave_before_its_join_rejected_statically(self):
        # The leave fires before the join that would create node 8, so the
        # schedule validator rejects it outright.
        sched = ChurnSchedule([
            JoinEvent(at_time=10, parent=0, subtree=fast_worker(),
                      attach_cost=1),
            LeaveEvent(at_time=5, node=8),  # fires before the join!
        ])
        with pytest.raises(PlatformError):
            simulate(figure1_tree(), 500, IC3, churn=sched)

    def test_join_under_departed_node_fails(self):
        sched = ChurnSchedule([
            LeaveEvent(at_time=10, node=5),
            JoinEvent(at_time=20, parent=5, subtree=fast_worker(),
                      attach_cost=1),
        ])
        with pytest.raises(ProtocolError):
            simulate(figure1_tree(), 500, IC3, churn=sched)


class TestChurnStorm:
    def test_many_events_conserve_tasks(self):
        """A volatile pool: joins and leaves interleaved, nothing lost."""
        events = []
        next_id = 8
        for i in range(6):
            events.append(JoinEvent(at_time=40 * (i + 1), parent=0,
                                    subtree=fast_worker(2 + i),
                                    attach_cost=1 + i % 3))
            next_id += 1
        events.append(LeaveEvent(at_time=100, node=2))
        events.append(LeaveEvent(at_time=150, node=8))
        events.append(LeaveEvent(at_time=260, node=10))
        result = simulate(figure1_tree(), 2000, IC3,
                          churn=ChurnSchedule(events))
        assert sum(result.per_node_computed) == 2000
        assert set(result.departed_node_ids) == {2, 3, 4, 8, 10}

    def test_invariants_hold_under_churn(self, watch_calendar):
        events = [
            JoinEvent(at_time=50, parent=0, subtree=fast_worker(2),
                      attach_cost=1),
            LeaveEvent(at_time=120, node=1),
            JoinEvent(at_time=200, parent=5, subtree=fast_worker(4),
                      attach_cost=2),
        ]
        engine = ProtocolEngine(figure1_tree(), IC3, 1200,
                                churn=ChurnSchedule(events))

        def check(time, item):
            for node in engine.nodes:
                if not node.is_root:
                    assert node.buffers_total == (
                        node.tasks_held + node.requested + node.incoming)
                assert node.child_requests == sum(
                    ch.requested for ch in node.children)

        watch_calendar(engine.env, check)
        result = engine.run()
        assert sum(result.per_node_computed) == 1200
