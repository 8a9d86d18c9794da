"""Run-time invariant checks on agent state, verified after every event.

The buffer ledger of §3 must balance at all times:
``buffers_total == tasks_held + requested + incoming`` for every non-root
node, and a parent's aggregate request counter must equal the sum of its
children's outstanding requests.  The ``watch_calendar`` fixture verifies
it before every processed calendar entry.
"""

import pytest

from repro import simulate
from repro.platform import (ChurnSchedule, JoinEvent, LeaveEvent, Mutation,
                            MutationSchedule, PlatformTree, figure1_tree,
                            figure2a_tree)
from repro.platform.faults import chaos_schedule
from repro.platform.generator import TreeGeneratorParams, generate_tree
from repro.platform.graph import generate_platform
from repro.protocols import ProtocolConfig, ProtocolEngine


def check_eligible_order(node):
    """The send port's masks hold exactly the unsuspected requesting and
    shelved children, at the ranks of the priority order."""
    requests = shelved = 0
    order = node.sorted_children
    for rank, child in enumerate(order):
        assert child.prio_bit == 1 << (len(order) - 1 - rank)
        if child.id in node.suspect:
            continue
        if child.requested > 0:
            requests |= child.prio_bit
        if child.id in node.shelf:
            shelved |= child.prio_bit
    assert node.request_mask == requests, f"node {node.id}"
    assert node.shelf_mask == shelved, f"node {node.id}"


class InvariantChecker:
    def __init__(self, engine):
        self.engine = engine
        self.checks = 0

    def __call__(self, time, item):
        for node in self.engine.nodes:
            if not node.is_root:
                ledger = node.tasks_held + node.requested + node.incoming
                assert node.buffers_total == ledger, (
                    f"node {node.id} at t={time}: buffers={node.buffers_total} "
                    f"held={node.tasks_held} requested={node.requested} "
                    f"incoming={node.incoming}")
                assert node.undispensed == 0
            assert node.tasks_held >= 0
            assert node.incoming >= 0
            assert node.child_requests == sum(
                ch.requested for ch in node.children)
            if node.current_transfer is not None:
                assert node.current_transfer.remaining > 0
            for child_id in node.shelf:
                assert node.shelf[child_id].remaining > 0
            check_eligible_order(node)
        self.checks += 1


def run_checked(watch_calendar, tree, config, num_tasks):
    engine = ProtocolEngine(tree, config, num_tasks)
    checker = InvariantChecker(engine)
    watch_calendar(engine.env, checker)
    result = engine.run()
    assert checker.checks > 0
    return result


CONFIGS = [
    ProtocolConfig.interruptible(1),
    ProtocolConfig.interruptible(3),
    ProtocolConfig.non_interruptible(),
    ProtocolConfig.non_interruptible(2, buffer_growth=False),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
class TestInvariants:
    def test_figure1(self, watch_calendar, config):
        run_checked(watch_calendar, figure1_tree(), config, 300)

    def test_figure2a(self, watch_calendar, config):
        run_checked(watch_calendar, figure2a_tree(parent_w=20), config, 300)

    def test_random_trees(self, watch_calendar, config):
        params = TreeGeneratorParams(min_nodes=5, max_nodes=30,
                                     max_comm=10, max_comp=50)
        for seed in (1, 2, 3):
            run_checked(watch_calendar, generate_tree(params, seed=seed),
                        config, 150)


class TestFinalState:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
    def test_everything_quiescent_at_end(self, config):
        engine = ProtocolEngine(figure1_tree(), config, 200)
        engine.run()
        for node in engine.nodes:
            assert node.tasks_held == 0
            assert node.incoming == 0
            assert not node.cpu_busy
            assert node.current_transfer is None
            assert not node.shelf
            assert node.undispensed == 0


class _OrderChecker:
    """Checks every alive agent's eligible order before each event of
    the calendar of every engine built while it is installed."""

    def __init__(self, monkeypatch, watch_calendar):
        self.engines = []
        self.checks = 0
        checker = self
        build = ProtocolEngine._build_agents

        def watched_build(engine):
            build(engine)
            checker.engines.append(engine)
            watch_calendar(engine.env, checker)

        monkeypatch.setattr(ProtocolEngine, "_build_agents", watched_build)

    def __call__(self, time, timer):
        for engine in self.engines:
            for node in engine.nodes:
                if node.alive:
                    check_eligible_order(node)
        self.checks += 1


class TestEligibleOrderUnderChange:
    """Faults, churn, mutations and routed graph faults each move
    children in and out of the eligible order; it stays exact."""

    @pytest.mark.parametrize("config", [
        ProtocolConfig.interruptible(3), ProtocolConfig.non_interruptible()],
        ids=lambda c: c.label)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tree_faults(self, monkeypatch, watch_calendar, config, seed):
        checker = _OrderChecker(monkeypatch, watch_calendar)
        tree = generate_tree(TreeGeneratorParams(min_nodes=8, max_nodes=20,
                                                 max_comm=10, max_comp=60),
                             seed=seed)
        result = simulate(tree, 300, config,
                          faults=chaos_schedule(tree, seed=seed, events=6))
        assert checker.checks > 0 and result.reclaim_times

    def test_churn_and_mutations(self, monkeypatch, watch_calendar):
        checker = _OrderChecker(monkeypatch, watch_calendar)
        joiner = PlatformTree([4, 2, 3], [(0, 1, 1), (0, 2, 2)])
        churn = ChurnSchedule([
            JoinEvent(at_time=30, parent=1, subtree=joiner, attach_cost=2),
            LeaveEvent(at_time=90, node=3)])
        mutations = MutationSchedule([
            Mutation(node=2, attribute="c", value=9, at_time=50),
            Mutation(node=4, attribute="c", value=1, at_time=70)])
        simulate(figure1_tree(), 400, ProtocolConfig.interruptible(3),
                 churn=churn, mutations=mutations)
        assert checker.checks > 0

    def test_graph_faults(self, monkeypatch, watch_calendar):
        checker = _OrderChecker(monkeypatch, watch_calendar)
        graph = generate_platform("leafspine", seed=7)
        simulate(graph, 200, ProtocolConfig.interruptible(3),
                 faults=chaos_schedule(graph, seed=11, events=6))
        assert checker.checks > 0
