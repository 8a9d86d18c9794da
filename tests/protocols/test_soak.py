"""Soak test: every dynamic feature active in one long run.

Mutations, churn (join + graceful leave), buffer growth *and* decay, and a
tracer all run together on a mid-sized random platform, with the ledger
invariant checked after every calendar entry.  If feature interactions
corrupt any state, this is where it shows.
"""

import pytest

from repro.platform import (
    ChurnSchedule,
    JoinEvent,
    LeaveEvent,
    Mutation,
    MutationSchedule,
    PlatformTree,
    generate_tree,
)
from repro.platform.generator import TreeGeneratorParams
from repro.protocols import ProtocolConfig, ProtocolEngine, Tracer
from repro.protocols import trace as tr

NUM_TASKS = 1500


@pytest.fixture(scope="module")
def soak_engine(watch_calendar):
    tree = generate_tree(
        TreeGeneratorParams(min_nodes=60, max_nodes=120), seed=21)
    root_children = tree.children[tree.root]
    mutations = MutationSchedule([
        Mutation(node=root_children[0], attribute="c", value=50,
                 after_tasks=300),
        Mutation(node=root_children[0], attribute="c", value=2,
                 after_tasks=900),
        Mutation(node=root_children[-1], attribute="w", value=3,
                 after_tasks=600),
    ])
    churn = ChurnSchedule([
        JoinEvent(at_time=500, parent=tree.root,
                  subtree=PlatformTree([4, 2], [(0, 1, 1)]), attach_cost=1),
        LeaveEvent(at_time=2000, node=root_children[len(root_children) // 2]),
    ])
    config = ProtocolConfig.non_interruptible(buffer_decay=True)
    engine = ProtocolEngine(tree, config, NUM_TASKS,
                            mutations=mutations, churn=churn,
                            record_buffer_timeline=True)
    tracer = Tracer(limit=200_000)
    engine.sinks.append(tracer)

    checks = [0]

    def invariant(time, item):
        checks[0] += 1
        if checks[0] % 7:  # sample to keep the soak fast
            return
        for node in engine.nodes:
            if not node.is_root:
                assert node.buffers_total == (
                    node.tasks_held + node.requested + node.incoming)
            assert node.child_requests == sum(
                ch.requested for ch in node.children)

    watch_calendar(engine.env, invariant)
    result = engine.run()
    return engine, tracer, result


class TestSoak:
    def test_all_tasks_conserved(self, soak_engine):
        _engine, _tracer, result = soak_engine
        assert sum(result.per_node_computed) == NUM_TASKS

    def test_mutations_applied(self, soak_engine):
        engine, _tracer, result = soak_engine
        first_child = result.tree.children[result.tree.root][0]
        assert result.tree.c[first_child] == 2  # last mutation won

    def test_churn_happened(self, soak_engine):
        engine, tracer, result = soak_engine
        assert len(result.departed_node_ids) >= 1
        joined = result.tree.num_nodes
        assert result.per_node_computed[joined - 1] >= 0  # joined node exists
        assert tracer.count(tr.MUTATION) == 3

    def test_growth_and_decay_both_fired(self, soak_engine):
        _engine, tracer, result = soak_engine
        assert tracer.count(tr.GROW) > 0
        assert result.buffers_decayed > 0

    def test_quiescent_at_end(self, soak_engine):
        engine, _tracer, _result = soak_engine
        for node in engine.nodes:
            assert node.tasks_held == 0
            assert node.incoming == 0
            assert not node.cpu_busy
            assert node.current_transfer is None
            assert not node.shelf

    def test_timelines_consistent(self, soak_engine):
        _engine, _tracer, result = soak_engine
        assert len(result.buffer_high_water_at_completion) == NUM_TASKS
        assert result.held_high_water_at_completion[-1] == result.max_held
