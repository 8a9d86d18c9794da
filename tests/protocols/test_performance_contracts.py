"""Performance contracts: the engine must stay fast enough for ensembles.

Not micro-benchmarks (those live in ``benchmarks/``) but hard ceilings on
algorithmic behaviour — event counts and memory shape — that would
silently blow up ensemble experiments if a change made them quadratic.
"""

import pytest

from repro import simulate
from repro.platform import PlatformTree, generate_tree
from repro.platform.generator import TreeGeneratorParams
from repro.platform.faults import (EdgeFailureEvent, EdgeRepairEvent,
                                   chaos_schedule)
from repro.platform.graph import generate_platform
from repro.apps import MultiAppEngine
from repro.protocols import ProtocolConfig

IC3 = ProtocolConfig.interruptible(3)


class TestEventComplexity:
    def test_events_linear_in_tasks(self):
        """Calendar entries per task must be bounded (no re-queueing storms)."""
        tree = generate_tree(seed=3)
        small = simulate(tree, 500, IC3)
        large = simulate(tree, 2000, IC3)
        per_task_small = small.events_processed / 500
        per_task_large = large.events_processed / 2000
        # Amortized entries per task must not grow with the task count.
        assert per_task_large <= per_task_small * 1.5 + 2
        # And stay modest in absolute terms (compute + a few transfer hops).
        assert per_task_large < 60

    def test_events_bounded_on_star(self):
        """A 300-child star must not devolve into per-request rescans that
        multiply events: entries stay linear in tasks."""
        n = 300
        tree = PlatformTree([10**6] + [5] * (n - 1),
                            [(0, i, 1 + i % 7) for i in range(1, n)])
        result = simulate(tree, 600, IC3)
        assert result.events_processed < 600 * 30

    def test_preemptions_bounded_per_task(self):
        """Each delivered task can trigger at most a handful of preemptions
        (one per strictly-better child appearing mid-transfer)."""
        tree = generate_tree(seed=11)
        result = simulate(tree, 1500, IC3)
        assert result.preemptions < 6 * 1500


class TestMemoryShape:
    def test_result_size_independent_of_makespan(self):
        """Only per-node arrays and one entry per completion are retained —
        a long virtual run must not retain per-event state."""
        tree = PlatformTree.fork(10**6, [(1, 10**4), (2, 10**4)])
        result = simulate(tree, 50, IC3)  # huge makespan, tiny run
        assert len(result.completion_times) == 50
        assert len(result.per_node_computed) == 3
        assert result.buffer_high_water_at_completion == ()

    def test_warped_timelines_store_one_period(self):
        """A warped run keeps each timeline as the records before the warp,
        one template period and the tail: the values it stores do not grow
        with the periods it skipped."""
        tree = generate_tree(TreeGeneratorParams(
            min_nodes=60, max_nodes=60, max_comm=8, max_comp=16,
            comp_divisor=16), seed=1)
        result = simulate(tree, 50_000,
                          ProtocolConfig.interruptible(3, warp=True),
                          record_buffer_timeline=True)
        warp = result.warp
        assert warp.applied and warp.periods > 1000
        for timeline in (result.completion_times,
                         result.buffer_high_water_at_completion,
                         result.held_high_water_at_completion):
            assert len(timeline) == 50_000
            stored = (len(timeline.head) + len(timeline.template)
                      + len(timeline.tail))
            assert stored <= (warp.warp_completed + warp.period_tasks
                              + len(timeline.tail))
            assert stored < 1000

    def test_ic_shelf_bounded_by_children(self):
        from repro.protocols import ProtocolEngine

        tree = generate_tree(seed=7)
        engine = ProtocolEngine(tree, IC3, 400)
        max_shelf = [0]

        def watch(time, item):
            for node in engine.nodes:
                if len(node.shelf) > max_shelf[0]:
                    max_shelf[0] = len(node.shelf)
                assert len(node.shelf) <= len(node.children)

        engine.env.trace_hook = watch
        engine.run()
        assert max_shelf[0] >= 1  # shelving actually happened


class TestRoutingWork:
    def test_route_refresh_costs_what_the_fault_touches(self):
        """Routed faults keep the cached shortest-path searches that stay
        exact: the chaos chain cell settles less than one platform's worth
        of nodes per link fault (516 for 8 faults on 78 nodes), where
        clearing the whole route cache on each fault settled 36,868."""
        graph = generate_platform("chain", seed=1)
        schedule = chaos_schedule(graph, seed=1017, events=6)
        faults = sum(isinstance(e, (EdgeFailureEvent, EdgeRepairEvent))
                     for e in schedule.events)
        engine = MultiAppEngine(graph, 45, IC3, faults=schedule)
        engine.run()
        assert faults == 8
        assert engine.graph.nodes_settled <= faults * graph.num_nodes
