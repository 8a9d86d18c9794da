"""Performance contracts: the engine must stay fast enough for ensembles.

Not micro-benchmarks (those live in ``benchmarks/``) but hard ceilings on
algorithmic behaviour — event counts and memory shape — that would
silently blow up ensemble experiments if a change made them quadratic.
"""

import gc
import random
import tracemalloc

import pytest

from repro import simulate
from repro.platform import PlatformTree, generate_tree
from repro.platform.generator import TreeGeneratorParams
from repro.platform.faults import (EdgeFailureEvent, EdgeRepairEvent,
                                   chaos_schedule)
from repro.platform.graph import generate_platform
from repro.apps import Application, MultiAppEngine
from repro.platform.contention import LinkContention
from repro.protocols import ProtocolConfig, ProtocolEngine
from repro.protocols.agents import NodeAgent

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


class _InspectedOrder(list):
    """A child order that counts the children read out of it, by index or
    by iteration."""

    def __init__(self, children):
        super().__init__(children)
        self.inspected = 0

    def __getitem__(self, index):
        self.inspected += 1
        return list.__getitem__(self, index)

    def __iter__(self):
        for child in list.__iter__(self):
            self.inspected += 1
            yield child


class TestSendDecisionWork:
    """A send decision inspects a bounded number of children, counted,
    not timed: on a fork, the children the root's port reads per decision
    do not grow when the fan-out grows from 10 to 3,000."""

    @staticmethod
    def _inspected_per_decision(monkeypatch, leaves, config):
        rng = random.Random(1)
        tree = PlatformTree.fork(1000, [(rng.randint(1, 5),
                                         rng.randint(2000, 4000))
                                        for _ in range(leaves)])
        engine = ProtocolEngine(tree, config, max(2000, 2 * leaves))
        root = engine.nodes[tree.root]
        order = root.sorted_children = _InspectedOrder(root.sorted_children)
        decisions = [0]
        choose_next = NodeAgent._choose_next

        def counted(self):
            if self is root:
                decisions[0] += 1
            return choose_next(self)

        monkeypatch.setattr(NodeAgent, "_choose_next", counted)
        engine.run()
        assert decisions[0] > leaves
        return order.inspected / decisions[0]

    @pytest.mark.parametrize("config", [
        IC3, ProtocolConfig.non_interruptible(2, buffer_growth=False)],
        ids=["ic-fb3", "non-ic-ib2"])
    def test_inspected_children_independent_of_fan_out(self, monkeypatch,
                                                       config):
        wide = self._inspected_per_decision(monkeypatch, 3000, config)
        narrow = self._inspected_per_decision(monkeypatch, 10, config)
        assert wide <= 3 and narrow <= 3


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

    def test_exact_timeline_costs_eight_bytes_a_task(self):
        """An exact run with int times keeps its completion timeline in an
        ``array('q')``: recording it retains at most 9 bytes a task (8 and
        the array's growth slack), where a tuple of ints took ~46."""
        tasks = 100_000
        tree = PlatformTree.single_node(3)  # one event a task

        def retained(record: bool) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = simulate(tree, tasks, IC3,
                                  record_completion_times=record)
                gc.collect()
                kept = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert len(result.completion_times) == (tasks if record else 0)
            return kept

        simulate(tree, 10, IC3)  # lazy imports land outside the count
        cost = retained(True) - retained(False)
        assert 8 * tasks <= cost <= 9 * tasks

    def test_ic_shelf_bounded_by_children(self, watch_calendar):
        from repro.protocols import ProtocolEngine

        tree = generate_tree(seed=7)
        engine = ProtocolEngine(tree, IC3, 400)
        max_shelf = [0]

        def watch(time, item):
            for node in engine.nodes:
                if len(node.shelf) > max_shelf[0]:
                    max_shelf[0] = len(node.shelf)
                assert len(node.shelf) <= len(node.children)

        watch_calendar(engine.env, watch)
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


class _ContentionWork:
    """Counting wrappers on :class:`LinkContention`'s internals.

    Every ``start``, settle, closure, solve and route-table build is
    checked as it happens; nothing is timed.
    """

    def __init__(self, monkeypatch):
        self.closures = 0
        self.solves = 0
        self.exclusive_starts = 0
        self.one_flow_settles = 0
        self.share_settles = 0
        #: Flows the current fair-share settle computed rates for.
        self.visited = set()
        #: (manager id, capacity epoch, route) → route-table builds.
        self.dedupes = {}
        self.epochs = {}
        self._wrap(monkeypatch)

    def _wrap(self, monkeypatch):
        work = self
        start = LinkContention.start
        settle = LinkContention._settle
        closure = LinkContention._closure
        solve = LinkContention._solve
        route = LinkContention._route
        set_capacity = LinkContention.set_capacity
        shares_of = LinkContention._shares_of

        def counted_start(self, fid, route, *args, **kwargs):
            exclusive = all(link not in self._link_flows for link in route)
            before = (work.closures, work.solves)
            updates = start(self, fid, route, *args, **kwargs)
            if exclusive:
                work.exclusive_starts += 1
                assert (work.closures, work.solves) == before
            return updates

        def counted_settle(self, seeds, now):
            crossing = {fid for link in seeds
                        for fid in self._link_flows.get(link, ())}
            dirty = self.dirty_flows
            before = (work.closures, work.solves)
            work.visited.clear()
            updates = settle(self, seeds, now)
            if self.dirty_flows - dirty == 1:
                work.one_flow_settles += 1
                assert (work.closures, work.solves) == before
            if self.mode == "fairshare":
                # Only the flows crossing the changed links are visited.
                work.share_settles += 1
                assert work.visited == crossing
                assert self.dirty_flows - dirty == len(crossing)
            return updates

        def counted_closure(self, seeds):
            work.closures += 1
            region = closure(self, seeds)
            assert len(region) >= 2
            return region

        def counted_solve(self, ordered):
            work.solves += 1
            assert len(ordered) >= 2
            return solve(self, ordered)

        def counted_route(self, route_):
            key = (id(self), work.epochs.get(id(self), 0), route_)
            work.dedupes[key] = work.dedupes.get(key, 0) + 1
            return route(self, route_)

        def counted_set_capacity(self, *args):
            work.epochs[id(self)] = work.epochs.get(id(self), 0) + 1
            return set_capacity(self, *args)

        def counted_shares_of(self, ordered):
            work.visited.update(ordered)
            return shares_of(self, ordered)

        for name, fn in (("start", counted_start),
                         ("_settle", counted_settle),
                         ("_closure", counted_closure),
                         ("_solve", counted_solve),
                         ("_route", counted_route),
                         ("set_capacity", counted_set_capacity),
                         ("_shares_of", counted_shares_of)):
            monkeypatch.setattr(LinkContention, name, fn)


class TestContentionWork:
    """A contended flow event pays for what it changes, counted, not
    timed: exclusive starts and one-flow settles skip the closure and the
    solver, each route is deduplicated once per capacity epoch, and a
    fair-share settle visits only the flows crossing the changed links."""

    def test_leafspine_maxmin(self, monkeypatch):
        work = _ContentionWork(monkeypatch)
        graph = generate_platform("leafspine", seed=7)
        simulate(graph, 400, IC3)
        assert work.exclusive_starts > 0 and work.one_flow_settles > 0
        assert work.closures > 0 and work.share_settles == 0
        assert set(work.dedupes.values()) == {1}

    def test_fairshare_tree_three_apps(self, monkeypatch):
        work = _ContentionWork(monkeypatch)
        apps = [Application(150, name=f"app{i}", size=i + 1, priority=i)
                for i in range(3)]
        simulate(generate_tree(seed=7), apps, IC3, allocator="fairshare")
        assert work.exclusive_starts > 0 and work.share_settles > 0
        assert work.closures == 0 and work.solves == 0
        assert set(work.dedupes.values()) == {1}

    def test_degrade_epochs_rebuild_each_route_once(self, monkeypatch):
        work = _ContentionWork(monkeypatch)
        graph = generate_platform("leafspine", seed=7)
        schedule = chaos_schedule(graph, seed=1017, events=6)
        simulate(graph, 120, IC3, faults=schedule)
        assert sum(work.epochs.values()) >= 2  # two degrades, each undone
        assert any(epoch > 0 for _, epoch, _ in work.dedupes)
        assert set(work.dedupes.values()) == {1}
