"""Event-trace identity: the hot-path refactors must not move a single event.

The kernel's lazy deletion / loop inlining and the agents' cached priority
keys are pure optimizations — same seed, same calendar, bit for bit.  These
tests lock the *full* protocol trace (every kind, including the high-volume
requests) and the kernel-level calendar, with dedicated coverage of the IC
preemption path where cancelled transfer timers and cached keys matter most.
"""

from repro.platform import figure2a_tree
from repro.platform.generator import PAPER_DEFAULTS, generate_tree
from repro.protocols import ProtocolConfig, ProtocolEngine, Tracer
from repro.protocols import trace as trace_mod

IC3 = ProtocolConfig.interruptible(3)
NON_IC = ProtocolConfig.non_interruptible(2, buffer_growth=False)


def _traced_run(tree, config, num_tasks):
    engine = ProtocolEngine(tree, config, num_tasks)
    tracer = Tracer(kinds=trace_mod.ALL_KINDS, limit=None)
    engine.sinks.append(tracer)
    result = engine.run()
    return result, tracer.events


class TestFullTraceIdentity:
    def test_figure2a_ic_trace_identical(self):
        a_result, a_events = _traced_run(figure2a_tree(), IC3, 300)
        b_result, b_events = _traced_run(figure2a_tree(), IC3, 300)
        assert a_result.preemptions > 0  # the IC preemption path is exercised
        assert a_events == b_events
        assert a_result.completion_times == b_result.completion_times

    def test_generated_tree_ic_preemption_trace_identical(self):
        # A random ensemble tree on which IC/FB=3 actually preempts, so the
        # cancelled-timer tombstones and cached priority keys are on the
        # replayed path.
        tree = generate_tree(PAPER_DEFAULTS, seed=11)
        a_result, a_events = _traced_run(tree, IC3, 500)
        b_result, b_events = _traced_run(tree, IC3, 500)
        assert a_result.preemptions > 0
        assert a_events == b_events
        assert a_result.events_processed == b_result.events_processed

    def test_non_ic_trace_identical(self):
        tree = generate_tree(PAPER_DEFAULTS, seed=3)
        a_result, a_events = _traced_run(tree, NON_IC, 400)
        b_result, b_events = _traced_run(tree, NON_IC, 400)
        assert a_events == b_events
        assert a_result.makespan == b_result.makespan


class TestCalendarIdentity:
    """Kernel-level replay: every processed entry at the same virtual time."""

    def _calendar(self, watch_calendar, config):
        tree = generate_tree(PAPER_DEFAULTS, seed=11)
        engine = ProtocolEngine(tree, config, 400)
        stamps = []
        watch_calendar(engine.env, lambda time, item: stamps.append(
            (time, item.__class__.__name__)))
        engine.run()
        return stamps

    def test_ic_calendar_replays(self, watch_calendar):
        assert (self._calendar(watch_calendar, IC3)
                == self._calendar(watch_calendar, IC3))

    def test_non_ic_calendar_replays(self, watch_calendar):
        assert (self._calendar(watch_calendar, NON_IC)
                == self._calendar(watch_calendar, NON_IC))


class TestTracerPropagation:
    """A tracer appended to engine.sinks before run() reaches every
    agent's cache when the run starts."""

    def test_setter_reaches_all_agents(self):
        engine = ProtocolEngine(figure2a_tree(), IC3, 10)
        tracer = Tracer()
        engine.sinks.append(tracer)
        engine.run()
        assert all(agent.tracer is tracer for agent in engine.nodes)
        assert tracer.events

        untraced = ProtocolEngine(figure2a_tree(), IC3, 10)
        untraced.sinks.append(tracer)
        untraced.sinks.remove(tracer)
        untraced.run()
        assert all(agent.tracer is None for agent in untraced.nodes)

    def test_join_agents_inherit_tracer(self):
        from repro.platform import ChurnSchedule, JoinEvent, PlatformTree

        tree = figure2a_tree()
        cluster = PlatformTree([3, 2], [(0, 1, 1)])
        churn = ChurnSchedule([JoinEvent(at_time=50, parent=tree.root,
                                         subtree=cluster, attach_cost=1)])
        engine = ProtocolEngine(tree, IC3, 200, churn=churn)
        tracer = Tracer(kinds=trace_mod.ALL_KINDS, limit=None)
        engine.sinks.append(tracer)
        before = tree.num_nodes
        engine.run()
        joined = engine.nodes[before:]
        assert joined  # the join actually happened
        assert all(agent.tracer is tracer for agent in joined)
        # ...and the joined nodes' activity was recorded through the cache.
        joined_ids = {agent.id for agent in joined}
        assert any(e.node in joined_ids or e.peer in joined_ids
                   for e in tracer.events)
