"""Tests for the protocol tracer and the ASCII Gantt renderer."""

import pytest

from repro.errors import ProtocolError
from repro.platform import (
    Mutation,
    MutationSchedule,
    PlatformTree,
    figure2a_tree,
)
from repro.protocols import ProtocolConfig, ProtocolEngine, Tracer, ascii_gantt
from repro.protocols import trace as tr


def traced_run(tree, config, num_tasks, tracer=None, mutations=None):
    engine = ProtocolEngine(tree, config, num_tasks, mutations=mutations)
    tracer = tracer if tracer is not None else Tracer()
    engine.sinks.append(tracer)
    result = engine.run()
    return result, tracer


class TestTracerBasics:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            Tracer(kinds=["bogus"])

    def test_requests_filtered_by_default(self):
        _result, tracer = traced_run(figure2a_tree(), ProtocolConfig.interruptible(2), 50)
        assert tracer.count(tr.REQUEST) == 0
        assert tracer.count(tr.COMPUTE_DONE) > 0

    def test_requests_recorded_when_asked(self):
        tracer = Tracer(kinds=[tr.REQUEST])
        _result, tracer = traced_run(figure2a_tree(),
                                     ProtocolConfig.interruptible(2), 50,
                                     tracer=tracer)
        assert tracer.count(tr.REQUEST) > 0
        assert tracer.count(tr.COMPUTE_DONE) == 0

    def test_compute_count_matches_result(self):
        result, tracer = traced_run(figure2a_tree(),
                                    ProtocolConfig.interruptible(2), 80)
        assert tracer.count(tr.COMPUTE_DONE) == 80
        for node in range(3):
            assert len(tracer.compute_intervals(node)) == \
                result.per_node_computed[node]

    def test_preempt_count_matches_result(self):
        result, tracer = traced_run(figure2a_tree(),
                                    ProtocolConfig.interruptible(1), 200)
        assert tracer.count(tr.PREEMPT) == result.preemptions
        assert result.preemptions > 0

    def test_send_legs_close(self):
        """Every send leg has matched start/end; no interval is negative."""
        _result, tracer = traced_run(figure2a_tree(),
                                     ProtocolConfig.interruptible(1), 150)
        legs = tracer.send_intervals(0)
        assert legs
        for start, end in legs:
            assert 0 <= start <= end

    def test_growth_events_recorded(self):
        result, tracer = traced_run(figure2a_tree(),
                                    ProtocolConfig.non_interruptible(), 200)
        grown = sum(b - 1 for b in result.per_node_max_buffers[1:])
        assert tracer.count(tr.GROW) == grown

    def test_mutation_event_recorded(self):
        sched = MutationSchedule([
            Mutation(node=1, attribute="c", value=3, after_tasks=20)])
        _result, tracer = traced_run(
            figure2a_tree(), ProtocolConfig.interruptible(2), 60,
            mutations=sched)
        assert tracer.count(tr.MUTATION) == 1

    def test_limit_drops_oldest(self):
        tracer = Tracer(limit=10)
        _result, tracer = traced_run(figure2a_tree(),
                                     ProtocolConfig.interruptible(2), 100,
                                     tracer=tracer)
        assert len(tracer) == 10
        assert tracer.dropped > 0

    def test_limited_tracer_keeps_exact_tail(self):
        """FIFO eviction keeps exactly the newest ``limit`` events, and
        ``len + dropped`` accounts for every event the unlimited run saw."""
        unlimited = Tracer()
        _result, unlimited = traced_run(figure2a_tree(),
                                        ProtocolConfig.interruptible(2), 100,
                                        tracer=unlimited)
        limited = Tracer(limit=25)
        _result, limited = traced_run(figure2a_tree(),
                                      ProtocolConfig.interruptible(2), 100,
                                      tracer=limited)
        full = list(unlimited.events)
        kept = list(limited.events)
        assert kept == full[-25:]
        assert limited.dropped == len(full) - 25

    def test_limited_eviction_cost_stays_flat(self):
        """Eviction is O(1) per event (deque), not O(n) (list.pop(0)) —
        a tight limit on a long run must not change what is kept."""
        tracer = Tracer(limit=2)
        _result, tracer = traced_run(figure2a_tree(),
                                     ProtocolConfig.interruptible(2), 200,
                                     tracer=tracer)
        unlimited = Tracer()
        _result, unlimited = traced_run(figure2a_tree(),
                                        ProtocolConfig.interruptible(2), 200,
                                        tracer=unlimited)
        assert list(tracer.events) == list(unlimited.events)[-2:]

    def test_for_node(self):
        _result, tracer = traced_run(figure2a_tree(),
                                     ProtocolConfig.interruptible(2), 40)
        events = tracer.for_node(1)
        assert events and all(e.node == 1 for e in events)

    def test_compute_intervals_have_exact_durations(self):
        tree = PlatformTree.linear_chain([3, 5], [2])
        _result, tracer = traced_run(tree, ProtocolConfig.interruptible(2), 30)
        for start, end in tracer.compute_intervals(0):
            assert end - start == 3
        for start, end in tracer.compute_intervals(1):
            assert end - start == 5


class TestPreemptionSemantics:
    def test_preempted_send_total_time_preserved(self):
        """Sum of an interrupted transfer's legs equals the edge cost."""
        _result, tracer = traced_run(figure2a_tree(),
                                     ProtocolConfig.interruptible(1), 120)
        # Transfers to child 2 (c=5) get sliced by requests from child 1.
        legs = [e for e in tracer.events
                if e.node == 0 and e.peer == 2
                and e.kind in (tr.SEND_START, tr.SEND_RESUME,
                               tr.PREEMPT, tr.SEND_DONE)]
        # Walk the legs, accumulating per-transfer transmitted time.
        total, open_at = 0, None
        for event in legs:
            if event.kind in (tr.SEND_START, tr.SEND_RESUME):
                open_at = event.time
            else:
                total += event.time - open_at
                open_at = None
                if event.kind == tr.SEND_DONE:
                    assert total == 5  # the full edge cost, in pieces
                    total = 0


class TestGantt:
    def test_renders_lanes(self):
        _result, tracer = traced_run(figure2a_tree(parent_w=4),
                                     ProtocolConfig.interruptible(2), 60)
        text = ascii_gantt(tracer, num_nodes=3, t0=0, t1=100, width=50)
        lines = text.splitlines()
        assert len(lines) == 4  # header + 3 nodes
        for line in lines[1:]:
            assert line.startswith("P")
            assert len(line.split("|")[1]) == 50
        # Child B computes constantly once warmed up.
        assert "C" in lines[2]

    def test_gantt_validation(self):
        tracer = Tracer()
        with pytest.raises(ProtocolError):
            ascii_gantt(tracer, 1, 10, 10)
        with pytest.raises(ProtocolError):
            ascii_gantt(tracer, 1, 0, 10, width=0)

    def test_node_subset(self):
        _result, tracer = traced_run(figure2a_tree(),
                                     ProtocolConfig.interruptible(2), 40)
        text = ascii_gantt(tracer, num_nodes=3, t0=0, t1=50, nodes=[1])
        assert text.count("\nP") == 1
