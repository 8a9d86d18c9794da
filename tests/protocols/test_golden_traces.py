"""Golden-trace regression tests: exact event sequences on tiny platforms.

These lock the protocol's micro-behaviour.  The Figure 2(a) fork under
interruptible communication is hand-verified below; any change to the
scheduling rules, priority order, preemption timing or request bookkeeping
will shift these events and fail loudly.
"""

import pytest

from repro.platform import PlatformTree, figure2a_tree
from repro.protocols import ProtocolConfig, ProtocolEngine, Tracer
from repro.protocols import trace as tr


def traced(tree, config, num_tasks):
    engine = ProtocolEngine(tree, config, num_tasks)
    tracer = Tracer(limit=None)
    engine.sinks.append(tracer)
    result = engine.run()
    return result, tracer


class TestFigure2aInterruptibleGolden:
    """A (root, w=10) with B (c=1, w=2) and C (c=5, w=8); IC, FB=1.

    Hand-trace: A computes from t=0 and pipelines tasks to B every time B's
    buffer frees; the 5-unit send to C starts at t=2 and is preempted by
    B's request every 2 steps (t=3,5,7,9), resuming in between, finally
    completing at t=11 after 5 units of sliced service.
    """

    @pytest.fixture(scope="class")
    def trace(self):
        _result, tracer = traced(figure2a_tree(parent_w=10),
                                 ProtocolConfig.interruptible(1), 12)
        return tracer

    def test_opening_event_sequence(self, trace):
        expected = [
            (0, tr.COMPUTE_START, 0, None),   # A's CPU takes task 1
            (0, tr.SEND_START, 0, 1),         # A starts feeding B
            (1, tr.SEND_DONE, 0, 1),
            (1, tr.SEND_START, 0, 1),         # B consumed instantly; next one
            (1, tr.COMPUTE_START, 1, None),
            (2, tr.SEND_DONE, 0, 1),
            (2, tr.SEND_START, 0, 2),         # port free: the 5-unit C send
            (3, tr.COMPUTE_DONE, 1, None),
            (3, tr.PREEMPT, 0, 2),            # B's request interrupts C
            (3, tr.SEND_START, 0, 1),
            (3, tr.COMPUTE_START, 1, None),
            (4, tr.SEND_DONE, 0, 1),
            (4, tr.SEND_RESUME, 0, 2),        # C resumes with 4 units left
        ]
        got = [(e.time, e.kind, e.node, e.peer) for e in trace.events]
        assert got[:len(expected)] == expected

    def test_preemption_rhythm(self, trace):
        """C's send is preempted exactly at t=3,5,7,9 (B's period of 2)."""
        preempts = [e.time for e in trace.events if e.kind == tr.PREEMPT]
        assert preempts[:4] == [3, 5, 7, 9]

    def test_c_transfer_completes_after_sliced_service(self, trace):
        done = [e.time for e in trace.events
                if e.kind == tr.SEND_DONE and e.peer == 2]
        assert done[0] == 11  # 5 units of service between t=2 and t=11

    def test_b_never_idles_once_warm(self, trace):
        """From t=1 on, B's compute intervals abut seamlessly (the IC
        headline: the fastest-communicating child never waits)."""
        intervals = trace.compute_intervals(1)
        warm = [iv for iv in intervals if iv[0] <= 21]
        for (s1, e1), (s2, e2) in zip(warm, warm[1:]):
            assert s2 == e1  # back-to-back

    def test_a_cpu_cadence(self, trace):
        starts = [e.time for e in trace.events
                  if e.kind == tr.COMPUTE_START and e.node == 0]
        assert starts[:2] == [0, 10]  # w=10, always busy


class TestFigure2aNonInterruptibleGolden:
    """Same platform, non-IC with one fixed buffer: once the C send starts
    at t=2 it pins the port for 5 full units and B starves."""

    @pytest.fixture(scope="class")
    def trace(self):
        cfg = ProtocolConfig.non_interruptible(1, buffer_growth=False)
        _result, tracer = traced(figure2a_tree(parent_w=10), cfg, 12)
        return tracer

    def test_no_preemptions(self, trace):
        assert trace.count(tr.PREEMPT) == 0

    def test_c_send_blocks_port_for_five_units(self, trace):
        c_sends = [(e.time, e.kind) for e in trace.events
                   if e.peer == 2 and e.kind in (tr.SEND_START, tr.SEND_DONE)]
        start_t, done_t = c_sends[0][0], c_sends[1][0]
        assert done_t - start_t == 5  # uninterrupted

    def test_b_starves_during_c_send(self, trace):
        """B (FB=1) runs dry while the port serves C: its compute intervals
        have a gap in the first C-send window."""
        intervals = trace.compute_intervals(1)
        gaps = [(s2 - e1) for (s1, e1), (s2, e2) in zip(intervals, intervals[1:])]
        assert any(g > 0 for g in gaps[:4])


class TestChainGolden:
    """Root (w=2) → child (c=1, w=2), IC/FB=1: strict alternation."""

    def test_exact_completion_interleaving(self):
        tree = PlatformTree.linear_chain([2, 2], [1])
        result, trace = traced(tree, ProtocolConfig.interruptible(1), 6)
        assert result.completion_times == (2, 3, 4, 5, 6, 7)
        by_node = [e.node for e in trace.events
                   if e.kind == tr.COMPUTE_DONE]
        assert by_node == [0, 1, 0, 1, 0, 1]
