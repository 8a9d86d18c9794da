"""Lazy-deletion timer cancellation: counters, compaction, ordering.

The kernel tombstones cancelled timers in place and rebuilds the calendar
once tombstones dominate (see ``repro.sim.core._COMPACT_MIN``).  These tests
pin the bookkeeping and — crucially — that compaction never changes what
runs when.
"""

from fractions import Fraction

import pytest

from repro.errors import SimulationError
from repro.sim import Environment
from repro.sim.core import _COMPACT_MIN


class TestCancelBookkeeping:
    def test_cancel_is_idempotent(self):
        env = Environment()
        timer = env.call_in(5, lambda: None)
        timer.cancel()
        timer.cancel()
        assert env._cancelled == 1
        assert not timer.active

    def test_cancel_after_fire_is_noop(self):
        env = Environment()
        fired = []
        timer = env.call_in(1, fired.append, 1)
        env.run()
        assert fired == [1]
        timer.cancel()  # must not count a tombstone for a popped entry
        assert env._cancelled == 0
        assert not timer.active

    def test_pop_decrements_counter(self):
        env = Environment()
        env.call_in(1, lambda: None).cancel()
        env.call_in(2, lambda: None)
        assert env._cancelled == 1
        env.run()
        assert env._cancelled == 0

    def test_peek_skips_tombstones(self):
        env = Environment()
        env.call_in(1, lambda: None).cancel()
        env.call_in(2, lambda: None)
        assert env.peek() == 2
        assert env._cancelled == 0  # peek discarded the tombstone

    def test_step_skips_tombstones(self):
        env = Environment()
        env.call_in(1, lambda: None).cancel()
        out = []
        env.call_in(2, out.append, "live")
        env.step()
        assert out == ["live"]
        assert env._cancelled == 0

    def test_active_property(self):
        env = Environment()
        timer = env.call_in(3, lambda: None)
        assert timer.active
        timer.cancel()
        assert not timer.active

    def test_timer_states_and_settled_cancels(self):
        # The state lives in the callback field: pending, cancelled and
        # fired each read their own way, and cancelling a settled timer
        # changes neither it nor the tombstone count.
        env = Environment()
        pending = env.call_in(1, lambda: None)
        cancelled = env.call_in(2, lambda: None)
        fired = env.call_in(0, lambda: None)
        cancelled.cancel()
        env.step()
        timers = (pending, cancelled, fired)
        states = [(t.active, t.cancelled) for t in timers]
        assert states == [(True, False), (False, True), (False, False)]
        cancelled.cancel()
        fired.cancel()
        assert env._cancelled == 1
        assert [(t.active, t.cancelled) for t in timers] == states


class TestCompaction:
    def test_compaction_triggers_and_preserves_survivors(self):
        env = Environment()
        fired = []
        survivors = []
        tombstones = []
        # Interleave live and soon-cancelled timers at distinct times.
        for i in range(2 * _COMPACT_MIN):
            if i % 4 == 0:
                survivors.append((i, env.call_in(i + 1, fired.append, i)))
            else:
                tombstones.append(env.call_in(i + 1, fired.append, -1))
        for timer in tombstones:
            timer.cancel()
        # The _COMPACT_MIN-th cancel crossed both thresholds and compacted
        # the 1024 tombstones present at that instant; the remaining 512
        # cancels stay below the absolute floor and sit tombstoned.
        assert env._cancelled == len(tombstones) - _COMPACT_MIN
        assert len(env._heap) == len(survivors) + env._cancelled
        env.run()
        assert fired == [i for i, _t in survivors]

    def test_compaction_keeps_heap_identity(self):
        # run() holds a local binding to the heap list; a compaction from
        # inside a callback must mutate that same list object.
        env = Environment()
        heap_id = id(env._heap)
        fired = []

        def cancel_many():
            timers = [env.call_in(10 + i, fired.append, -1)
                      for i in range(2 * _COMPACT_MIN)]
            for timer in timers:
                timer.cancel()
            env.call_in(5, fired.append, "after")

        env.call_in(1, cancel_many)
        env.run()
        assert fired == ["after"]
        assert id(env._heap) == heap_id

    def test_no_compaction_below_threshold(self):
        env = Environment()
        for _ in range(10):
            env.call_in(1, lambda: None).cancel()
        # Tombstones dominate but the absolute floor is not reached.
        assert env._cancelled == 10
        assert len(env._heap) == 10

    def test_ordering_with_heavy_cancellation(self):
        """Same-time entries keep scheduling order across cancellations."""
        env = Environment()
        fired = []
        keep = []
        for i in range(300):
            timer = env.call_in(7, fired.append, i)
            if i % 3 == 0:
                timer.cancel()
            else:
                keep.append(i)
        env.run()
        assert fired == keep


class TestRunMirrorsStep:
    """The inlined run() loop and step() must dispatch identically, on
    integer-time and fractional-time slots alike."""

    def _drive(self, use_step: bool):
        env = Environment()
        out = []
        env.call_in(1, out.append, "t1")
        env.call_in(2, out.append, "t2")
        env.call_in(1, out.append, "t1b")
        env.call_in(Fraction(1, 2), out.append, "half")
        env.call_in(Fraction(3, 2), out.append, "never").cancel()
        env.call_in(1, out.append, "never").cancel()
        if use_step:
            while not env.is_empty():
                env.step()
        else:
            env.run()
        return out, env.processed_count, env.now

    def test_identical_dispatch(self):
        stepped = self._drive(use_step=True)
        assert stepped == self._drive(use_step=False)
        assert stepped == (["half", "t1", "t1b", "t2"], 4, 2)

    def test_step_on_empty_calendar_raises(self):
        env = Environment()
        with pytest.raises(SimulationError, match="empty calendar"):
            env.step()
