"""Stateful property testing of the kernel's calendar.

A hypothesis state machine schedules, cancels and runs timers in random
interleavings and checks the kernel's core contract: every non-cancelled
timer fires exactly once, in nondecreasing time order, FIFO at ties, and
the clock never moves backwards; ``run(until=t)`` fires nothing at or after
``t`` and leaves the clock at ``t``.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.sim import Environment


class CalendarMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.env = Environment()
        self.live = {}          # handle id → (due time, seq)
        self.fired = []         # (time, seq) in firing order
        self.cancelled = set()
        self.next_seq = 0

    def _make_callback(self, seq):
        def fire():
            self.fired.append((self.env.now, seq))

        return fire

    @rule(delay=st.integers(0, 50))
    def schedule(self, delay):
        seq = self.next_seq
        self.next_seq += 1
        handle = self.env.call_in(delay, self._make_callback(seq))
        self.live[seq] = (self.env.now + delay, handle)

    @rule(data=st.data())
    def cancel_one(self, data):
        pending = [seq for seq, (_t, h) in self.live.items() if h.active]
        if not pending:
            return
        seq = data.draw(st.sampled_from(pending))
        self.live[seq][1].cancel()
        self.cancelled.add(seq)

    @rule(steps=st.integers(1, 5))
    def run_some(self, steps):
        for _ in range(steps):
            if self.env.is_empty():
                break
            self.env.step()

    @rule()
    def run_all(self):
        self.env.run()

    @rule(offset=st.one_of(st.integers(0, 30),
                           st.fractions(0, 30, max_denominator=4)))
    def run_until(self, offset):
        # Integer and Fraction bounds key the stop entry by the int itself
        # and by a rounded float; a Fraction clock then gives later timers
        # Fraction times and float keys too.
        bound = self.env.now + offset
        before = len(self.fired)
        self.env.run(until=bound)
        assert all(t < bound for t, _s in self.fired[before:])
        assert self.env.now == bound
        fired = {s for _t, s in self.fired}
        assert all(s in fired for s, (due, _h) in self.live.items()
                   if due < bound and s not in self.cancelled)

    @invariant()
    def clock_monotone_and_order_correct(self):
        times = [t for t, _s in self.fired]
        assert times == sorted(times)
        # FIFO at equal times: sequence numbers increase within a time bin.
        by_time = {}
        for t, s in self.fired:
            by_time.setdefault(t, []).append(s)
        for seqs in by_time.values():
            assert seqs == sorted(seqs)

    @invariant()
    def no_cancelled_timer_ever_fires(self):
        fired_seqs = {s for _t, s in self.fired}
        assert not (fired_seqs & self.cancelled)

    @invariant()
    def fired_at_their_due_time(self):
        for t, s in self.fired:
            due = self.live[s][0]
            assert t == due

    def teardown(self):
        # Drain and check completeness: everything not cancelled fired once.
        self.env.run()
        fired_seqs = [s for _t, s in self.fired]
        assert len(fired_seqs) == len(set(fired_seqs))
        expected = set(self.live) - self.cancelled
        assert set(fired_seqs) == expected


TestCalendarStateMachine = CalendarMachine.TestCase
TestCalendarStateMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None)
