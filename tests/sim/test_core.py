"""Tests for the event-loop core: clock, calendar ordering, timers, run()."""

from fractions import Fraction

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Infinity


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0

    def test_custom_initial_time(self):
        assert Environment(initial_time=100).now == 100

    def test_time_advances_to_timer(self):
        env = Environment()
        env.call_in(7, lambda: None)
        env.run()
        assert env.now == 7

    def test_integer_times_stay_integral(self):
        env = Environment()
        seen = []
        env.call_in(3, lambda: seen.append(env.now))
        env.run()
        assert seen == [3] and isinstance(seen[0], int)


class TestTimers:
    def test_call_in_executes_with_args(self):
        env = Environment()
        out = []
        env.call_in(1, out.append, "x")
        env.run()
        assert out == ["x"]

    def test_call_at_absolute(self):
        env = Environment(initial_time=10)
        out = []
        env.call_at(15, lambda: out.append(env.now))
        env.run()
        assert out == [15]

    def test_call_at_past_raises(self):
        env = Environment(initial_time=10)
        with pytest.raises(SimulationError):
            env.call_at(9, lambda: None)

    def test_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.call_in(-1, lambda: None)

    def test_zero_delay_runs_now(self):
        env = Environment()
        out = []
        env.call_in(0, lambda: out.append(env.now))
        env.run()
        assert out == [0]

    def test_cancel_prevents_execution(self):
        env = Environment()
        out = []
        t = env.call_in(5, out.append, 1)
        t.cancel()
        env.run()
        assert out == []

    def test_cancel_after_fire_is_noop(self):
        env = Environment()
        t = env.call_in(1, lambda: None)
        env.run()
        t.cancel()  # must not raise

    def test_active_property(self):
        env = Environment()
        t = env.call_in(1, lambda: None)
        assert t.active
        t.cancel()
        assert not t.active

    def test_active_false_after_fire(self):
        env = Environment()
        t = env.call_in(1, lambda: None)
        env.run()
        assert not t.active

    def test_fifo_order_at_equal_times(self):
        env = Environment()
        out = []
        for i in range(5):
            env.call_in(3, out.append, i)
        env.run()
        assert out == [0, 1, 2, 3, 4]

    def test_interleaved_times_sorted(self):
        env = Environment()
        out = []
        for delay in (5, 1, 4, 2, 3):
            env.call_in(delay, out.append, delay)
        env.run()
        assert out == [1, 2, 3, 4, 5]

    def test_schedule_is_call_in(self):
        env = Environment()
        out = []
        timer = env.schedule(2, out.append, "x")
        env.run()
        assert out == ["x"] and env.now == 2 and not timer.active

    def test_timer_scheduled_from_timer(self):
        env = Environment()
        out = []
        env.call_in(1, lambda: env.call_in(2, lambda: out.append(env.now)))
        env.run()
        assert out == [3]


class TestPeek:
    def test_peek_empty(self):
        assert Environment().peek() == Infinity

    def test_peek_returns_next_time(self):
        env = Environment()
        env.call_in(9, lambda: None)
        env.call_in(4, lambda: None)
        assert env.peek() == 4

    def test_peek_skips_cancelled(self):
        env = Environment()
        t = env.call_in(1, lambda: None)
        env.call_in(2, lambda: None)
        t.cancel()
        assert env.peek() == 2

    def test_is_empty(self):
        env = Environment()
        assert env.is_empty()
        t = env.call_in(1, lambda: None)
        assert not env.is_empty()
        t.cancel()
        assert env.is_empty()


class TestRun:
    @pytest.mark.parametrize("bound", [10, Fraction(21, 2)],
                             ids=["int", "fraction"])
    def test_run_until_time_stops_before_events_at_bound(self, bound):
        # The stop entry sorts before every timer at the bound, including
        # one a callback schedules after run() has put the stop on the
        # calendar; int and Fraction bounds take an int and a float key.
        env = Environment()
        out = []
        env.call_in(5, out.append, "at5")
        env.call_at(bound, out.append, "at bound")
        env.call_in(6, lambda: env.call_at(bound, out.append, "late"))
        env.run(until=bound)
        assert out == ["at5"]
        assert env.now == bound
        env.run()
        assert out == ["at5", "at bound", "late"]

    def test_run_until_past_raises(self):
        env = Environment(initial_time=5)
        with pytest.raises(SimulationError):
            env.run(until=1)

    def test_run_until_beyond_heap_advances_clock(self):
        env = Environment()
        env.call_in(2, lambda: None)
        env.run(until=100)
        assert env.now == 100

    def test_run_empty_returns_none(self):
        assert Environment().run() is None

    def test_run_can_be_resumed(self):
        env = Environment()
        out = []
        env.call_in(5, out.append, 1)
        env.call_in(15, out.append, 2)
        env.run(until=10)
        assert out == [1]
        env.run()
        assert out == [1, 2]

    def test_step_on_empty_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_processed_count_increments(self):
        env = Environment()
        for _ in range(4):
            env.call_in(1, lambda: None)
        env.run()
        assert env.processed_count == 4

    def test_cancelled_timers_not_counted(self):
        env = Environment()
        t = env.call_in(1, lambda: None)
        env.call_in(2, lambda: None)
        t.cancel()
        env.run()
        assert env.processed_count == 1


class TestDeterminism:
    def test_identical_schedules_identical_traces(self):
        def trace():
            env = Environment()
            out = []
            for i, d in enumerate((3, 1, 3, 2)):
                env.call_in(d, out.append, (env.now + d, i))
            env.run()
            return out

        assert trace() == trace()
