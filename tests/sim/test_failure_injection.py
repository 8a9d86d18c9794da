"""Failure injection into the kernel: errors must surface, never vanish."""

import pytest

from repro.sim import Environment


class TestTimerFailures:
    def test_exception_in_timer_propagates(self):
        env = Environment()

        def boom():
            raise RuntimeError("timer exploded")

        env.call_in(3, boom)
        with pytest.raises(RuntimeError, match="timer exploded"):
            env.run()
        # The clock stopped at the failure point; the kernel is inspectable.
        assert env.now == 3

    @pytest.mark.parametrize("until", [None, 10])
    def test_failure_does_not_corrupt_remaining_calendar(self, until):
        env = Environment()
        ran = []

        def boom():
            raise ValueError("x")

        env.call_in(1, boom)
        env.call_in(2, ran.append, "later")
        env.call_in(15, ran.append, "past the bound")
        with pytest.raises(ValueError):
            env.run(until=until)
        env.run()  # resume past the failure, and past a bounded run's stop
        assert ran == ["later", "past the bound"]
        assert env.now == 15

