"""The calendar's one slot shape, and timers that hold nothing once fired.

Every calendar slot is ``(key, time, seq, timer)``.  The key is a
monotone stand-in for the time (the time itself for ints and floats, the
correctly rounded float for other rationals, the exact time where that
float overflows or could collide with an int it does not equal), so
equal keys fall through to the exact time and then to ``seq``.  These
tests pin that the pop order is the exact ``(time, seq)`` order across
mixed time types, including the corners where keys collide.

A fired timer drops its callback and arguments under both ``run()`` and
``step()``, so a transfer and its completion timer never form a cycle
that only the cyclic garbage collector could free.
"""

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.platform.generator import PAPER_DEFAULTS, generate_tree
from repro.protocols import ProtocolConfig
from repro.protocols.agents import Transfer
from repro.sim import Environment
from repro.sim.events import FastFraction

HUGE = 10**400

#: Times whose keys collide or compare across types.
CORNERS = [
    0, 1, 5, FastFraction(5), Fraction(5), 5.0,
    # distinct fractions whose rounded floats are equal
    Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30), FastFraction(1, 3),
    1 / 3, Fraction(1, 2), 0.5,
    # beyond 2**53 not every int is a float: 2**54 + 3/2 rounds to 2**54,
    # below the int 2**54 + 1 it exceeds
    2**54, 2**54 + 1, Fraction(2**55 + 3, 2), float(2**54),
    # past the largest float: the key is the exact time
    HUGE, Fraction(3 * HUGE - 1, 3), Fraction(3 * HUGE + 1, 3),
    FastFraction(3 * HUGE + 1, 3), -HUGE, Fraction(-3 * HUGE - 1, 3),
    Fraction(-3 * HUGE + 1, 3),
]


def _pop_order(times):
    """Schedule ``times`` in the given order; return (time, index) pairs in
    the order the calendar fires them."""
    env = Environment(initial_time=-HUGE * 10)
    fired = []
    for index, time in enumerate(times):
        env.call_at(time, fired.append, (time, index))
    env.run()
    return fired


def _exact_order(times):
    return sorted((time, index) for index, time in enumerate(times))


class TestSlotOrder:
    def test_corners_pop_in_exact_order(self):
        rng = random.Random(20)
        for _ in range(20):
            times = CORNERS * 2
            rng.shuffle(times)
            assert _pop_order(times) == _exact_order(times)

    def test_equal_values_of_different_types_are_fifo(self):
        times = [FastFraction(5), 5, 5.0, Fraction(5), 5]
        assert [index for _t, index in _pop_order(times)] == [0, 1, 2, 3, 4]

    @given(st.lists(
        st.integers(-10**20, 10**20)
        | st.fractions(-10**6, 10**6, max_denominator=10**9)
        | st.builds(FastFraction, st.integers(-10**12, 10**12),
                    st.integers(1, 10**6))
        | st.floats(-1e18, 1e18, allow_nan=False)
        | st.sampled_from(CORNERS),
        max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_mixed_times_pop_in_exact_order(self, times):
        assert _pop_order(times) == _exact_order(times)

    @pytest.mark.parametrize("bound", [Fraction(2**55 + 3, 2), 2**54 + 1],
                             ids=["fraction", "int"])
    def test_stop_entry_at_colliding_key(self, bound):
        # The stop entry of run(until=t) keeps its place among timers whose
        # keys equal its own.
        env = Environment()
        out = []
        for time in (2**54, 2**54 + 1, Fraction(2**55 + 3, 2), 2**54 + 2):
            env.call_at(time, out.append, time)
        env.run(until=bound)
        assert out == [time for time in (2**54, 2**54 + 1,
                                         Fraction(2**55 + 3, 2))
                       if time < bound]
        assert env.now == bound


def _fired_state(use_step: bool):
    env = Environment()
    payload = ["pinned?"]
    timer = env.call_in(1, payload.append, payload)
    if use_step:
        env.step()
    else:
        env.run()
    return timer


class TestFiredTimersHoldNothing:
    @pytest.mark.parametrize("use_step", [False, True], ids=["run", "step"])
    def test_fired_timer_has_empty_args(self, use_step):
        timer = _fired_state(use_step)
        assert timer.args == ()
        assert not timer.active

    def test_run_and_step_leave_the_same_state(self):
        ran, stepped = _fired_state(False), _fired_state(True)
        assert (ran.fn, ran.args, ran.cancelled) == \
            (stepped.fn, stepped.args, stepped.cancelled)

    def test_tree_run_frees_every_transfer_by_refcount(self):
        def alive():
            return sum(1 for obj in gc.get_objects()
                       if obj.__class__ is Transfer)

        gc.collect()
        gc.disable()
        try:
            before = alive()
            result = simulate(generate_tree(PAPER_DEFAULTS, seed=3), 500,
                              ProtocolConfig.interruptible(3))
            after = alive()
        finally:
            gc.enable()
        assert sum(result.per_node_computed) == 500
        assert after == before
