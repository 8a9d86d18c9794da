"""Discrete-event simulation kernel: the event loop.

This module is the substrate that replaces the SimGrid toolkit used in the
paper.  It provides an :class:`Environment` with a binary-heap event
calendar, virtual (integer, :class:`~fractions.Fraction` or float) time, and
one scheduling API: :meth:`Environment.call_in` / :meth:`Environment.call_at`
put a callback on the calendar and return a cancellable :class:`Timer`.
Every engine, the open-loop driver, telemetry and warp run on it; an
interruptible activity is a timer its owner cancels.

Determinism: entries are ordered by ``(time, seq)`` where the sequence
number increases monotonically with scheduling order, so equal-time timers
fire first-in first-out and runs with the same seed replay identically.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Union

from ..errors import SimulationError
from .events import FastFraction

__all__ = ["Environment", "Timer", "Infinity"]

#: Placeholder for "run forever" / "never".
Infinity: float = float("inf")

#: Compaction trigger: once at least this many cancelled timers sit in the
#: heap *and* they outnumber the live entries, the calendar is rebuilt.
_COMPACT_MIN = 1024


class Timer:
    """A cancellable callback scheduled on the event calendar.

    One heap entry, one identity check, one call.  Timers are returned by
    :meth:`Environment.call_in` and :meth:`Environment.call_at` and can be
    revoked with :meth:`cancel` at any point before they fire.

    Four slots: the environment (for the tombstone count), the time, the
    callback and its arguments.  The sequence number lives only in the
    calendar slot, and the timer's state is its callback field: the
    callback while pending, :func:`_fired` once run, :func:`_tombstone`
    once revoked.  The calendar builds a timer with a bare ``Timer()`` —
    the class has no ``__init__``, so no Python frame runs — and sets the
    slots in place.

    Cancellation is lazy: the heap entry stays in place, tombstoned, and the
    environment counts outstanding tombstones so it can rebuild the calendar
    once they dominate it (preemption-heavy protocol runs cancel a large
    share of their transfer timers).
    """

    __slots__ = ("env", "time", "fn", "args")

    def cancel(self) -> None:
        """Revoke the timer.  Cancelling an already-fired (or already
        cancelled) timer is a no-op."""
        fn = self.fn
        if fn is _tombstone or fn is _fired:
            return
        # Drop the arguments so cancelled entries sitting in the heap do not
        # pin arbitrary object graphs alive until they are popped.
        self.fn = _tombstone
        self.args = ()
        env = self.env
        env._cancelled += 1
        if env._cancelled >= _COMPACT_MIN and env._cancelled * 2 >= len(env._heap):
            env._compact()

    @property
    def cancelled(self) -> bool:
        """``True`` once :meth:`cancel` revoked the timer before it fired."""
        return self.fn is _tombstone

    @property
    def active(self) -> bool:
        """``True`` while the timer is still pending (not fired, not cancelled)."""
        fn = self.fn
        return fn is not _tombstone and fn is not _fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.fn is _tombstone
                 else "fired" if self.fn is _fired else "pending")
        return f"<Timer t={self.time} {state}>"


#: Above this magnitude not every integer is a float, so a rounded key
#: could order an int time wrongly against a fraction near it.
_FLOAT_EXACT = 2.0 ** 53


def _sort_key(time):
    """First field of a calendar slot: a monotone stand-in for ``time``.

    Int and float times are their own key.  Any other rational time is
    keyed by its correctly rounded float (rounding is monotone, so
    ``key(a) < key(b)`` proves ``a < b`` and equal keys fall through to
    the exact times), unless that float overflows or reaches 2**53, where
    it could collide with an int it does not equal; there the key is the
    exact time.
    """
    if time.__class__ is int or time.__class__ is float:
        return time
    try:
        if time.__class__ is FastFraction:
            key = time._numerator / time._denominator
        else:
            num, den = time.as_integer_ratio()
            key = num / den
    except (OverflowError, ValueError):
        return time
    return key if -_FLOAT_EXACT < key < _FLOAT_EXACT else time


def _fired(*_args: Any) -> None:  # callback marker of a timer that ran
    return None


def _tombstone(*_args: Any) -> None:  # callback marker of a revoked timer
    return None


class _StopRun(Exception):
    """Internal control-flow exception used by ``run(until=...)``."""


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Virtual time at which the clock starts (default ``0``).  Integer
        initial times combined with integer delays keep the whole simulation
        in exact integer arithmetic, which the reproduction relies on for
        exact rate comparisons.

    Notes
    -----
    ``now`` is a plain attribute: the event loop sets it before each
    callback and the warp moves it forward; nothing else writes it.

    The calendar orders entries by ``(time, seq)``.  Timers take positive,
    increasing sequence numbers; the stop entry of ``run(until=t)`` takes a
    negative one, so the run stops *before* processing any timer at ``t`` —
    including one scheduled while the run is under way.

    A fired timer holds nothing: :meth:`step` and :meth:`run` both drop its
    callback and arguments before calling it, so a timer and the objects
    its callback was given never keep each other alive.
    """

    def __init__(self, initial_time: Union[int, float] = 0):
        #: Current virtual time.
        self.now = initial_time
        #: Calendar entries, one slot shape: ``(key, time, seq, timer)``
        #: tuples, where ``key`` is :func:`_sort_key` of ``time``.  Equal
        #: keys fall through to the exact time and then to ``seq``, so the
        #: heap holds the exact ``(time, seq)`` order and every comparison
        #: that a key decides runs in C.
        self._heap: list = []
        self._seq = 0
        self._cancelled = 0  # tombstoned timers still sitting in the heap
        #: Number of calendar entries processed so far.
        self.processed_count = 0

    # ------------------------------------------------------------------ time
    def peek(self) -> Union[int, float]:
        """Time of the next calendar entry, or :data:`Infinity` if empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].fn is _tombstone:
                heappop(heap)
                self._cancelled -= 1
                continue
            return entry[1]
        return Infinity

    def is_empty(self) -> bool:
        """``True`` when no live calendar entries remain."""
        return self.peek() is Infinity

    # ------------------------------------------------------------ schedule
    def call_at(self, time, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at absolute virtual ``time``.

        Returns a :class:`Timer` handle whose :meth:`Timer.cancel` revokes
        the call.  Scheduling in the past raises :class:`SimulationError`.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self.now!r}"
            )
        seq = self._seq + 1
        self._seq = seq
        timer = Timer()
        timer.env = self
        timer.time = time
        timer.fn = fn
        timer.args = args
        heappush(self._heap, (time if time.__class__ is int
                              else _sort_key(time), time, seq, timer))
        return timer

    def call_in(self, delay, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` after ``delay`` time units (``delay >= 0``).

        This is the protocol engine's per-event scheduling call, so it is
        :meth:`call_at` unrolled: a non-negative delay can never land in the
        past, which saves the past-check and a second method call.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        seq = self._seq + 1
        self._seq = seq
        timer = Timer()
        timer.env = self
        timer.time = time
        timer.fn = fn
        timer.args = args
        heappush(self._heap, (time if time.__class__ is int
                              else _sort_key(time), time, seq, timer))
        return timer

    def schedule(self, delay, fn: Callable[..., Any], *args: Any) -> Timer:
        """:meth:`call_in` under the name ``e2ebench/layers.py`` lists as a
        calendar entry point.  A function of its own, not an alias: the
        benchmark counts calls per function, and an alias would count
        every ``call_in`` twice."""
        return self.call_in(delay, fn, *args)

    # ---------------------------------------------------------------- loop
    def step(self) -> None:
        """Process exactly one live calendar entry.

        Raises :class:`SimulationError` when the calendar is empty.
        """
        heap = self._heap
        while heap:
            _key, time, _seq, timer = heappop(heap)
            fn = timer.fn
            if fn is _tombstone:
                self._cancelled -= 1
                continue
            self.now = time
            self.processed_count += 1
            args = timer.args
            timer.fn = _fired
            timer.args = ()
            fn(*args)
            return
        raise SimulationError("step() on an empty calendar")

    def run(self, until: Union[None, int, float] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            * ``None`` — run until the calendar is exhausted;
            * a time — advance the clock to it, processing every entry
              scheduled strictly before it.
        """
        stop_timer = None
        if until is not None:
            if until < self.now:
                raise SimulationError(
                    f"run(until={until!r}) is in the past (now={self.now!r})"
                )
            # A negative sequence number sorts the stop before every timer
            # at ``until``, even one scheduled after this point.
            self._seq += 1
            seq = -self._seq
            stop_timer = Timer()
            stop_timer.env = self
            stop_timer.time = until
            stop_timer.fn = self._stop_at
            stop_timer.args = ()
            heappush(self._heap, (_sort_key(until), until, seq, stop_timer))

        # The event loop proper.  This duplicates :meth:`step` deliberately:
        # inlining the dispatch into one tight loop (with the heap,
        # ``heappop`` and the two callback markers bound to locals) removes
        # two method calls and several attribute loads per calendar entry,
        # which is where the bulk of the kernel's per-event cost lives.  Any
        # behavioural change here must be mirrored in :meth:`step`.
        heap = self._heap
        pop = heappop
        tombstone, fired = _tombstone, _fired
        try:
            while heap:
                _key, time, _seq, timer = pop(heap)
                fn = timer.fn
                if fn is tombstone:
                    self._cancelled -= 1
                    continue
                self.now = time
                self.processed_count += 1
                args = timer.args
                timer.fn = fired
                timer.args = ()
                fn(*args)
        except _StopRun:
            pass  # the stop entry fired: the clock already reads ``until``
        except BaseException:
            # A callback raised before the clock reached ``until``: revoke
            # the stop entry so a later run() does not halt there.
            if stop_timer is not None:
                stop_timer.cancel()
            raise

    # Internal ----------------------------------------------------------
    def _compact(self) -> None:
        """Rebuild the calendar without tombstoned timers.

        Lazy deletion leaves cancelled entries in the heap until they are
        popped; once they outnumber live entries (see :data:`_COMPACT_MIN`)
        the heap is filtered and re-heapified in one O(n) pass.  Entry order
        is untouched — ordering lives in the ``(time, seq)`` key — so
        compaction never changes what runs when.
        """
        heap = self._heap
        # In-place so the list object keeps its identity: the inlined loop in
        # :meth:`run` holds a local reference to it across callbacks.
        heap[:] = [entry for entry in heap if entry[3].fn is not _tombstone]
        heapify(heap)
        self._cancelled = 0

    def _stop_at(self) -> None:
        raise _StopRun
