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
from typing import Any, Callable, Optional, Union

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

    One heap entry, one attribute check, one call.  Timers are returned by
    :meth:`Environment.call_in` and :meth:`Environment.call_at` and can be
    revoked with :meth:`cancel` at any point before they fire.

    Cancellation is lazy: the heap entry stays in place, tombstoned, and the
    environment counts outstanding tombstones so it can rebuild the calendar
    once they dominate it (preemption-heavy protocol runs cancel a large
    share of their transfer timers).
    """

    __slots__ = ("env", "time", "seq", "fn", "args", "cancelled")

    def __init__(self, env: "Environment", time, seq: int,
                 fn: Callable[..., Any], args: tuple):
        self.env = env
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Revoke the timer.  Cancelling an already-fired (or already
        cancelled) timer is a no-op."""
        if self.cancelled or self.fn is _fired:
            return
        self.cancelled = True
        # Drop references so cancelled entries sitting in the heap do not pin
        # arbitrary object graphs alive until they are popped.
        self.fn = _noop
        self.args = ()
        env = self.env
        env._cancelled += 1
        if env._cancelled >= _COMPACT_MIN and env._cancelled * 2 >= len(env._heap):
            env._compact()

    @property
    def active(self) -> bool:
        """``True`` while the timer is still pending (not fired, not cancelled)."""
        return not self.cancelled and self.fn is not _fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Timer t={self.time} seq={self.seq} {state}>"


class _Entry:
    """A calendar slot for a *non-integer* time, ordered by ``(time, seq)``.

    The calendar is a mixed heap: integer-time slots are plain
    ``(time, seq, timer)`` tuples whose comparisons run entirely in C, and
    only non-integer times (:class:`FastFraction` times on contended graph
    runs, float times in user code) get one of these.  Tuple entries pay
    ``__eq__`` *and* ``__lt__`` — two Python-level calls, even on the
    :class:`FastFraction` fast path — per sift step once fractional times
    appear, which is the kernel's single hottest operation on contended
    runs (tuple-only slots measured 5% slower on a 320-host leaf-spine run
    than this class, with the fast type in both).  The entry instead caches
    the time's exact integer ratio at construction and compares by integer
    cross-multiplication, with a float pre-filter in front: float division
    of two ints is correctly rounded, and correct rounding is monotone, so
    ``approx(a) < approx(b)`` already proves ``a < b`` — only *equal*
    approximations fall through to the exact cross-multiply.

    Cross-type comparisons ride Python's reflected-operator fallback:
    ``tuple.__lt__`` returns ``NotImplemented`` for a non-tuple operand,
    so ``tuple < entry`` lands in :meth:`__gt__` below.  Every order is
    mathematically identical to the pure-tuple order for int, float and
    Fraction times alike (``as_integer_ratio`` is exact for all three),
    which is what keeps calendars — and fingerprints — bit-identical.
    """

    __slots__ = ("approx", "num", "den", "seq", "time", "timer")

    def __init__(self, time, seq: int, timer: Timer):
        self.time = time
        self.seq = seq
        self.timer = timer
        if time.__class__ is FastFraction:
            num, den = time._numerator, time._denominator
        else:
            try:
                num, den = time.as_integer_ratio()
            except (OverflowError, ValueError):
                # Infinite (or NaN) float time: den == 0 makes the exact
                # comparison below rank it after every finite time.
                num, den = (1 if time > 0 else -1), 0
        self.num = num
        self.den = den
        try:
            self.approx = num / den
        except (OverflowError, ZeroDivisionError):
            self.approx = float("inf") if num > 0 else float("-inf")

    def __lt__(self, other) -> bool:
        if other.__class__ is tuple:  # int-time slot
            lhs = self.num
            rhs = other[0] * self.den
            if lhs != rhs:
                return lhs < rhs
            return self.seq < other[1]
        a = self.approx
        b = other.approx
        if a < b:
            return True
        if b < a:
            return False
        lhs = self.num * other.den
        rhs = other.num * self.den
        if lhs != rhs:
            return lhs < rhs
        return self.seq < other.seq

    def __gt__(self, other) -> bool:
        # Reflected form of ``tuple < entry`` (and ``sorted`` symmetry).
        if other.__class__ is tuple:
            lhs = self.num
            rhs = other[0] * self.den
            if lhs != rhs:
                return lhs > rhs
            return self.seq > other[1]
        return other.__lt__(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Entry t={self.time!r} seq={self.seq} {self.timer!r}>"


def _noop(*_args: Any) -> None:
    return None


def _cancelled_entry(entry) -> bool:
    """``True`` for a tombstoned slot (either calendar shape)."""
    return (entry[2] if entry.__class__ is tuple else entry.timer).cancelled


def _fired(*_args: Any) -> None:  # sentinel assigned after a timer runs
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
    The calendar orders entries by ``(time, seq)``.  Timers take positive,
    increasing sequence numbers; the stop entry of ``run(until=t)`` takes a
    negative one, so the run stops *before* processing any timer at ``t`` —
    including one scheduled while the run is under way.
    """

    def __init__(self, initial_time: Union[int, float] = 0):
        self._now = initial_time
        #: Calendar entries — a mixed heap of two slot shapes sharing the
        #: ``(time, seq)`` total order: plain ``(time, seq, timer)`` tuples
        #: for integer times (the common case; comparisons stay entirely
        #: in C) and :class:`_Entry` objects for non-integer times (their
        #: cached integer-ratio comparison beats ``Fraction`` dispatch on
        #: contended graph runs).  Every slot holds a :class:`Timer`.
        self._heap: list = []
        self._seq = 0
        self._cancelled = 0  # tombstoned timers still sitting in the heap
        #: Number of calendar entries processed so far (monitoring hook).
        self.processed_count = 0
        #: Optional callable ``(time, timer)`` invoked before each entry runs.
        self.trace_hook: Optional[Callable[[Any, Timer], None]] = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> Union[int, float]:
        """Current virtual time."""
        return self._now

    def peek(self) -> Union[int, float]:
        """Time of the next calendar entry, or :data:`Infinity` if empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry.__class__ is tuple:
                time, _seq, timer = entry
            else:
                time, timer = entry.time, entry.timer
            if timer.cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            return time
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
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self._now!r}"
            )
        seq = self._seq + 1
        self._seq = seq
        timer = Timer(self, time, seq, fn, args)
        if time.__class__ is int:
            heappush(self._heap, (time, seq, timer))
        else:
            heappush(self._heap, _Entry(time, seq, timer))
        return timer

    def call_in(self, delay, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` after ``delay`` time units (``delay >= 0``).

        This is the protocol engine's per-event scheduling call, so it is
        :meth:`call_at` unrolled: a non-negative delay can never land in the
        past, which saves the past-check and a second method call.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self._now + delay
        seq = self._seq + 1
        self._seq = seq
        timer = Timer(self, time, seq, fn, args)
        if time.__class__ is int:
            heappush(self._heap, (time, seq, timer))
        else:
            heappush(self._heap, _Entry(time, seq, timer))
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
            entry = heappop(heap)
            if entry.__class__ is tuple:
                time, _seq, timer = entry
            else:
                time, timer = entry.time, entry.timer
            if timer.cancelled:
                self._cancelled -= 1
                continue
            self._now = time
            self.processed_count += 1
            if self.trace_hook is not None:
                self.trace_hook(time, timer)
            fn, args = timer.fn, timer.args
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
            if until < self._now:
                raise SimulationError(
                    f"run(until={until!r}) is in the past (now={self._now!r})"
                )
            # A negative sequence number sorts the stop before every timer
            # at ``until``, even one scheduled after this point.
            self._seq += 1
            seq = -self._seq
            stop_timer = Timer(self, until, seq, self._stop_at, ())
            if until.__class__ is int:
                heappush(self._heap, (until, seq, stop_timer))
            else:
                heappush(self._heap, _Entry(until, seq, stop_timer))

        # The event loop proper.  This duplicates :meth:`step` deliberately:
        # inlining the dispatch into one tight loop (with the heap and
        # ``heappop`` bound to locals) removes two method calls and several
        # attribute loads per calendar entry, which is where the bulk of the
        # kernel's per-event cost lives.  Any behavioural change here must be
        # mirrored in :meth:`step`.
        heap = self._heap
        pop = heappop
        tuple_cls = tuple
        try:
            while heap:
                entry = pop(heap)
                if entry.__class__ is tuple_cls:
                    time, _seq, timer = entry
                else:
                    time, timer = entry.time, entry.timer
                if timer.cancelled:
                    self._cancelled -= 1
                    continue
                self._now = time
                self.processed_count += 1
                if self.trace_hook is not None:
                    self.trace_hook(time, timer)
                fn = timer.fn
                # Mark fired via the fn sentinel only; clearing args too
                # would cost a second store per event for no observable
                # difference (the entry is already off the heap).
                timer.fn = _fired
                fn(*timer.args)
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
        heap[:] = [entry for entry in heap if not _cancelled_entry(entry)]
        heapify(heap)
        self._cancelled = 0

    def _stop_at(self) -> None:
        raise _StopRun
