"""Discrete-event simulation kernel: the event loop.

This module is the substrate that replaces the SimGrid toolkit used in the
paper.  It provides a :class:`Environment` with a binary-heap event calendar,
virtual (integer- or float-valued) time, and two scheduling APIs:

* a **high-level API** in the style of SimPy — :class:`~repro.sim.events.Event`,
  :class:`~repro.sim.events.Timeout` and generator-based
  :class:`~repro.sim.process.Process` coroutines — which no engine, example
  or driver uses, and
* a **low-level timer API** (:meth:`Environment.call_in` /
  :meth:`Environment.call_at`) returning cancellable :class:`Timer` handles,
  which every engine, the open-loop driver, telemetry and warp run on.

Both APIs share one calendar, so they can be mixed freely.  Determinism:
entries are ordered by ``(time, priority, sequence)`` where the sequence
number increases monotonically with scheduling order, so runs with the same
seed replay identically.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, Optional, Union

from ..errors import SimulationError
from .events import AllOf, AnyOf, Event, Timeout, PENDING, _Entry

__all__ = ["Environment", "Timer", "Infinity", "NORMAL", "URGENT"]

#: Placeholder for "run forever" / "never".
Infinity: float = float("inf")

#: Default scheduling priority (larger runs later at equal times).
NORMAL = 1
#: Priority used for loop-control entries such as ``run(until=...)`` stops.
URGENT = 0

#: Compaction trigger: once at least this many cancelled timers sit in the
#: heap *and* they outnumber the live entries, the calendar is rebuilt.
_COMPACT_MIN = 1024


class Timer:
    """A cancellable low-level callback scheduled on the event calendar.

    Timers are the fast path of the kernel: one heap entry, one attribute
    check, one call.  They are returned by :meth:`Environment.call_in` and
    :meth:`Environment.call_at` and can be revoked with :meth:`cancel` at any
    point before they fire.

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

    def __lt__(self, other: "Timer") -> bool:  # heap tie-break safety net
        return (self.time, self.seq) < (other.time, other.seq)

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


def _noop(*_args: Any) -> None:
    return None


def _cancelled_entry(entry) -> bool:
    """``True`` for a tombstoned Timer slot (either calendar shape)."""
    item = entry[3] if entry.__class__ is tuple else entry.item
    return item.__class__ is Timer and item.cancelled


def _fired(*_args: Any) -> None:  # sentinel assigned after a timer runs
    return None


class _StopRun(Exception):
    """Internal control-flow exception used by ``run(until=...)``."""

    def __init__(self, value: Any = None):
        self.value = value


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
    The calendar orders entries by ``(time, priority, seq)``.  ``priority``
    is :data:`NORMAL` for user entries and :data:`URGENT` for loop-control
    entries, matching the convention that ``run(until=t)`` stops *before*
    processing events scheduled exactly at ``t``.
    """

    def __init__(self, initial_time: Union[int, float] = 0):
        self._now = initial_time
        #: Calendar entries — a mixed heap of two slot shapes sharing the
        #: ``(time, priority, seq)`` total order: plain tuples for
        #: integer times (the common case; comparisons stay entirely in
        #: C) and :class:`~repro.sim.events._Entry` objects for
        #: non-integer times (their cached integer-ratio comparison beats
        #: ``Fraction`` dispatch on contended graph runs).
        self._heap: list = []
        self._seq = 0
        self._cancelled = 0  # tombstoned timers still sitting in the heap
        #: Number of calendar entries processed so far (monitoring hook).
        self.processed_count = 0
        #: Optional callable ``(time, item)`` invoked before each entry runs.
        self.trace_hook: Optional[Callable[[Any, Any], None]] = None
        self._active_process = None  # set by Process while executing

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> Union[int, float]:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self):
        """The :class:`~repro.sim.process.Process` currently executing, if any."""
        return self._active_process

    def peek(self) -> Union[int, float]:
        """Time of the next calendar entry, or :data:`Infinity` if empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry.__class__ is tuple:
                time, _prio, _seq, item = entry
            else:
                time, item = entry.time, entry.item
            if item.__class__ is Timer and item.cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            return time
        return Infinity

    def is_empty(self) -> bool:
        """``True`` when no live calendar entries remain."""
        return self.peek() is Infinity

    # ----------------------------------------------------------- low level
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
            heappush(self._heap, (time, NORMAL, seq, timer))
        else:
            heappush(self._heap, _Entry(time, NORMAL, seq, timer))
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
            heappush(self._heap, (time, NORMAL, seq, timer))
        else:
            heappush(self._heap, _Entry(time, NORMAL, seq, timer))
        return timer

    # ---------------------------------------------------------- high level
    def schedule(self, event: Event, delay: Union[int, float] = 0,
                 priority: int = NORMAL) -> None:
        """Insert a triggered :class:`Event` into the calendar.

        Normally invoked through :meth:`Event.succeed` / :meth:`Event.fail`
        rather than directly.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._seq += 1
        time = self._now + delay
        if time.__class__ is int:
            heappush(self._heap, (time, priority, self._seq, event))
        else:
            heappush(self._heap, _Entry(time, priority, self._seq, event))

    def event(self) -> Event:
        """Create a new untriggered :class:`Event` bound to this environment."""
        return Event(self)

    def timeout(self, delay, value: Any = None) -> Timeout:
        """Create and schedule a :class:`Timeout` firing after ``delay``."""
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        """Start a coroutine :class:`~repro.sim.process.Process`."""
        from .process import Process

        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event that fires once *all* ``events`` have fired."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition event that fires once *any* of ``events`` has fired."""
        return AnyOf(self, list(events))

    # ---------------------------------------------------------------- loop
    def step(self) -> None:
        """Process exactly one calendar entry.

        Raises :class:`SimulationError` when the calendar is empty.  Failed
        events with no registered callbacks propagate their exception out of
        the loop (they would otherwise be silently lost).
        """
        heap = self._heap
        while True:
            if not heap:
                raise SimulationError("step() on an empty calendar")
            entry = heappop(heap)
            if entry.__class__ is tuple:
                time, _prio, _seq, item = entry
            else:
                time, item = entry.time, entry.item
            if item.__class__ is Timer:
                if item.cancelled:
                    self._cancelled -= 1
                    continue
                self._now = time
                self.processed_count += 1
                if self.trace_hook is not None:
                    self.trace_hook(time, item)
                fn, args = item.fn, item.args
                item.fn = _fired
                item.args = ()
                fn(*args)
                return
            # High-level Event
            self._now = time
            self.processed_count += 1
            if self.trace_hook is not None:
                self.trace_hook(time, item)
            item._process()
            return

    def run(self, until: Union[None, int, float, Event] = None) -> Any:
        """Run the event loop.

        Parameters
        ----------
        until:
            * ``None`` — run until the calendar is exhausted;
            * a number — advance the clock to that time, processing every
              entry scheduled strictly before it;
            * an :class:`Event` — run until that event has been processed and
              return its value (re-raising its exception if it failed).
        """
        stop_timer = None
        if until is None:
            stop_event = None
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event._ok_value()
            stop_event.callbacks.append(self._stop_on_event)
        else:
            if until < self._now:
                raise SimulationError(
                    f"run(until={until!r}) is in the past (now={self._now!r})"
                )
            stop_event = None
            self._seq += 1
            stop_timer = Timer(self, until, self._seq, self._stop_at, ())
            if until.__class__ is int:
                heappush(self._heap, (until, URGENT, self._seq, stop_timer))
            else:
                heappush(self._heap,
                         _Entry(until, URGENT, self._seq, stop_timer))

        # The event loop proper.  This duplicates :meth:`step` deliberately:
        # inlining the dispatch into one tight loop (with the heap and
        # ``heappop`` bound to locals) removes two method calls and several
        # attribute loads per calendar entry, which is where the bulk of the
        # kernel's per-event cost lives.  Any behavioural change here must be
        # mirrored in :meth:`step`.
        heap = self._heap
        pop = heappop
        timer_cls = Timer
        tuple_cls = tuple
        try:
            while heap:
                entry = pop(heap)
                if entry.__class__ is tuple_cls:
                    time, _prio, _seq, item = entry
                else:
                    time, item = entry.time, entry.item
                if item.__class__ is timer_cls:
                    if item.cancelled:
                        self._cancelled -= 1
                        continue
                    self._now = time
                    self.processed_count += 1
                    if self.trace_hook is not None:
                        self.trace_hook(time, item)
                    fn = item.fn
                    # Mark fired via the fn sentinel only; clearing args too
                    # would cost a second store per event for no observable
                    # difference (the entry is already off the heap).
                    item.fn = _fired
                    fn(*item.args)
                else:
                    self._now = time
                    self.processed_count += 1
                    if self.trace_hook is not None:
                        self.trace_hook(time, item)
                    item._process()
        except _StopRun as stop:
            return stop.value
        except BaseException:
            # A callback raised before the clock reached ``until``: revoke
            # the stop entry so a later run() does not halt there.
            if stop_timer is not None:
                stop_timer.cancel()
            raise
        if isinstance(until, Event):
            raise SimulationError(
                "run() terminated: calendar exhausted before the 'until' "
                "event was triggered"
            )
        if until is not None:
            # Heap drained before reaching the stop time: clock jumps to it.
            self._now = until
        return None

    # Internal ----------------------------------------------------------
    def _compact(self) -> None:
        """Rebuild the calendar without tombstoned timers.

        Lazy deletion leaves cancelled entries in the heap until they are
        popped; once they outnumber live entries (see :data:`_COMPACT_MIN`)
        the heap is filtered and re-heapified in one O(n) pass.  Entry order
        is untouched — ordering lives in the ``(time, priority, seq)`` tuple
        prefix — so compaction never changes what runs when.
        """
        heap = self._heap
        # In-place so the list object keeps its identity: the inlined loop in
        # :meth:`run` holds a local reference to it across callbacks.
        heap[:] = [entry for entry in heap if not _cancelled_entry(entry)]
        heapify(heap)
        self._cancelled = 0

    def _stop_at(self) -> None:
        raise _StopRun(None)

    def _stop_on_event(self, event: Event) -> None:
        if event.failed and not event.defused:
            event.defused = True
            raise event._value from None
        raise _StopRun(event._value if event._value is not PENDING else None)
