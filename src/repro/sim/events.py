"""Event primitives for the discrete-event kernel.

An :class:`Event` moves through three states:

``pending`` → ``triggered`` (a value or exception is set and the event sits
in the calendar) → ``processed`` (its callbacks have run).

Composite conditions (:class:`AllOf` / :class:`AnyOf`) fire according to the
state of their child events.  Failed events must either have a callback
attached (a waiting process counts) or be explicitly ``defused``; otherwise
the failure surfaces from :meth:`Environment.run`, so errors are never
silently dropped.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappush
from math import gcd
from typing import Any, Callable, Dict, List, Optional

from ..errors import SimulationError

__all__ = ["Event", "Timeout", "Condition", "AllOf", "AnyOf", "ConditionValue",
           "PENDING", "FastFraction"]

#: Default calendar priority; must match :data:`repro.sim.core.NORMAL`
#: (duplicated here because :mod:`repro.sim.core` imports this module).
_NORMAL = 1

_new = object.__new__


class FastFraction(Fraction):
    """An exact rational for simulated times, rates and volumes.

    A :class:`~fractions.Fraction` whose ``+ - * /``, comparisons and
    truth test take a fast path when the other operand is a
    ``FastFraction`` or an ``int``: the stdlib's own gcd reductions
    (Knuth, TAOCP 4.5.1) in one Python frame, with the result built by
    ``object.__new__``.  Stdlib ``Fraction`` runs the same algorithms
    behind ``numbers`` ABC ``isinstance`` checks and a second, normalizing
    ``Fraction.__new__``; on contended graph runs that dispatch was a
    third of all self time.  Any other operand (a stdlib ``Fraction``, a
    float, a complex) defers to ``Fraction``, so result types follow the
    stdlib rules: a float operand gives a float, a ``Fraction`` operand a
    ``Fraction``.

    The type is closed under its own arithmetic with ints, so once the
    contention manager's capacities are ``FastFraction`` every rate,
    remaining volume, leg duration and calendar time derived from them is
    too.  Outwardly it is a plain ``Fraction``: the same ``repr``, ``str``
    and hash, equal to every equal number, and it pickles as a stdlib
    ``Fraction`` — fingerprints and checkpoints never see the subclass.

    Relies on stdlib ``Fraction`` storing its terms, normalized with a
    positive denominator, in the ``_numerator`` and ``_denominator``
    slots (Python 3.10–3.12, the versions CI runs);
    ``tests/sim/test_fast_fraction.py`` checks every operation against
    the stdlib.
    """

    __slots__ = ()

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    def __reduce__(self):
        # The stdlib's own reduction, whose form differs across versions.
        return Fraction(self._numerator, self._denominator).__reduce__()

    __hash__ = Fraction.__hash__  # defining __eq__ would drop it

    def __bool__(a):
        return a._numerator != 0

    # ---------------------------------------------------------- arithmetic
    def __add__(a, b):
        cls = b.__class__
        if cls is FastFraction:
            na, da = a._numerator, a._denominator
            nb, db = b._numerator, b._denominator
            g = gcd(da, db)
            if g == 1:
                n, d = na * db + da * nb, da * db
            else:
                s = da // g
                t = na * (db // g) + nb * s
                g2 = gcd(t, g)
                if g2 == 1:
                    n, d = t, s * db
                else:
                    n, d = t // g2, s * (db // g2)
        elif cls is int:
            d = a._denominator
            n = a._numerator + b * d
        else:
            return Fraction.__add__(a, b)
        r = _new(FastFraction)
        r._numerator = n
        r._denominator = d
        return r

    # + and * commute, so the reflected forms are the forward ones: same
    # value and class for int operands and for every deferred type.
    __radd__ = __add__

    def __sub__(a, b):
        cls = b.__class__
        if cls is FastFraction:
            na, da = a._numerator, a._denominator
            nb, db = b._numerator, b._denominator
            g = gcd(da, db)
            if g == 1:
                n, d = na * db - da * nb, da * db
            else:
                s = da // g
                t = na * (db // g) - nb * s
                g2 = gcd(t, g)
                if g2 == 1:
                    n, d = t, s * db
                else:
                    n, d = t // g2, s * (db // g2)
        elif cls is int:
            d = a._denominator
            n = a._numerator - b * d
        else:
            return Fraction.__sub__(a, b)
        r = _new(FastFraction)
        r._numerator = n
        r._denominator = d
        return r

    def __rsub__(a, b):
        if b.__class__ is int:
            d = a._denominator
            r = _new(FastFraction)
            r._numerator = b * d - a._numerator
            r._denominator = d
            return r
        return Fraction.__rsub__(a, b)

    def __mul__(a, b):
        cls = b.__class__
        if cls is FastFraction:
            na, da = a._numerator, a._denominator
            nb, db = b._numerator, b._denominator
            g1 = gcd(na, db)
            if g1 > 1:
                na //= g1
                db //= g1
            g2 = gcd(nb, da)
            if g2 > 1:
                nb //= g2
                da //= g2
            n, d = na * nb, db * da
        elif cls is int:
            n, d = a._numerator, a._denominator
            g = gcd(b, d)
            if g > 1:
                n, d = n * (b // g), d // g
            else:
                n *= b
        else:
            return Fraction.__mul__(a, b)
        r = _new(FastFraction)
        r._numerator = n
        r._denominator = d
        return r

    __rmul__ = __mul__

    def __truediv__(a, b):
        cls = b.__class__
        if cls is FastFraction:
            na, da = a._numerator, a._denominator
            nb, db = b._numerator, b._denominator
            if not nb:
                raise ZeroDivisionError("Fraction division by zero")
            g1 = gcd(na, nb)
            if g1 > 1:
                na //= g1
                nb //= g1
            g2 = gcd(db, da)
            if g2 > 1:
                da //= g2
                db //= g2
            n, d = na * db, nb * da
        elif cls is int:
            if not b:
                raise ZeroDivisionError("Fraction division by zero")
            n = a._numerator
            g = gcd(n, b)
            n, d = n // g, a._denominator * (b // g)
        else:
            return Fraction.__truediv__(a, b)
        if d < 0:
            n, d = -n, -d
        r = _new(FastFraction)
        r._numerator = n
        r._denominator = d
        return r

    def __rtruediv__(a, b):
        if b.__class__ is int:
            na = a._numerator
            if not na:
                raise ZeroDivisionError("Fraction division by zero")
            g = gcd(b, na)
            n, d = (b // g) * a._denominator, na // g
            if d < 0:
                n, d = -n, -d
            r = _new(FastFraction)
            r._numerator = n
            r._denominator = d
            return r
        return Fraction.__rtruediv__(a, b)

    # --------------------------------------------------------- comparisons
    # Denominators are positive, so cross-multiplying preserves order.
    def __eq__(a, b):
        cls = b.__class__
        if cls is FastFraction:
            return (a._numerator == b._numerator
                    and a._denominator == b._denominator)
        if cls is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    def __lt__(a, b):
        cls = b.__class__
        if cls is FastFraction:
            return (a._numerator * b._denominator
                    < b._numerator * a._denominator)
        if cls is int:
            return a._numerator < b * a._denominator
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        cls = b.__class__
        if cls is FastFraction:
            return (a._numerator * b._denominator
                    <= b._numerator * a._denominator)
        if cls is int:
            return a._numerator <= b * a._denominator
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        cls = b.__class__
        if cls is FastFraction:
            return (a._numerator * b._denominator
                    > b._numerator * a._denominator)
        if cls is int:
            return a._numerator > b * a._denominator
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        cls = b.__class__
        if cls is FastFraction:
            return (a._numerator * b._denominator
                    >= b._numerator * a._denominator)
        if cls is int:
            return a._numerator >= b * a._denominator
        return Fraction.__ge__(a, b)


class _Entry:
    """A calendar slot for a *non-integer* time, ordered by
    ``(time, priority, sequence)``.

    Lives here (not in :mod:`repro.sim.core`) because the zero-delay
    trigger path below pushes entries too and core imports this module.

    The calendar is a mixed heap: integer-time slots are plain
    ``(time, prio, seq, item)`` tuples whose comparisons run entirely in
    C, and only non-integer times (:class:`FastFraction` times on
    contended graph runs, float times in user code) get one of these.
    Tuple entries pay ``__eq__`` *and* ``__lt__`` — two Python-level
    calls, even on the :class:`FastFraction` fast path — per sift step
    once fractional times appear, which is the kernel's single hottest
    operation on contended runs (tuple-only slots measured 5% slower on
    a 320-host leaf-spine run than this class, with the fast type in
    both).  The entry instead caches the time's exact integer ratio at
    construction and compares by integer cross-multiplication, with a
    float pre-filter in front: float division of two ints is correctly
    rounded, and correct rounding is monotone, so ``approx(a) <
    approx(b)`` already proves ``a < b`` — only *equal* approximations
    fall through to the exact cross-multiply.

    Cross-type comparisons ride Python's reflected-operator fallback:
    ``tuple.__lt__`` returns ``NotImplemented`` for a non-tuple operand,
    so ``tuple < entry`` lands in :meth:`__gt__` below.  Every order is
    mathematically identical to the pure-tuple order for int, float and
    Fraction times alike (``as_integer_ratio`` is exact for all three),
    which is what keeps calendars — and fingerprints — bit-identical.
    """

    __slots__ = ("approx", "num", "den", "prio", "seq", "time", "item")

    def __init__(self, time, prio, seq, item):
        self.time = time
        self.prio = prio
        self.seq = seq
        self.item = item
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
            if self.prio != other[1]:
                return self.prio < other[1]
            return self.seq < other[2]
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
        if self.prio != other.prio:
            return self.prio < other.prio
        return self.seq < other.seq

    def __gt__(self, other) -> bool:
        # Reflected form of ``tuple < entry`` (and ``sorted`` symmetry).
        if other.__class__ is tuple:
            lhs = self.num
            rhs = other[0] * self.den
            if lhs != rhs:
                return lhs > rhs
            if self.prio != other[1]:
                return self.prio > other[1]
            return self.seq > other[2]
        return other.__lt__(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<_Entry t={self.time!r} prio={self.prio} "
                f"seq={self.seq} {self.item!r}>")


class _Pending:
    """Sentinel for 'no value yet'."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """A one-shot occurrence on the simulation timeline.

    Events carry either a *value* (on success) or an *exception* (on
    failure).  Processes wait on events by ``yield``-ing them; plain code can
    attach callbacks to :attr:`callbacks`.
    """

    __slots__ = ("env", "callbacks", "_value", "_failed", "defused")

    def __init__(self, env):
        self.env = env
        #: Callbacks, each invoked as ``cb(event)`` when the event is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._failed = False
        #: Set to ``True`` to acknowledge a failure and suppress propagation.
        self.defused = False

    # ------------------------------------------------------------- state
    @property
    def triggered(self) -> bool:
        """``True`` once a value/exception has been set."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run."""
        return self.callbacks is None

    @property
    def pending(self) -> bool:
        """``True`` before the event is triggered."""
        return self._value is PENDING

    @property
    def failed(self) -> bool:
        """``True`` if the event was triggered via :meth:`fail`."""
        return self._failed

    @property
    def value(self) -> Any:
        """The event's value (or exception instance for failed events)."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def _ok_value(self) -> Any:
        if self._failed:
            raise self._value
        return self._value if self._value is not PENDING else None

    # ---------------------------------------------------------- triggering
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        # Inlined zero-delay Environment.schedule (hot path: every event
        # trigger goes through here).
        env = self.env
        seq = env._seq + 1
        env._seq = seq
        now = env._now
        if now.__class__ is int:
            heappush(env._heap, (now, _NORMAL, seq, self))
        else:
            heappush(env._heap, _Entry(now, _NORMAL, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = exception
        self._failed = True
        env = self.env
        seq = env._seq + 1
        env._seq = seq
        now = env._now
        if now.__class__ is int:
            heappush(env._heap, (now, _NORMAL, seq, self))
        else:
            heappush(env._heap, _Entry(now, _NORMAL, seq, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of another event onto this one (callback shape)."""
        if event._failed:
            self.fail(event._value)
        else:
            self.succeed(event._value)

    # ---------------------------------------------------------- processing
    def _process(self) -> None:
        callbacks = self.callbacks
        if callbacks is None:
            raise SimulationError(f"{self!r} processed twice")
        self.callbacks = None
        for cb in callbacks:
            cb(self)
        if self._failed and not self.defused:
            # A failure nobody acknowledged: surface it from the event loop.
            raise self._value

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; raises if the event was already processed."""
        if self.callbacks is None:
            raise SimulationError("cannot attach a callback to a processed event")
        self.callbacks.append(callback)

    # ------------------------------------------------------------ operators
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{self.__class__.__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env, delay, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        seq = env._seq + 1
        env._seq = seq
        time = env._now + delay
        if time.__class__ is int:
            heappush(env._heap, (time, _NORMAL, seq, self))
        else:
            heappush(env._heap, _Entry(time, _NORMAL, seq, self))


class ConditionValue:
    """Ordered mapping of child events to their values for conditions.

    Behaves like a read-only dict keyed by the original event objects, plus
    :meth:`todict` for a plain copy.
    """

    def __init__(self, events: List[Event]):
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(key)
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def keys(self):
        return iter(self.events)

    def values(self):
        return (e._value for e in self.events)

    def items(self):
        return ((e, e._value) for e in self.events)

    def todict(self) -> Dict[Event, Any]:
        """Plain ``dict`` snapshot of event → value."""
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConditionValue({self.todict()!r})"


class Condition(Event):
    """Base class for composite events over a fixed set of child events."""

    __slots__ = ("_events", "_count")

    def __init__(self, env, events: List[Event]):
        super().__init__(env)
        self._events = events
        self._count = 0
        for event in events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        # Check already-triggered children immediately for determinism.
        for event in events:
            if event.callbacks is None:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)
        if not events and self._value is PENDING:
            self.succeed(ConditionValue([]))

    def _satisfied(self, fired_count: int, total: int) -> bool:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if event._failed:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied(self._count, len(self._events)):
            # Only children whose callbacks have run are included: a Timeout
            # is "triggered" from creation, but its occurrence is its
            # processing time.
            fired = [e for e in self._events if e.callbacks is None and not e.failed]
            self.succeed(ConditionValue(fired))


class AllOf(Condition):
    """Fires when every child event has fired (fails fast on any failure)."""

    __slots__ = ()

    def _satisfied(self, fired_count: int, total: int) -> bool:
        return fired_count == total


class AnyOf(Condition):
    """Fires when at least one child event has fired."""

    __slots__ = ()

    def _satisfied(self, fired_count: int, total: int) -> bool:
        return fired_count >= 1
