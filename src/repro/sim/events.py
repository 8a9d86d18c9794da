"""Exact simulated-time arithmetic for the discrete-event kernel.

:class:`FastFraction` is the rational type of contended graph runs: link
capacities, flow rates, remaining volumes, leg durations and the calendar
times derived from them.  The calendar itself lives in
:mod:`repro.sim.core`, whose non-integer slots read a ``FastFraction``'s
terms directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["FastFraction"]

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
