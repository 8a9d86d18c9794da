"""Property tests of :class:`repro.sim.events.FastFraction` against stdlib
:class:`fractions.Fraction`.

Every operation must give the stdlib's value and the stdlib's result
class, where a ``FastFraction`` result counts as a ``Fraction``; with only
``FastFraction`` and ``int`` operands the four arithmetic operations must
stay ``FastFraction``, so simulated times derived from contended rates
never fall back to the stdlib type.  ``repr``, ``str`` and ``hash`` match,
and pickling yields a plain ``Fraction``.
"""

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import FastFraction

ints = st.integers(-10**6, 10**6)
small_ints = st.integers(-50, 50)
dens = st.integers(1, 10**6)
fast = st.builds(FastFraction, ints, dens)
fracs = st.builds(Fraction, ints, dens)
floats = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf])
operands = fast | small_ints | ints | fracs | floats

ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
BINARY = ARITHMETIC + (operator.floordiv, operator.mod)
COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge,
               operator.eq, operator.ne)
UNARY = (operator.neg, operator.pos, abs, bool, int, float, round,
         math.floor, math.ceil, math.trunc)


def _stdlib(value):
    return Fraction(value) if type(value) is FastFraction else value


def _stdlib_class(value):
    return Fraction if type(value) is FastFraction else type(value)


def _outcome(op, *args):
    try:
        return op(*args), None
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        return None, type(exc)


def _same_value(got, want):
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return got == want


def _check(op, *args):
    got, got_exc = _outcome(op, *args)
    want, want_exc = _outcome(op, *map(_stdlib, args))
    assert got_exc is want_exc, (op, args)
    if want_exc is not None:
        return
    assert _stdlib_class(got) is type(want), (op, args, got, want)
    assert _same_value(got, want), (op, args, got, want)
    if (op in ARITHMETIC and FastFraction in map(type, args)
            and all(type(a) in (FastFraction, int) for a in args)):
        assert type(got) is FastFraction, (op, args, got)


@settings(max_examples=300, deadline=None)
@given(a=fast, b=operands)
def test_binary_operations_match_stdlib_in_both_orders(a, b):
    for op in BINARY + COMPARISONS:
        _check(op, a, b)
        _check(op, b, a)


@settings(max_examples=100, deadline=None)
@given(a=fast, exponent=st.integers(-3, 3))
def test_integer_powers_match_stdlib(a, exponent):
    _check(operator.pow, a, exponent)


@settings(max_examples=200, deadline=None)
@given(a=fast)
def test_unary_operations_match_stdlib(a):
    for op in UNARY:
        _check(op, a)


@settings(max_examples=200, deadline=None)
@given(a=fast)
def test_public_face_is_a_plain_fraction(a):
    plain = Fraction(a)
    assert repr(a) == repr(plain)
    assert str(a) == str(plain)
    assert hash(a) == hash(plain)
    assert {plain: "x"}[a] == "x"
    if a.denominator == 1:
        assert hash(a) == hash(a.numerator)
    assert a.as_integer_ratio() == plain.as_integer_ratio()
    assert isinstance(a, Fraction)


@settings(max_examples=100, deadline=None)
@given(a=fast)
def test_pickle_round_trips_to_stdlib_fraction(a):
    assert pickle.dumps(a) == pickle.dumps(Fraction(a))
    restored = pickle.loads(pickle.dumps(a))
    assert type(restored) is Fraction
    assert restored == a
    assert type(copy.deepcopy(a)) is FastFraction


@pytest.mark.parametrize("expr", [
    lambda: FastFraction(1, 3) / 0,
    lambda: FastFraction(1, 3) / FastFraction(0),
    lambda: 2 / FastFraction(0),
], ids=["by-int", "by-fast", "int-by-fast"])
def test_division_by_zero_raises(expr):
    with pytest.raises(ZeroDivisionError):
        expr()
