"""PeriodicTimeline behaves exactly like the tuple it stands for.

Every run's ``completion_times`` (and buffer timelines) are a
:class:`~repro.sim.warp.PeriodicTimeline`: the records before the warp,
one template period repeated ``k`` times ``Δ`` apart, and the tail (an
exact run's has zero periods).  Every operation a caller may use on a
tuple of the items is compared here against the materialized tuple, for
int, Fraction and zero ``Δ``, empty heads and tails, heads and tails
packed in an ``array('q')`` as the engine records ints, and a single
period.  The fingerprint's chunked ``repr`` feed is checked against the
plain one.
"""

import hashlib
import pickle
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.result import _REPR_CHUNK, update_repr
from repro.sim.warp import PeriodicTimeline

ints = st.integers(-50, 10**6)
fractions = st.fractions(min_value=-50, max_value=1000, max_denominator=12)
values = st.one_of(ints, fractions)
deltas = st.one_of(st.integers(1, 10**4), st.just(0),
                   st.fractions(min_value=Fraction(1, 7), max_value=50,
                                max_denominator=9))


def _part(draw):
    """A head or tail: a list of values, or ints in an ``array('q')``."""
    if draw(st.booleans()):
        return array("q", draw(st.lists(ints, max_size=6)))
    return draw(st.lists(values, max_size=6))


@st.composite
def timelines(draw):
    """``(timeline, the tuple it materializes to)``."""
    delta = draw(deltas)
    template_values = ints if type(delta) is int and draw(st.booleans()) \
        else values
    head = _part(draw)
    template = draw(st.lists(template_values, max_size=5))
    periods = draw(st.sampled_from([0, 1, 1, 2, 3, 7]))
    tail = _part(draw)
    replay = tuple(t + j * delta
                   for j in range(1, periods + 1) for t in template)
    timeline = PeriodicTimeline(head, template, periods, delta, tail)
    return timeline, tuple(head) + replay + tuple(tail)


def _same_items(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a == b and type(a) is type(b)


@settings(max_examples=300, deadline=None)
@given(case=timelines())
def test_len_iteration_and_indexing(case):
    timeline, expected = case
    assert len(timeline) == len(expected)
    assert bool(timeline) == bool(expected)
    _same_items(list(timeline), expected)
    for i in range(-len(expected), len(expected)):
        assert timeline[i] == expected[i]
        assert type(timeline[i]) is type(expected[i])
    for i in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            timeline[i]
    with pytest.raises(TypeError):
        timeline["0"]


@settings(max_examples=300, deadline=None)
@given(case=timelines(),
       start=st.one_of(st.none(), st.integers(-30, 30)),
       stop=st.one_of(st.none(), st.integers(-30, 30)),
       step=st.one_of(st.none(), st.integers(-4, 4).filter(bool)))
def test_slices_are_tuples(case, start, stop, step):
    timeline, expected = case
    got = timeline[start:stop:step]
    assert type(got) is tuple
    _same_items(got, expected[start:stop:step])


@settings(max_examples=300, deadline=None)
@given(case=timelines())
def test_equality_hash_and_repr(case):
    timeline, expected = case
    assert timeline == expected and expected == timeline
    assert not (timeline != expected) and not (expected != timeline)
    assert timeline == timeline
    copy = PeriodicTimeline(timeline.head, timeline.template,
                            timeline.periods, timeline.delta, timeline.tail)
    assert timeline == copy and not (timeline != copy)
    longer = expected + (0,)
    assert timeline != longer and longer != timeline
    if expected:
        changed = expected[:-1] + (expected[-1] + 1,)
        assert timeline != changed and changed != timeline
    assert timeline != list(expected)
    assert hash(timeline) == hash(expected)
    assert repr(timeline) == repr(expected)


@settings(max_examples=200, deadline=None)
@given(case=timelines())
def test_pickle_round_trip(case):
    timeline, expected = case
    restored = pickle.loads(pickle.dumps(timeline))
    assert type(restored) is PeriodicTimeline
    _same_items(list(restored), expected)


def test_pickle_stays_compact():
    timeline = PeriodicTimeline(range(14), (100, 101, 103, 105, 107),
                                200_000, 11, range(3_000_000, 3_000_010))
    assert len(timeline) == 1_000_024
    assert len(pickle.dumps(timeline)) < 1000


def test_int_replay_takes_range_values():
    timeline = PeriodicTimeline((1, 2), (5, 7), 3, 4, (30,))
    assert tuple(timeline) == (1, 2, 9, 11, 13, 15, 17, 19, 30)
    assert all(type(t) is int for t in timeline)
    assert timeline[4] == 13 and timeline[-2] == 19


def test_zero_delta_repeats_the_template():
    timeline = PeriodicTimeline((1,), (4, 4), 3, 0)
    assert tuple(timeline) == (1, 4, 4, 4, 4, 4, 4)


def test_array_parts_are_kept_not_copied():
    head, tail = array("q", range(10)), array("q", [40, 41])
    timeline = PeriodicTimeline(head, [20, 21], 2, 5, tail)
    assert timeline.head is head and timeline.tail is tail
    assert timeline == tuple(range(10)) + (25, 26, 30, 31, 40, 41)
    listed = PeriodicTimeline(list(range(3)), (), 0, 0, [7])
    assert type(listed.head) is tuple and type(listed.tail) is tuple


def test_exact_packs_only_exact_ints_that_fit():
    assert type(PeriodicTimeline.exact(range(5)).head) is array
    assert type(PeriodicTimeline.exact([]).head) is array
    for items in ([1, 2**63], [1, True], [1, 2.5], [Fraction(1, 2)]):
        timeline = PeriodicTimeline.exact(items)
        assert type(timeline.head) is tuple
        assert repr(timeline) == repr(tuple(items))


def test_rejects_negative_periods():
    with pytest.raises(ValueError):
        PeriodicTimeline((), (1,), -1, 1)


def _plain(part):
    return hashlib.sha256(repr(part).encode("utf-8")).hexdigest()


def _chunked(part):
    digest = hashlib.sha256()
    update_repr(digest, part)
    return digest.hexdigest()


@pytest.mark.parametrize("part", [
    tuple(range(3 * _REPR_CHUNK + 17)),
    tuple(Fraction(i, 7) for i in range(3 * _REPR_CHUNK + 1)),
    PeriodicTimeline(range(5), (10, 12, 13), _REPR_CHUNK + 3, 4,
                     range(10**6, 10**6 + 9)),
    PeriodicTimeline((), (Fraction(1, 3),), 3 * _REPR_CHUNK, Fraction(1, 2)),
    (7,), (), ((1, 2), (3,), ()), PeriodicTimeline((), (), 5, 1, (9,)),
    "label", 0, None, Fraction(5, 2),
    PeriodicTimeline.exact(range(3 * _REPR_CHUNK + 5)),
    PeriodicTimeline.exact([7]), PeriodicTimeline.exact(()),
])
def test_chunked_fingerprint_feed_equals_repr(part):
    assert _chunked(part) == _plain(part)
