"""Admission-policy semantics and the spec/state split."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (AlwaysAdmit, QueueDepthBound, TokenBucket,
                           parse_admission)


class TestAlwaysAdmit:
    def test_admits_everything(self):
        state = AlwaysAdmit().state()
        assert state.admit(0, 5, 0) == 5
        assert state.admit(100, 3, 10**9) == 3
        assert state.fingerprint_state(100) == ()


class TestQueueDepthBound:
    def test_bounds_in_system(self):
        state = QueueDepthBound(limit=10).state()
        assert state.admit(0, 4, 0) == 4
        assert state.admit(1, 4, 8) == 2      # room-capped
        assert state.admit(2, 4, 10) == 0     # full
        assert state.admit(3, 4, 12) == 0     # over-full stays closed

    def test_states_are_independent(self):
        policy = QueueDepthBound(limit=1)
        assert policy.state().admit(0, 1, 0) == 1
        assert policy.state().admit(0, 1, 0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueDepthBound(limit=0)


class TestTokenBucket:
    def test_starts_full_and_refills_exactly(self):
        state = TokenBucket(rate="1/7", burst=3).state()
        assert state.admit(0, 5, 0) == 3       # full bucket drained
        assert state.admit(6, 5, 0) == 0       # 6/7 tokens: not yet one
        assert state.admit(7, 5, 0) == 1       # exactly one banked
        assert state.level == 0                # no tokens (nor 1/7 units) left

    def test_burst_caps_banked_tokens(self):
        state = TokenBucket(rate=1, burst=4).state()
        state.admit(0, 4, 0)
        assert state.admit(100, 10, 0) == 4    # 100 steps bank only burst

    def test_fractional_tokens_are_exact(self):
        assert TokenBucket(rate="1/7", burst=1).rate == Fraction(1, 7)
        state = TokenBucket(rate="1/3", burst=2).state()
        state.admit(0, 2, 0)
        granted = sum(state.admit(t, 1, 0) for t in range(1, 31))
        assert granted == 10                   # 30 steps at 1/3: exactly 10

    def test_fingerprint_is_time_relative(self):
        state = TokenBucket(rate="1/7", burst=3).state()
        state.admit(0, 5, 0)
        before = state.fingerprint_state(3)
        state.shift(1000)
        assert state.fingerprint_state(1003) == before

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


class _ReferenceBucket:
    """The token bucket in plain ``Fraction`` tokens: the model the
    integer-unit state must match."""

    def __init__(self, rate, burst):
        self.rate = Fraction(rate)
        self.burst = Fraction(burst)
        self.tokens = self.burst
        self.last = 0

    def admit(self, now, count):
        if now != self.last:
            self.tokens = min(self.burst,
                              self.tokens + self.rate * (now - self.last))
            self.last = now
        grant = min(count, math.floor(self.tokens))
        self.tokens -= grant
        return grant

    def fingerprint_state(self, now):
        return (self.tokens, now - self.last)

    def shift(self, dt):
        self.last += dt


rates = (st.integers(1, 5)
         | st.builds("{}/{}".format, st.integers(1, 30), st.integers(1, 30))
         | st.floats(0.01, 5.0)
         | st.fractions(Fraction(1, 40), 5, max_denominator=40))
steps = st.tuples(
    st.sampled_from(["admit", "shift"]),
    st.just(0) | st.integers(1, 20)
    | st.fractions(0, 20, max_denominator=6),   # repeated and fractional
    st.integers(0, 12))                         # often above the level


class TestTokenBucketMatchesReference:
    @given(rate=rates, burst=st.integers(1, 8),
           program=st.lists(steps, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_grants_and_fingerprint_classes(self, rate, burst, program):
        state = TokenBucket(rate=rate, burst=burst).state()
        reference = _ReferenceBucket(rate, burst)
        now = 0
        prints = []
        for op, dt, count in program:
            now += dt
            if op == "shift":
                state.shift(dt)
                reference.shift(dt)
            else:
                assert state.admit(now, count, 0) == \
                    reference.admit(now, count)
            prints.append((state.fingerprint_state(now),
                           reference.fingerprint_state(now)))
        for ours, theirs in prints:
            for ours2, theirs2 in prints:
                assert (ours == ours2) == (theirs == theirs2)


class TestParse:
    def test_round_trips(self):
        assert parse_admission("always") == AlwaysAdmit()
        assert parse_admission("queue:limit=64") == QueueDepthBound(limit=64)
        assert parse_admission("token:rate=1/20,burst=16") == \
            TokenBucket(rate=Fraction(1, 20), burst=16)

    @pytest.mark.parametrize("spec", [
        "queue",                       # missing limit
        "token:rate=0.1",              # missing burst
        "token:rate=0.1,burst=2,x=1",  # unknown key
        "lottery:odds=1",              # unknown kind
    ])
    def test_bad_strings_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_admission(spec)
