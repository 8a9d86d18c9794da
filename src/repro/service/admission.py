"""Pluggable admission/drop policies for open-loop service runs.

When arrivals outpace the platform, something has to give: either the
root repository queue grows without bound, or the front door sheds load.
A policy is a frozen **spec** (deterministic repr, safe to hash into
checkpoint digests) whose :meth:`AdmissionPolicy.state` mints the
per-run mutable decision state.  The split mirrors
``ArrivalProcess``/iterator: specs are shareable and immutable, states
are cheap and disposable.

States expose three methods the open-loop driver relies on:

``admit(now, count, in_system)``
    How many of ``count`` tasks arriving at ``now`` to accept, given
    ``in_system`` tasks already admitted and not yet completed.  The
    remainder is dropped (counted, never retried).
``fingerprint_state(now)``
    A hashable, time-relative summary for the warp's cycle detector —
    two instants with equal summaries must make identical decisions
    forever after, given identical subsequent streams.
``shift(dt)``
    Translate any internal absolute timestamps forward by ``dt`` after
    a warp jump.

Token-bucket arithmetic is exact so refill at e.g. 1/7 tokens per step
never drifts — float drift would eventually desynchronize the warp's
replayed periods from an exact run.  The frozen spec keeps its rate a
stdlib :class:`fractions.Fraction` ``p/q`` (its repr feeds checkpoint
digests); the per-run state counts tokens in units of ``1/q``, so a
refill adds ``p`` units per timestep and a grant is a floor division by
``q``.  The level stays an int while arrival times are ints, and is an
exact rational when a multi-app lane fires at a fractional time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = ["AdmissionPolicy", "AlwaysAdmit", "QueueDepthBound",
           "TokenBucket", "parse_admission"]


class AdmissionPolicy:
    """Base class for admission policy specs."""

    def state(self):
        """Return a fresh per-run mutable decision state."""
        raise NotImplementedError


@dataclass(frozen=True)
class AlwaysAdmit(AdmissionPolicy):
    """Admit everything; drops never happen (the default)."""

    def state(self):
        return _AlwaysState()


class _AlwaysState:
    __slots__ = ()

    def admit(self, now, count, in_system):
        return count

    def fingerprint_state(self, now):
        return ()

    def shift(self, dt):
        pass


@dataclass(frozen=True)
class QueueDepthBound(AdmissionPolicy):
    """Admit only while fewer than ``limit`` tasks are in the system.

    ``in_system`` counts admitted-but-uncompleted tasks (queued at the
    repository or in flight), so this bounds total outstanding work —
    the classic finite-buffer M/G/k drop rule.
    """

    limit: int

    def __post_init__(self):
        if self.limit <= 0:
            raise ValueError(f"queue limit must be > 0, got {self.limit!r}")

    def state(self):
        return _QueueState(self.limit)


class _QueueState:
    __slots__ = ("limit",)

    def __init__(self, limit):
        self.limit = limit

    def admit(self, now, count, in_system):
        room = self.limit - in_system
        if room <= 0:
            return 0
        return count if count <= room else room

    def fingerprint_state(self, now):
        return ()

    def shift(self, dt):
        pass


@dataclass(frozen=True)
class TokenBucket(AdmissionPolicy):
    """Token-bucket rate limiter: ``rate`` tokens per timestep, at most
    ``burst`` banked; each admitted task spends one token.

    ``rate`` may be an int, a float, or a string like ``"1/7"`` — all
    are converted to an exact :class:`~fractions.Fraction`.
    """

    rate: Union[int, float, str, Fraction]
    burst: int

    def __post_init__(self):
        rate = Fraction(self.rate)
        object.__setattr__(self, "rate", rate)
        if rate <= 0:
            raise ValueError(f"token rate must be > 0, got {self.rate!r}")
        if self.burst <= 0:
            raise ValueError(f"burst must be > 0, got {self.burst!r}")

    def state(self):
        return _TokenState(self.rate, self.burst)


class _TokenState:
    """Token level as a count of ``1/q`` units, for ``rate = p/q``."""

    __slots__ = ("p", "q", "cap", "level", "last")

    def __init__(self, rate, burst):
        self.p = rate.numerator
        self.q = rate.denominator
        self.cap = burst * self.q
        self.level = self.cap  # starts full
        self.last = 0

    def admit(self, now, count, in_system):
        if now != self.last:
            level = self.level + self.p * (now - self.last)
            cap = self.cap
            self.level = cap if level > cap else level
            self.last = now
        q = self.q
        grant = self.level // q
        if grant > count:
            grant = count
        if grant:
            self.level -= grant * q
        return grant

    def fingerprint_state(self, now):
        # ``q`` is fixed per state, so equal levels are equal token counts.
        return (self.level, now - self.last)

    def shift(self, dt):
        self.last += dt


def parse_admission(spec: str) -> AdmissionPolicy:
    """Parse a CLI admission spec string into a policy.

    Formats::

        always
        queue:limit=64
        token:rate=0.05,burst=16      (rate also accepts p/q, e.g. 1/20)
    """
    kind, _, body = spec.partition(":")
    kind = kind.strip()
    fields = {}
    for item in body.split(","):
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(
                f"bad admission spec {spec!r}: expected key=value, "
                f"got {item!r}")
        fields[key.strip()] = value.strip()
    try:
        if kind == "always":
            policy = AlwaysAdmit()
        elif kind == "queue":
            policy = QueueDepthBound(limit=int(fields.pop("limit")))
        elif kind == "token":
            policy = TokenBucket(rate=Fraction(fields.pop("rate")),
                                 burst=int(fields.pop("burst")))
        else:
            raise ValueError(
                f"unknown admission kind {kind!r}; choose always/queue/token")
    except KeyError as missing:
        raise ValueError(
            f"admission spec {spec!r} needs {missing.args[0]}=") from None
    if fields:
        raise ValueError(
            f"admission spec {spec!r} has unknown keys {sorted(fields)}")
    return policy
