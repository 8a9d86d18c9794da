"""The open-loop driver: feeds an arrival process into a running engine.

One driver instance rides along with one protocol engine (each
multi-app lane gets its own).  It keeps exactly **one** arrival timer
on the calendar at a time — the next event of the lazy stream — so the
calendar never holds a materialized day of traffic.  When the timer
fires it offers the event's tasks to the admission policy, credits the
admitted count to the root repository (the same refill-and-kick
sequence the fault layer uses when reclaiming lost tasks), and pulls
the next event from the iterator.

Latency pairing: tasks in this model are indistinguishable, so the
driver attributes each completion to the **oldest outstanding arrival**
(FIFO).  For fungible tasks this relabeling is exact — the multiset of
sojourn latencies under any admissible attribution has the same totals,
and FIFO is the canonical minimal-spread choice — and it needs only a
deque of admitted arrival timestamps whose length equals the
in-system count (bounded by the admission policy, not the stream
length).

Warp protocol: the driver exposes ``fingerprint_state`` (and a class
``id``) so the warp's canonicalizer treats its timer as a legitimate
calendar citizen, plus snapshot/apply hooks so an exactly-periodic
arrival pattern can be fast-forwarded — counters scale by ``k``, the
latency sketch replays one period's template with weight ``k``, the
pending deque and admission state translate in time, and the arrival
iterator ``skip``s the elided events.  The result of a warped run is
bit-identical to the exact run, latency fold included.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Optional

from .admission import AlwaysAdmit
from .slo import LatencySketch, ServiceStats

__all__ = ["OpenLoopDriver"]


class OpenLoopDriver:
    """Streams one arrival process into one engine; accumulates SLOs."""

    #: Calendar-owner identity for the warp canonicalizer.  Node agents
    #: use their non-negative tree ids; -1 is reserved for the driver.
    id = -1

    __slots__ = ("engine", "arrivals", "admission", "_policy", "_iter",
                 "_next", "offered", "admitted", "dropped", "completed",
                 "events_emitted", "pending", "pending_high_water",
                 "sketch", "busy_time", "_busy_since", "saturated_time",
                 "_sat_since", "_template", "_root")

    def __init__(self, engine, arrivals, admission=None):
        self.engine = engine
        self.arrivals = arrivals
        self.admission = admission if admission is not None else AlwaysAdmit()
        self._policy = self.admission.state()
        self._iter = arrivals.events()
        self._next = None
        self.offered = 0
        self.admitted = 0
        self.dropped = 0
        self.completed = 0
        self.events_emitted = 0
        #: Arrival timestamps of admitted, not-yet-completed tasks.
        self.pending = deque()
        self.pending_high_water = 0
        self.sketch = LatencySketch()
        self.busy_time = 0          # closed in-service interval total
        self._busy_since = None     # open interval start (in_system > 0)
        self.saturated_time = 0     # closed backlogged-repository total
        self._sat_since = None      # open interval start (undispensed > 0)
        self._template = None       # per-period latencies while warp-armed
        self._root = None

    # -- engine lifecycle -------------------------------------------------

    def arm(self) -> None:
        engine = self.engine
        self._root = engine.nodes[engine.tree.root]
        self._schedule_next()

    def _schedule_next(self) -> None:
        nxt = next(self._iter, None)
        self._next = nxt
        if nxt is not None:
            env = self.engine.env
            # Events scheduled before the app's staggered arrival time
            # (multi-app lanes arm late) land at arm time instead.
            time = nxt[0]
            env.call_at(time if time >= env.now else env.now, self._fire)

    def _fire(self) -> None:
        engine = self.engine
        now = engine.env.now
        count = self._next[1]
        self.events_emitted += 1
        self.offered += count
        grant = self._policy.admit(now, count, self.admitted - self.completed)
        if not 0 <= grant <= count:
            raise ValueError(
                f"admission policy {self.admission!r} granted {grant} "
                f"of {count} at t={now}")
        if grant < count:
            self.dropped += count - grant
        if grant:
            if self.admitted == self.completed:
                self._busy_since = now
            self.admitted += grant
            engine.num_tasks += grant
            pending = self.pending
            if grant == 1:
                pending.append(now)
            else:
                pending.extend(repeat(now, grant))
            if len(pending) > self.pending_high_water:
                self.pending_high_water = len(pending)
            if self._root.undispensed <= 0:
                self._sat_since = now
            engine._refill_root(grant)
        self._schedule_next()

    def on_completion(self, now) -> None:
        """Called by the engine for every task completion, before any
        warp hook runs (the template below depends on that order)."""
        arrived = self.pending.popleft()
        latency = now - arrived
        self.completed += 1
        self.sketch.observe(latency)
        if self._template is not None:
            self._template.append(latency)
        if self.completed == self.admitted and self._busy_since is not None:
            self.busy_time += now - self._busy_since
            self._busy_since = None

    def on_repository_exhausted(self, now) -> None:
        if self._sat_since is not None:
            self.saturated_time += now - self._sat_since
            self._sat_since = None

    @property
    def exhausted(self) -> bool:
        """True once the arrival stream has emitted its last event."""
        return self._next is None

    def finalize(self) -> ServiceStats:
        now = self.engine.env.now
        return ServiceStats.from_sketch(
            self.sketch,
            offered=self.offered, admitted=self.admitted,
            dropped=self.dropped, completed=self.completed,
            busy_time=self._closed(self.busy_time, self._busy_since, now),
            saturated_time=self._closed(
                self.saturated_time, self._sat_since, now),
            makespan=self.engine.last_completion_time,
            pending_high_water=self.pending_high_water)

    # -- warp protocol ----------------------------------------------------

    @staticmethod
    def _closed(total, since, now):
        return total if since is None else total + (now - since)

    def fingerprint_state(self, now) -> tuple:
        """Time-relative state for the warp's cycle detector.  Two
        instants with equal tuples (and equal node/calendar states)
        evolve identically given the stream's periodicity."""
        nxt = self._next
        return ("openloop",
                self._root.undispensed,
                tuple(now - t for t in self.pending),
                None if nxt is None else (nxt[0] - now, nxt[1]),
                self._policy.fingerprint_state(now),
                self._busy_since is not None,
                self._sat_since is not None)

    def next_event_delta(self, now):
        nxt = self._next
        return None if nxt is None else nxt[0] - now

    def warp_snapshot(self, now) -> tuple:
        return (self.offered, self.admitted, self.dropped, self.completed,
                self.events_emitted,
                self._closed(self.busy_time, self._busy_since, now),
                self._closed(self.saturated_time, self._sat_since, now))

    def begin_template(self) -> None:
        self._template = []

    def discard_template(self) -> None:
        self._template = None

    def warp_periods_cap(self, d_events: int) -> int:
        """Max whole periods the warp may skip, leaving one full period
        of events (plus the already-scheduled next event) to simulate
        exactly before the stream runs dry."""
        total = self.arrivals.num_events
        if total is None or d_events <= 0:
            return 0
        remaining = total - self.events_emitted - 1
        return remaining // d_events - 1

    def warp_apply(self, k: int, shift, prev: tuple, now) -> None:
        """Fast-forward ``k`` periods: scale counters by the per-period
        deltas against the armed snapshot ``prev``, replay the latency
        template with weight ``k``, and translate all timestamps by
        ``shift`` (the warp shifts the calendar timer itself)."""
        d_offered = self.offered - prev[0]
        d_admitted = self.admitted - prev[1]
        d_dropped = self.dropped - prev[2]
        d_completed = self.completed - prev[3]
        d_events = self.events_emitted - prev[4]
        self.offered += k * d_offered
        self.admitted += k * d_admitted
        self.dropped += k * d_dropped
        self.completed += k * d_completed
        self.events_emitted += k * d_events
        self.engine.num_tasks += k * d_admitted
        busy_now = self._closed(self.busy_time, self._busy_since, now)
        self.busy_time += k * (busy_now - prev[5])
        if self._busy_since is not None:
            self._busy_since += shift
        sat_now = self._closed(self.saturated_time, self._sat_since, now)
        self.saturated_time += k * (sat_now - prev[6])
        if self._sat_since is not None:
            self._sat_since += shift
        for latency in self._template or ():
            self.sketch.observe(latency, k)
        self._template = None
        if self.pending:
            self.pending = deque(t + shift for t in self.pending)
        self._policy.shift(shift)
        nxt = self._next
        if nxt is not None:
            self._next = (nxt[0] + shift, nxt[1])
            skipped = k * d_events
            skip = getattr(self._iter, "skip", None)
            if skip is not None:
                skip(skipped)
            else:
                iterator = self._iter
                for _ in range(skipped):
                    next(iterator)
