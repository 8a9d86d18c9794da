"""Steady-state warp: cycle detection and event-free fast-forward.

Theorem 1 (§4 of the paper) says a bandwidth-centric run converges to a
*periodic steady state*: after the startup transient, the entire dynamic
state of the simulation — per-node buffer occupancies, in-flight transfer
phases, the calendar's pending-timer deltas — recurs with some period
``(Δt, Δtasks)``.  A discrete-event simulator that keeps paying full
per-event cost through thousands of identical periods is doing arithmetic
the hard way.  This module finds the recurrence and replaces the middle of
the run with multiplication.

How it works
------------
At sampled task completions the :class:`WarpController` takes a
**canonical fingerprint** of the simulation in two stages:

1. the **outline**, taken at every sample: the completing node's id, the
   engine's buffer high-water marks, and the live calendar timers as
   ``(time - now, owner, callback, canonical args)`` tuples (far timers
   by a delta-free descriptor, see :data:`FAR_HORIZON`);
2. the **full state**, taken only when the outline has been seen before:
   the outline plus every agent's
   :meth:`~repro.protocols.agents.NodeAgent.fingerprint_state` view (and
   the open-loop driver's).

The full state is a superset of the outline, so it can only recur where
its outline recurred; a sample whose outline is new stops after stage 1
without visiting an agent.  On the paper trees of the ``warp_sweep``
benchmark the outline never recurs, so the search there never reads an
agent.  The
outline never arms the search by itself: arming and warping compare full
states.  Monotone counters (virtual time, completed tasks, the root's
repository, per-node tallies) are deliberately *excluded* from both
stages — they grow forever and never influence a scheduling decision
except at the repository-exhaustion boundary, which the warp guard keeps
out of the skipped span.

The search pays for itself or backs off.  Each sample charges the work a
full fingerprint would do — agents plus calendar entries — whichever
stage it stops at, and whenever the running charge exceeds
:data:`COST_ALLOWANCE` plus the events the run has dispatched, the
sampling stride doubles.  Large trees with no recurrence in sight
therefore sample ever more sparsely, on the same completions whether or
not a sample reaches stage 2.

When a full state recurs, the deterministic kernel guarantees the run is
exactly periodic from the first occurrence on: the same event sequence
repeats every ``Δt`` timesteps, completing ``Δtasks`` tasks.  The
controller then advances ``k`` whole periods *analytically*:

* ``env.now`` and every pending timer shift by ``k·Δt`` (a uniform shift
  preserves heap order, so the calendar is filtered of tombstones and
  re-heapified in one pass);
* ``completed``, the repository, and every per-node monotone tally
  (``computed``, ``transfers_started``, ``preemptions``,
  ``buffers_decayed``, ``processed_count``) jump by ``k`` times their
  per-period delta;
* recorded timelines keep the skipped span as *one period*: a
  :class:`PeriodicTimeline` holds the records before the warp, the
  template period, ``k`` and ``Δt``, and the tail the engine records after
  the warp.  Its items are the template's completion times shifted by
  ``j·Δt`` for each skipped period ``j`` (and the period-stable buffer
  high-water marks repeated, ``Δ = 0``), computed on access, so every
  downstream metric — window rates, onset detection, utilization — is
  exact over the warped span while the result stays O(period) in memory.

``k`` is capped at ``(undispensed - 1) // Δtasks - 1`` so the repository
never reaches zero inside the skipped span (the exhaustion boundary, and
with it the warm-down tail and final partial period, is always simulated
exactly).

When warp is sound
------------------
Only in the quiescent base model.  The engine refuses to construct a
controller when a mutation, churn, or fault schedule, a tracer or the
telemetry event tap is present, and the controller disarms itself if a
non-agent calendar entry appears — in all those cases the run degrades
to plain exact simulation and :class:`WarpSummary.applied` stays False.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heapify
from itertools import chain, islice, repeat
from operator import eq, index as _as_index
from typing import Optional, Set, TYPE_CHECKING

from .core import _sort_key, _tombstone

if TYPE_CHECKING:  # pragma: no cover
    from ..protocols.engine import ProtocolEngine

__all__ = ["WarpSummary", "WarpController", "PeriodicTimeline",
           "LEDGER_CAP", "FAR_HORIZON",
           "COST_ALLOWANCE",
           "REASON_CONTENTION", "REASON_DYNAMIC", "REASON_TRACING",
           "REASON_TELEMETRY", "REASON_MULTI_APP", "REASON_GRAPH_FAULTS",
           "REASON_OPEN_LOOP", "STAND_DOWN_REASONS"]

# Stand-down reasons shared by every engine (tree, graph, multi-app).
# Engines must report *these* strings — never ad-hoc ones — so callers can
# compare ``result.warp.reason`` against the constants instead of matching
# substrings, and the set below stays the single source of truth.
REASON_CONTENTION = ("disabled: shared-link contention breaks periodicity")
REASON_DYNAMIC = "disabled: dynamic platform schedule active"
REASON_TRACING = "disabled: tracing active"
REASON_TELEMETRY = "disabled: telemetry sampling active"
REASON_MULTI_APP = ("disabled: concurrent applications break "
                    "single-job periodicity")
REASON_GRAPH_FAULTS = ("disabled: graph fault schedule active "
                       "(reroute/partition events break periodicity)")
REASON_OPEN_LOOP = ("disabled: aperiodic open-loop arrivals active "
                    "(only exactly-periodic streams recur)")

#: Every reason an engine may stand the warp down with *before* the search
#: even starts (controller-side reasons — "no recurrence found", "completed
#: before warp" — are run outcomes, not stand-downs, and are not listed).
STAND_DOWN_REASONS = frozenset({
    REASON_CONTENTION,
    REASON_DYNAMIC,
    REASON_TRACING,
    REASON_TELEMETRY,
    REASON_MULTI_APP,
    REASON_GRAPH_FAULTS,
    REASON_OPEN_LOOP,
})

#: Outlines and full states remembered, together, before the search is
#: abandoned.  A run whose period is not found within this many samples
#: simply stays exact.
LEDGER_CAP = 8192

#: Charge (agents plus pending calendar entries, per sample) the search
#: may run up beyond the events the run itself has dispatched before the
#: sampling stride starts doubling.  A sample is charged as a full
#: fingerprint even when it stops at the outline, so the stride doubles on
#: the same completions either way and the outline's saving is all per
#: sample.  Sized so short periods are found while the stride is still 1:
#: with 4,096 the stride grew too early and the 1M-arrival periodic
#: service day found a 64-task period instead of its 4-task one.
COST_ALLOWANCE = 16_384

#: Pending timers with more than this much virtual time left are treated as
#: *background* activities (e.g. the root's effectively-infinite first
#: compute on the paper's figure trees): they cannot belong to the periodic
#: regime, so their monotonically shrinking deltas are kept out of the
#: fingerprint.  They are instead verified to shrink by exactly Δt between
#: the two occurrences (proof they are the same untouched timers), left
#: unshifted by the warp, and the skip is capped to end strictly before the
#: earliest of them fires.  Their arguments are canonicalized like any
#: timer's, so a far transfer leg's elapsed time enters the outline: that
#: state cannot recur while the leg is in flight (its sender's view holds
#: the elapsed time too), and such samples stop at stage 1.
FAR_HORIZON = 1_000_000


@dataclass(frozen=True)
class WarpSummary:
    """Outcome of the warp subsystem for one run (``None`` when warp is off).

    ``applied`` is False either because the run never exhibited a usable
    recurrence or because a guard disabled the search; ``reason`` says
    which.  All counts are exact by construction.
    """

    applied: bool
    reason: str
    #: Whole periods skipped analytically.
    periods: int = 0
    #: Virtual-time length of one period (Δt).
    period_time: int = 0
    #: Tasks completed per period (Δtasks).
    period_tasks: int = 0
    #: Tasks accounted for without dispatching events (``periods · Δtasks``).
    tasks_skipped: int = 0
    #: Calendar entries the exact run would have processed in the skipped span.
    events_skipped: int = 0
    #: Completed-task count at the moment the warp engaged.
    warp_completed: int = 0
    #: Virtual time at the moment the warp engaged (before the shift).
    warp_time: int = 0
    #: Fingerprints taken before the search ended (outlines: one a sample).
    fingerprints_taken: int = 0
    #: Samples whose outline recurred, so the search read the full state.
    full_fingerprints: int = 0


class PeriodicTimeline(Sequence):
    """An immutable timeline whose middle is one period repeated ``k`` times.

    Its items are ``head``, then ``template[s] + j·delta`` for the periods
    ``j = 1 .. periods``, then ``tail``: the shape of a timeline recorded
    by a warped run, stored in O(head + period + tail) memory.  Every run
    returns its timelines as this type: an exact run's has zero periods
    and its whole record as the head.  It stands in for the tuple of its
    items: ``len``, int and slice indexing (a slice is a tuple),
    iteration, ``==`` / ``hash`` / ``repr`` equal to the equal tuple's,
    and a pickle of its parts.  Items have the values and types the run
    records: ``range`` values when ``delta`` and the template are ints,
    ``t + j * delta`` otherwise.

    A head or tail given as an ``array`` is kept as it is, not copied:
    the engine records int timelines in an ``array('q')``, 8 bytes an
    item, and hands it over when the run ends.  Any other head or tail is
    copied into a tuple.
    """

    __slots__ = ("head", "template", "periods", "delta", "tail", "_span",
                 "_len", "_ints")

    def __init__(self, head, template, periods: int, delta, tail=()):
        if periods < 0:
            raise ValueError(f"periods must be >= 0, got {periods}")
        self.head = head if type(head) is array else tuple(head)
        self.template = tuple(template)
        self.periods = periods
        self.delta = delta
        self.tail = tail if type(tail) is array else tuple(tail)
        self._span = periods * len(self.template)
        self._len = len(self.head) + self._span + len(self.tail)
        self._ints = type(delta) is int and all(
            type(t) is int for t in self.template)

    @classmethod
    def exact(cls, items) -> "PeriodicTimeline":
        """The timeline of ``items`` with zero periods: packed into an
        ``array('q')`` when every item is exactly an ``int`` that fits 64
        bits, else held as a tuple."""
        if all(type(t) is int for t in items):
            try:
                items = array("q", items)
            except OverflowError:
                pass
        return cls(items, (), 0, 0)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return chain(self.head, self._replay(), self.tail)

    def _replay(self):
        """The repeated periods' items, in order."""
        k, delta = self.periods, self.delta
        if self._ints:
            # One C-level column per template slot, zipped period by period.
            columns = [range(t + delta, t + (k + 1) * delta, delta) if delta
                       else repeat(t, k) for t in self.template]
            return chain.from_iterable(zip(*columns))
        return (t + j * delta for j in range(1, k + 1) for t in self.template)

    def __getitem__(self, index):
        if isinstance(index, slice):
            if len(self.head) == self._len:  # an exact run's: all head
                return tuple(self.head[index])
            start, stop, step = index.indices(self._len)
            if step > 0:
                return tuple(islice(self, start, stop, step))
            return tuple(self[i] for i in range(start, stop, step))
        i = _as_index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("PeriodicTimeline index out of range")
        head = self.head
        if i < len(head):
            return head[i]
        i -= len(head)
        if i >= self._span:
            return self.tail[i - self._span]
        j, slot = divmod(i, len(self.template))
        return self.template[slot] + (j + 1) * self.delta

    def __eq__(self, other):
        if not isinstance(other, (tuple, PeriodicTimeline)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return (PeriodicTimeline,
                (self.head, self.template, self.periods, self.delta,
                 self.tail))


class _Record:
    """Monotone-counter snapshot attached to one remembered fingerprint."""

    __slots__ = ("completed", "now", "undispensed", "processed", "per_node",
                 "far", "service")

    def __init__(self, completed, now, undispensed, processed, per_node, far,
                 service=None):
        self.completed = completed
        self.now = now
        self.undispensed = undispensed
        self.processed = processed
        self.per_node = per_node
        #: Remaining-time deltas of the far (background) timers, aligned
        #: with the descriptor order hashed into the fingerprint.
        self.far = far
        #: Open-loop driver counter snapshot (``None`` for closed bags).
        self.service = service


class _Foreign(Exception):
    """A calendar entry the canonicalizer does not understand."""


def _canon_arg(arg, now):
    """Canonicalize one timer argument relative to ``now``."""
    if type(arg) is int:
        return arg
    child = getattr(arg, "child", None)
    if child is not None and hasattr(arg, "remaining"):  # Transfer
        started = arg.started_at
        return ("t", child.id, arg.remaining,
                None if started is None else now - started)
    node_id = getattr(arg, "id", None)
    if node_id is not None and hasattr(arg, "fingerprint_state"):  # NodeAgent
        return ("n", node_id)
    raise _Foreign(arg)


class WarpController:
    """Period detector and fast-forwarder for one :class:`ProtocolEngine`.

    Constructed by the engine only for quiescent runs (no mutations, churn,
    faults, or recorder).  :meth:`on_completion` is the single
    hook: it fingerprints the outline, reads the full state only when the
    outline recurs, looks that up in the period ledger, and on a
    recurrence applies the warp in place, after which the engine resumes
    exact simulation for the warm-down tail.
    """

    __slots__ = ("engine", "env", "_outlines", "_ledger", "_armed",
                 "_active", "_count", "_stride", "_taken", "_full",
                 "_charged", "summary")

    def __init__(self, engine: "ProtocolEngine"):
        self.engine = engine
        self.env = engine.env
        #: Hashes of the outlines (stage 1) seen so far.
        self._outlines: Set[int] = set()
        #: Hashes of the full states (stage 2) seen so far.  A full state
        #: is read only once its outline recurred, so a state first seen
        #: with a new outline enters this ledger at its second sighting
        #: and arms at its third.  Membership is all the search needs —
        #: full state tuples are only kept when a hash recurs (arming), so
        #: ledger memory is ~tens of bytes per anchor regardless of tree
        #: size.  A 64-bit hash collision can at worst arm spuriously,
        #: never mis-warp: the warp itself compares full state tuples.
        self._ledger: Set[int] = set()
        #: ``(outline hash, state tuple, snapshot)`` once a recurrence was
        #: seen: the next time this exact state comes round (one whole
        #: period later) the warp fires with per-period deltas measured
        #: from the snapshot.
        self._armed: Optional[tuple] = None
        self._active = True
        self._count = 0
        #: Only every ``_stride``-th completion is fingerprinted.  The
        #: stride doubles (at most once per fingerprint) whenever the work
        #: charged so far exceeds ``COST_ALLOWANCE`` plus the events the
        #: run has dispatched, so a run with a long (or no) period pays an
        #: overhead proportional to its own work instead of a constant tax
        #: per completion.  Anchors stay aligned to period phases: the
        #: stride is a power of two, sampled completions are multiples of
        #: it, and every residue class contains multiples of any period
        #: length, so recurrences are still found — at worst the detected
        #: period is a small multiple of the true one.
        self._stride = 1
        self._taken = 0
        #: Samples that reached stage 2 (the full state).
        self._full = 0
        #: Fingerprint work charged so far (agents plus calendar entries).
        self._charged = 0
        self.summary: Optional[WarpSummary] = None

    # ------------------------------------------------------------ lifecycle
    def _finish(self, applied: bool, reason: str, **counts) -> None:
        self._active = False
        self._outlines.clear()
        self._ledger.clear()
        self._armed = None
        driver = self.engine.service_driver
        if driver is not None:
            driver.discard_template()
        self.summary = WarpSummary(applied=applied, reason=reason,
                                   fingerprints_taken=self._taken,
                                   full_fingerprints=self._full, **counts)

    def finalize(self) -> WarpSummary:
        """Summary for the result record (called once, at end of run)."""
        if self.summary is None:
            self._finish(False, "no recurrence before the run completed")
        return self.summary

    # ----------------------------------------------------------------- hook
    def on_completion(self, node) -> None:
        """Fingerprint the post-completion state; warp on a recurrence."""
        if not self._active:
            return
        self._count += 1
        if self._count % self._stride:
            return
        engine = self.engine
        root = engine.nodes[engine.tree.root]
        driver = engine.service_driver
        if driver is None:
            if root.undispensed <= 0:
                self._finish(False,
                             "repository exhausted before a recurrence")
                return
        elif driver.exhausted:
            # Open loop: the repository legitimately drains between
            # arrivals (that boundary is part of the periodic pattern),
            # but once the arrival stream itself has ended the run is in
            # its wind-down tail and no recurrence can be exploited.
            self._finish(False, "arrival stream ended before a recurrence")
            return
        snapshot = self._outline(node.id)
        if snapshot is None:
            self._finish(False, "disabled: foreign calendar entries")
            return
        outline, far = snapshot
        self._taken += 1
        env = self.env
        self._charged += len(engine.nodes) + len(env._heap)
        key = hash(outline)
        armed = self._armed
        if armed is not None:
            if key == armed[0] and self._state(outline) == armed[1]:
                self._warp(armed[2], root, far)
            return
        if key not in self._outlines:
            # A new outline means a new full state: stage 1 ends here.
            self._remember(self._outlines, key)
            return
        state = self._state(outline)
        digest = hash(state)
        if digest in self._ledger:
            # The full state recurred: the run is in its cycle.  Keep
            # this one full state tuple and snapshot and wait for the state
            # to come round once more, measuring exact per-period deltas
            # between two *consecutive* occurrences.
            self._armed = (key, state, _Record(
                engine.completed, env.now, root.undispensed,
                env.processed_count,
                tuple((a.computed, a.transfers_started, a.preemptions,
                       a.buffers_decayed) for a in engine.nodes), far,
                driver.warp_snapshot(env.now) if driver is not None
                else None))
            if driver is not None:
                # Collect one period of sojourn latencies: every
                # completion between now and the firing occurrence (the
                # driver's fold runs before this hook, so the template
                # spans exactly (t_armed, t_fire]).
                driver.begin_template()
            return
        self._remember(self._ledger, digest)

    def _remember(self, ledger: Set[int], digest: int) -> None:
        """Add a sample's hash to ``ledger`` and back the stride off if
        the search has outrun its allowance; give up at the cap."""
        if len(self._outlines) + len(self._ledger) >= LEDGER_CAP:
            self._finish(False, "ledger cap reached without a recurrence")
            return
        ledger.add(digest)
        if self._charged > COST_ALLOWANCE + self.env.processed_count:
            self._stride *= 2

    # ---------------------------------------------------------- fingerprint
    def _outline(self, anchor_id: int):
        """``(outline tuple, far deltas)``: stage 1 of the fingerprint.

        The outline is the anchor id, the engine's high-water marks, the
        canonical calendar and the far-timer descriptors.  Returns ``None``
        on foreign calendar entries.  The tuple is hashable (nested
        int/str/None tuples only).

        Pending timers beyond :data:`FAR_HORIZON` enter the outline by a
        delta-free descriptor (their remaining time shrinks monotonically
        and would otherwise block every recurrence; their arguments are
        canonicalized as any timer's are); the deltas themselves
        are returned separately, sorted in descriptor order, for the warp's
        same-timer verification and skip cap.
        """
        engine = self.engine
        env = self.env
        now = env.now
        calendar = []
        far = []
        try:
            for _key, time, _seq, timer in sorted(env._heap):
                fn = timer.fn
                if fn is _tombstone:
                    continue
                owner = getattr(fn, "__self__", None)
                if owner is None or not hasattr(owner, "fingerprint_state"):
                    raise _Foreign(fn)
                args = timer.args
                canon = (tuple([_canon_arg(a, now) for a in args])
                         if args else ())
                delta = time - now
                if delta > FAR_HORIZON:
                    far.append(((owner.id, fn.__name__, canon), delta))
                else:
                    calendar.append((delta, owner.id, fn.__name__, canon))
        except _Foreign:
            return None
        far.sort()
        return ((anchor_id, engine.buffer_high_water, engine.held_high_water,
                 tuple(calendar), tuple(desc for desc, _ in far)),
                tuple(delta for _, delta in far))

    def _state(self, outline: tuple) -> tuple:
        """Stage 2 of the fingerprint: the full state whose recurrence
        arms and fires the warp — the outline, every agent's view and,
        on open-loop runs, the driver's."""
        self._full += 1
        engine = self.engine
        now = self.env.now
        driver = engine.service_driver
        # Open-loop state that must recur for true periodicity: the
        # repository level (no longer monotone — arrivals refill it),
        # pending sojourn ages, the next arrival's relative offset and
        # size, and the admission policy's relative state.
        return (outline,
                tuple([agent.fingerprint_state(now) for agent in engine.nodes]),
                None if driver is None else driver.fingerprint_state(now))

    # ----------------------------------------------------------------- warp
    def _warp(self, prev: _Record, root, far) -> None:
        """Advance ``k`` whole periods analytically, in place."""
        engine = self.engine
        env = self.env
        now = env.now
        driver = engine.service_driver
        dt = now - prev.now
        dtasks = engine.completed - prev.completed
        if driver is None:
            # Closed bag: every completed task came out of the repository.
            conserved = prev.undispensed - root.undispensed == dtasks
        else:
            # Open loop: the repository level recurs (it is in the
            # fingerprint), so conservation means one period admits
            # exactly as many tasks as it completes.
            conserved = driver.admitted - prev.service[1] == dtasks
        if dt <= 0 or dtasks <= 0 or not conserved:
            # A recurrence that moved no time/tasks, or that created or
            # destroyed task instances, is not a steady-state period.
            self._finish(False, "recurrence failed the conservation check")
            return
        # Far timers must be the *same untouched instances* at both
        # occurrences — i.e. each delta shrank by exactly Δt, so they sit at
        # identical absolute times and were inert through the period.  A
        # recreated background timer (delta reset instead of shrunk) means
        # the period's dynamics touch it; disarm and keep searching.
        if len(far) != len(prev.far) or any(
                b != a - dt for a, b in zip(prev.far, far)):
            self._armed = None
            if driver is not None:
                driver.discard_template()
            return
        if driver is None:
            # Keep the repository strictly positive through the skipped
            # span (the exhaustion boundary changes behaviour), minus one
            # spare period so the warm-down tail is always simulated
            # exactly.
            k = (root.undispensed - 1) // dtasks - 1
        else:
            if (driver.next_event_delta(now) or 0) > FAR_HORIZON:
                # The arrival timer would be classed as a far timer and
                # left unshifted — inconsistent with the driver's view.
                # Pathological (arrival gaps beyond 1M steps); stay exact.
                self._finish(False, "next arrival beyond the warp horizon")
                return
            # Cap by the arrival stream instead of the repository: leave
            # one full period of events (plus the already-scheduled next
            # one) so the stream's end is always simulated exactly.
            k = driver.warp_periods_cap(
                driver.events_emitted - prev.service[4])
        if k <= 0:
            self._finish(False, "recurrence found too close to the end")
            return
        if far:
            # An inert background timer must stay inert: end the skipped
            # span strictly before the earliest far timer fires.  Its
            # imminent firing is a regime change — disarm so the search can
            # find the new cycle afterwards instead of chasing this one.
            k = min(k, (min(far) - 1) // dt)
            if k <= 0:
                self._armed = None
                if driver is not None:
                    driver.discard_template()
                return
        shift = k * dt
        skipped = k * dtasks

        # Keep the timelines as one period: steady-state periods are
        # identical by construction, so each recorded timeline's skipped
        # span is its last period repeated k times, completion times
        # shifted by Δt a period.  (High-water marks are period-stable — a
        # changed mark would have changed the fingerprint — so they repeat
        # with Δ = 0.)  The engine records the tail after them.
        if engine.record_completion_times:
            engine.replay_timeline("completion_times", prev.completed, k, dt)
        if engine.record_buffer_timeline:
            engine.replay_timeline("buffer_timeline", prev.completed, k, 0)
            engine.replay_timeline("held_timeline", prev.completed, k, 0)
        engine.last_completion_time = now + shift

        # Monotone counters jump by k times their per-period delta.
        engine.completed += skipped
        if driver is None:
            root.undispensed -= skipped
        events = env.processed_count - prev.processed
        env.processed_count += k * events
        for agent, (c0, t0, p0, b0) in zip(engine.nodes, prev.per_node):
            agent.computed += k * (agent.computed - c0)
            agent.transfers_started += k * (agent.transfers_started - t0)
            agent.preemptions += k * (agent.preemptions - p0)
            agent.buffers_decayed += k * (agent.buffers_decayed - b0)
        if driver is not None:
            # Scale the service counters, replay the period's latency
            # template into the sketch with weight k, and translate the
            # driver's timestamps (pending ages, admission state, next
            # arrival) by the shift.  The arrival iterator skips the
            # elided events analytically.
            driver.warp_apply(k, shift, prev.service, now)

        # Shift the calendar.  A uniform shift preserves every pairwise
        # comparison, but dropping tombstones reorders the array, so the
        # filtered list is re-heapified (same invariant as _compact).  Far
        # timers keep their absolute times — the exact run's skipped span
        # never touches them, so shifting them would diverge from it.
        live = []
        for entry in env._heap:
            _key, time, seq, timer = entry
            if timer.fn is _tombstone:
                continue
            if time - now > FAR_HORIZON:
                live.append(entry)
            else:
                time += shift
                timer.time = time
                live.append((_sort_key(time), time, seq, timer))
        env._heap[:] = live
        heapify(env._heap)
        env._cancelled = 0

        # Absolute-time state outside the calendar: in-flight transfer legs
        # remember when they started (preemption measures elapsed wire time
        # against it).
        for agent in engine.nodes:
            transfer = agent.current_transfer
            if transfer is not None and transfer.started_at is not None:
                transfer.started_at += shift
        env.now = now + shift

        self._finish(True, "warped", periods=k, period_time=dt,
                     period_tasks=dtasks, tasks_skipped=skipped,
                     events_skipped=k * events,
                     warp_completed=prev.completed + dtasks, warp_time=now)
