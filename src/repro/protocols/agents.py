"""Autonomous node agents implementing the bandwidth-centric protocols (§3).

Every node runs the same purely local algorithm:

* it keeps a pool of task buffers and sends its parent **one request per
  empty buffer** (initially, and whenever a buffer frees up — i.e. when a
  task starts computing locally or starts being forwarded to a child);
* an idle CPU always grabs a buffered task (the local CPU is the
  highest-priority "child": it costs no link time — see Theorem 1's ``1/w0``
  term, which is always fully served);
* the single send port delegates buffered tasks to requesting children,
  highest priority first (bandwidth-centric: ascending edge cost ``c``);
* under **non-interruptible communication** a started transfer always runs
  to completion, and nodes may *grow* extra buffers per §3.1's three rules
  (all buffers empty + a child is requesting; send completed with empty
  buffers + a child is requesting; computation completed with empty
  buffers), damped to at most one growth per task arrival
  (see :class:`~repro.protocols.config.ProtocolConfig.growth_cooldown`);
* under **interruptible communication** a request from a higher-priority
  child preempts the in-flight transfer: the partial transfer is shelved
  (one staging slot per child) and resumed — possibly after further
  preemptions — when its child is again the best choice.  Shelved resumption
  is always preferred over starting a second transfer to the same child.

The agents are event-driven callbacks on the kernel's low-level timer API;
control messages (requests) are delivered synchronously in zero virtual
time, as the paper assumes.  All state transitions keep the invariant
``buffers_total == tasks_held + requested + incoming`` (checked in tests).
The root holds the repository: it has no parent, never requests or grows,
and dispenses exactly ``num_tasks`` tasks.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional, TYPE_CHECKING

from ..errors import ProtocolError
from .config import PriorityRule, ProtocolConfig, ProtocolVariant
from . import trace as _trace

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ProtocolEngine

__all__ = ["NodeAgent", "Transfer"]

#: Shared immutable "no suspects" marker used while fault recovery is off,
#: so the scheduling hot path pays only an empty-membership test.
_NO_SUSPECTS: frozenset = frozenset()

#: Sort key for :meth:`NodeAgent.resort_children` — the cached per-agent
#: priority tuple, recomputed only when a weight actually mutates.
_PRIO_KEY = attrgetter("prio_key")

#: The scalar slots of :meth:`NodeAgent.fingerprint_state`, read in one call.
_FINGERPRINT_SCALARS = attrgetter(
    "tasks_held", "requested", "incoming", "child_requests", "buffers_total",
    "cpu_busy", "growth", "growth_armed", "decay", "decay_pending",
    "surplus_streak", "idle_arrival_streak", "deferred_requests", "departed",
    "alive", "link_down", "max_buffers_seen", "max_held_seen")


class Transfer:
    """One task in flight from ``parent`` to ``child`` (possibly shelved).

    Slots: ``child``; ``remaining``, the transfer time (a graph lane: the
    volume) still owed when not actively being sent; ``started_at``, the
    virtual time the current (re)transmission leg began; ``timer``, the
    leg's completion timer.  Built like a calendar timer: a bare
    ``Transfer()`` (no ``__init__``, so no Python frame) with its slots
    set in place by :meth:`NodeAgent._start_leg`.
    """

    __slots__ = ("child", "remaining", "started_at", "timer")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Transfer to={self.child.id} remaining={self.remaining}>"


class NodeAgent:
    """One platform node running the autonomous protocol.

    Not constructed directly — :class:`~repro.protocols.engine.ProtocolEngine`
    builds one agent per tree node and wires the parent/child references.
    """

    __slots__ = (
        "engine", "env", "tracer", "prio_key", "prio_bit",
        "id", "w", "c", "parent", "children", "sorted_children",
        "request_mask", "shelf_mask",
        "is_root", "interruptible", "growth", "max_buffers", "priority_rule",
        "buffers_total", "tasks_held", "requested", "incoming",
        "child_requests", "fifo_queue", "growth_cooldown", "growth_armed",
        "decay", "decay_threshold", "decay_pending", "surplus_streak",
        "idle_arrival_streak", "initial_buffers", "decay_floor",
        "buffers_decayed", "departed",
        "undispensed", "cpu_busy", "cpu_timer",
        "current_transfer", "shelf",
        "computed", "max_buffers_seen", "max_held_seen",
        "transfers_started", "preemptions",
        "alive", "link_down", "deferred_requests", "suspect",
        "probe_timers", "sweep_timer", "sweep_anchor",
        "request_timeout", "max_retries", "backoff_factor",
    )

    def __init__(self, engine: "ProtocolEngine", node_id: int, w, c,
                 config: ProtocolConfig, is_root: bool):
        self.engine = engine
        # Hot-path caches: one attribute hop instead of two.  ``tracer`` is
        # the engine's *effective* recorder (user tracer and/or telemetry
        # tap), fixed for the run by ``ProtocolEngine._resolve_warp``.
        self.env = engine.env
        self.tracer = engine._recorder
        self.id = node_id
        self.w = w
        self.c = c  # cost of the edge from the parent (0 at the root)
        self.parent: Optional[NodeAgent] = None
        self.children: List[NodeAgent] = []
        self.sorted_children: List[NodeAgent] = []
        # The send port's eligible order (see :meth:`resort_children`):
        # this node's bit in its parent's masks (0 while it is in no
        # parent's order), and its own masks over ``sorted_children``.
        self.prio_bit = 0
        self.request_mask = 0
        self.shelf_mask = 0
        self.is_root = is_root

        self.interruptible = config.variant is ProtocolVariant.INTERRUPTIBLE
        self.growth = config.buffer_growth and not is_root
        self.growth_cooldown = config.growth_cooldown
        self.growth_armed = True  # a node may always make its first grow
        self.decay = config.buffer_decay and not is_root
        self.decay_threshold = config.decay_threshold
        # Never decay below 3 buffers: a served child needs that much
        # request pipelining to keep its parent's leftover port time usable
        # (the same constant the paper's IC protocol settles on).
        self.decay_floor = max(config.initial_buffers, 3)
        self.decay_pending = 0
        self.surplus_streak = 0
        self.idle_arrival_streak = 0
        self.initial_buffers = config.initial_buffers
        self.buffers_decayed = 0
        self.max_buffers = config.max_buffers
        self.priority_rule = config.priority_rule

        # Cached priority tuple (see :meth:`_refresh_prio_key`).  Computed
        # once here and refreshed only on weight mutations, so the hot
        # scheduling paths compare plain tuples instead of calling a method.
        if config.priority_rule is PriorityRule.COMPUTE_CENTRIC:
            self.prio_key = (w, node_id)
        else:
            self.prio_key = (c, node_id)

        self.buffers_total = config.initial_buffers
        self.tasks_held = 0
        self.requested = 0    # outstanding requests at the parent
        self.incoming = 0     # granted requests whose transfer is in flight
        self.child_requests = 0  # sum of children's `requested`
        self.fifo_queue: Optional[Deque[NodeAgent]] = (
            deque() if config.priority_rule is PriorityRule.FIFO else None)

        self.departed = False  # left the pool (graceful drain mode)

        # Fault-recovery state (§ "Abrupt failures" in docs/protocol.md).
        # ``suspect``/``probe_timers`` stay inert placeholders unless the
        # engine calls :meth:`enable_fault_recovery`.
        self.alive = True
        self.link_down = False   # the edge from the parent is down
        self.deferred_requests = 0  # requests not yet announced (link down)
        self.suspect = _NO_SUSPECTS  # child ids frozen out of the schedule
        self.probe_timers: Optional[Dict[int, object]] = None
        self.sweep_timer = None
        self.sweep_anchor = None  # time the sweep grid starts from
        self.request_timeout = config.request_timeout
        self.max_retries = config.max_retries
        self.backoff_factor = config.backoff_factor

        self.undispensed = 0  # repository size; set by the engine on the root
        self.cpu_busy = False
        self.cpu_timer = None
        self.current_transfer: Optional[Transfer] = None
        self.shelf: Dict[int, Transfer] = {}  # child id → shelved transfer

        self.computed = 0
        self.max_buffers_seen = config.initial_buffers
        self.max_held_seen = 0  # high-water of simultaneously occupied buffers
        self.transfers_started = 0
        self.preemptions = 0

    # ------------------------------------------------------------ ordering
    def _refresh_prio_key(self) -> None:
        """Recompute the cached priority tuple after a weight mutation.

        Mirrors the live-key semantics of the old per-call computation:
        under COMPUTE_CENTRIC the key tracks ``w``, otherwise (bandwidth-
        centric, and FIFO which never sorts) it tracks the edge cost ``c``.
        """
        if self.priority_rule is PriorityRule.COMPUTE_CENTRIC:
            self.prio_key = (self.w, self.id)
        else:
            self.prio_key = (self.c, self.id)

    def resort_children(self) -> None:
        """Recompute the child priority order (start-up and after mutations).

        The order is also the send port's eligible set.  Of ``n``
        children, the one at rank ``r`` owns bit ``n - 1 - r`` (its
        ``prio_bit``), and two masks hold the bits of the unsuspected
        children that have ``requested > 0`` (``request_mask``) and a
        shelved transfer (``shelf_mask``).  Every change of a child's
        demand, suspicion or shelf updates them, so the highest candidate
        bit is the best child: a send decision reads one child, and finds
        it from the mask's length alone, whatever the fan-out.
        """
        order = self.sorted_children = sorted(self.children, key=_PRIO_KEY)
        suspect = self.suspect
        shelf = self.shelf
        requests = shelved = 0
        bit = 1 << len(order)
        for child in order:
            bit >>= 1
            child.prio_bit = bit
            if child.id not in suspect:
                if child.requested > 0:
                    requests |= bit
                if child.id in shelf:
                    shelved |= bit
        self.request_mask = requests
        self.shelf_mask = shelved

    # ------------------------------------------------------- task sourcing
    def _take_task(self) -> None:
        """Consume one available task (buffer frees → request + growth rule 1).

        A pending decay destroys the freed buffer instead of re-requesting
        it, which keeps the ledger invariant intact without ever having to
        withdraw a request from the parent's queue.
        """
        if self.is_root:
            self.undispensed -= 1
            if self.undispensed == 0:
                self.engine._on_repository_exhausted()
            return
        self.tasks_held -= 1
        if self.departed:
            # Drain mode: the freed buffer is retired, never re-requested.
            self.buffers_total -= 1
            return
        if self.decay_pending > 0 and self.buffers_total > self.decay_floor:
            self.decay_pending -= 1
            self.buffers_total -= 1
            self.buffers_decayed += 1
            return
        self.requested += 1
        if self.link_down:
            # The request cannot cross a down link; it is re-announced
            # wholesale when the parent re-admits this node after repair.
            self._defer_request()
        else:
            self.parent._on_request(self)
        # Growth rule 1: all buffers just became empty while a child is
        # still waiting for a task.
        if self.growth and self.tasks_held == 0 and self.child_requests > 0:
            self._grow_buffer()

    def _grow_buffer(self) -> None:
        if self.max_buffers is not None and self.buffers_total >= self.max_buffers:
            return
        if self.growth_cooldown:
            if not self.growth_armed:
                return
            # Re-armed by the next task arrival (one growth per cycle).
            self.growth_armed = False
        self.buffers_total += 1
        if self.buffers_total > self.max_buffers_seen:
            self.max_buffers_seen = self.buffers_total
            self.engine._note_buffer_high_water(self.buffers_total)
        tracer = self.tracer
        if tracer is not None:
            tracer.record(self.env.now, _trace.GROW, self.id)
        self.requested += 1
        if self.link_down:
            self._defer_request()
        else:
            self.parent._on_request(self)

    def _defer_request(self) -> None:
        """Hold one new request back while the link to the parent is down.
        The parent's port still sees this node's demand, and finds the
        link down when it tries to serve it."""
        self.deferred_requests += 1
        parent = self.parent
        if self.id not in parent.suspect:
            parent.request_mask |= self.prio_bit

    # --------------------------------------------------------------- churn
    def announce_join(self) -> None:
        """A freshly attached node starts participating: one request per
        (empty) buffer, delivered live so the parent can react — including
        preempting a lower-priority transfer under IC."""
        for _ in range(self.buffers_total):
            self.requested += 1
            self.parent._on_request(self)

    def depart(self) -> None:
        """Gracefully leave the pool: withdraw outstanding requests, keep
        accepting what is already in flight, finish held tasks, never ask
        again.  No work is lost."""
        if self.departed:
            return
        self.departed = True
        self.growth = False
        self.decay = False
        if self.requested:
            # Only requests the parent actually heard about (announced and
            # not frozen by suspicion) are withdrawn from its counter.
            announced = self.requested - self.deferred_requests
            if (announced and self.id not in self.parent.suspect
                    and self in self.parent.children):
                self.parent.child_requests -= announced
            self.parent.request_mask &= ~self.prio_bit
            self.buffers_total -= self.requested
            self.requested = 0
            self.deferred_requests = 0

    def _decay_tick(self) -> None:
        """Account one completion/forward toward shedding surplus buffers.

        A streak of ``decay_threshold`` events during which the node still
        held spare tasks means the pool exceeds what its service gaps need;
        one buffer is marked for destruction (performed lazily by
        :meth:`_take_task` when a buffer next frees up).
        """
        if self.tasks_held > 0:
            self.surplus_streak += 1
            if (self.surplus_streak >= self.decay_threshold
                    and self.buffers_total - self.decay_pending
                    > self.initial_buffers):
                self.decay_pending += 1
                self.surplus_streak = 0
        else:
            self.surplus_streak = 0

    # ------------------------------------------------------------ requests
    def send_initial_requests(self) -> None:
        """Register one request per (empty) initial buffer — no sends yet.

        The engine registers every node's requests before any send decision
        so that t=0 sends already respect priorities (otherwise whichever
        child registered first would grab the port).
        """
        if self.is_root:
            return
        parent = self.parent
        self.requested = self.buffers_total
        parent.child_requests += self.buffers_total
        if self.buffers_total:
            parent.request_mask |= self.prio_bit
        if parent.fifo_queue is not None:
            parent.fifo_queue.extend([self] * self.buffers_total)

    def _on_request(self, child: "NodeAgent") -> None:
        """A child announced an empty buffer (synchronous, zero time)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.record(self.env.now, _trace.REQUEST, child.id, self.id)
        if child.id in self.suspect:
            # A suspected-but-alive child (graph runs: its flow was killed
            # by a fabric fault but a reroute may revive it) keeps its
            # demand in `deferred_requests`; counting it here *and* again
            # wholesale at readmission would double-book the request.
            return
        self.child_requests += 1
        self.request_mask |= child.prio_bit
        if self.fifo_queue is not None:
            self.fifo_queue.append(child)
        if self.current_transfer is None:
            # Told, not polled: the port acts only with a task to send or
            # a shelved transfer to resume (the request is the demand).
            if self.shelf or (
                    self.undispensed if self.is_root else self.tasks_held) > 0:
                self._send_next()
        elif self.interruptible:
            self._maybe_preempt()

    # ------------------------------------------------------------- compute
    def try_start_compute(self) -> None:
        """Feed the local CPU if it is idle and a task is available."""
        if self.cpu_busy or (
                self.undispensed if self.is_root else self.tasks_held) <= 0:
            return
        self._take_task()
        self.cpu_busy = True
        tracer = self.tracer
        if tracer is not None:
            tracer.record(self.env.now, _trace.COMPUTE_START, self.id)
        self.cpu_timer = self.env.call_in(self.w, self._cpu_done)

    def _cpu_done(self) -> None:
        self.cpu_busy = False
        self.computed += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.record(self.env.now, _trace.COMPUTE_DONE, self.id)
        self.engine._on_completion(self)
        # Growth rule 3: computation finished and the buffers are all empty.
        if self.growth and self.tasks_held == 0:
            self._grow_buffer()
        if self.decay:
            self._decay_tick()
        self.try_start_compute()

    # -------------------------------------------------------------- sending
    def _choose_next(self) -> Optional["NodeAgent"]:
        """Best child to serve now, or None.  Shelved resumes need no task.

        A peek at the highest candidate bit of the eligible order (see
        :meth:`resort_children`): the shelved children, plus the
        requesting ones when a task is available.
        """
        task_ready = (
            self.undispensed if self.is_root else self.tasks_held) > 0
        if self.fifo_queue is not None:
            if self.fifo_queue and task_ready:
                return self.fifo_queue[0]
            return None
        # The highest bit of two masks is the higher of their own: no
        # union is built.
        if self.shelf:
            top = self.shelf_mask.bit_length()
            if task_ready:
                requests = self.request_mask.bit_length()
                if requests > top:
                    top = requests
        elif task_ready and self.child_requests:
            top = self.request_mask.bit_length()
        else:
            return None
        if not top:
            return None
        return self.sorted_children[-top]

    def try_send(self) -> None:
        """Start (or resume) the highest-priority eligible transfer, if the
        port is free and can act."""
        # Without a shelf, :meth:`_choose_next` finds no child unless a
        # request is announced and a task is available.
        if self.current_transfer is None and (self.shelf or (
                self.child_requests and (
                    self.undispensed if self.is_root else self.tasks_held)
                > 0)):
            self._send_next()

    def _send_next(self, child: Optional["NodeAgent"] = None) -> None:
        """:meth:`try_send` once its test passed: the port is free and has
        a shelved transfer, or a request and a task.  The scheduling hot
        paths make that test themselves and call this directly; a
        preemption passes the head it has just peeked as ``child``."""
        if child is None:
            child = self._choose_next()
            if child is None:
                return
        if self.probe_timers is not None:
            # Fault recovery is on: refuse to start a transfer into a dead
            # or unreachable child — a failed send is the local observation
            # that starts the suspicion clock.
            while not child.alive or child.link_down:
                self._mark_suspect(child)
                child = self._choose_next()
                if child is None:
                    return
        tracer = self.tracer
        if self.shelf_mask & child.prio_bit:
            self.shelf_mask ^= child.prio_bit
            if tracer is not None:
                tracer.record(self.env.now, _trace.SEND_RESUME,
                              self.id, child.id)
            self._begin_leg(self.shelf.pop(child.id))
            return
        if self.fifo_queue is not None:
            self.fifo_queue.popleft()
        self._take_task()
        child.requested -= 1
        if not child.requested:
            self.request_mask ^= child.prio_bit
        self.child_requests -= 1
        child.incoming += 1
        self.transfers_started += 1
        if tracer is not None:
            tracer.record(self.env.now, _trace.SEND_START, self.id, child.id)
        self._start_leg(child)

    def _start_leg(self, child: "NodeAgent") -> None:
        """Put a fresh transfer to ``child`` on the port: it owes the
        edge's full cost.  (Graph agents override: theirs owes a fluid
        *volume*.)"""
        env = self.env
        transfer = Transfer()
        transfer.child = child
        transfer.remaining = child.c
        transfer.started_at = env.now
        transfer.timer = env.call_in(child.c, self._send_done, transfer)
        self.current_transfer = transfer

    def _begin_leg(self, transfer: Transfer) -> None:
        """Put ``transfer`` back on the port and schedule its completion.
        (Graph agents override to route through the contention manager.)"""
        env = self.env
        transfer.started_at = env.now
        transfer.timer = env.call_in(transfer.remaining, self._send_done, transfer)
        self.current_transfer = transfer

    def _send_done(self, transfer: Transfer) -> None:
        self.current_transfer = None
        child = transfer.child
        tracer = self.tracer
        if tracer is not None:
            tracer.record(self.env.now, _trace.SEND_DONE,
                          self.id, child.id)
        child.incoming -= 1
        child.tasks_held += 1
        child.growth_armed = True  # one growth permitted per arrival cycle
        if child.tasks_held > child.max_held_seen:
            child.max_held_seen = child.tasks_held
            self.engine._note_held_high_water(child.tasks_held)
        # Growth rule 2: a send completed, a child is still requesting, and
        # this node's buffers are all empty.
        if self.growth and self.tasks_held == 0 and self.child_requests > 0:
            self._grow_buffer()
        if self.decay:
            self._decay_tick()
        # The task arrives: the child's CPU and port react to it.
        if child.decay:
            child._arrival_tick()
        if not child.cpu_busy:
            child.try_start_compute()
        if child.current_transfer is None:
            if child.shelf or (child.child_requests and child.tasks_held > 0):
                child._send_next()
        elif child.interruptible:
            # A fresh task may enable serving a child with higher priority
            # than the transfer currently on the child's port.
            child._maybe_preempt()
        # The arrival cascade may have refilled this port already.
        if self.current_transfer is None and (self.shelf or (
                self.child_requests and (
                    self.undispensed if self.is_root else self.tasks_held)
                > 0)):
            self._send_next()

    def _arrival_tick(self) -> None:
        """Account one task arrival toward shedding useless buffers.

        A streak of arrivals that each find the CPU idle marks a
        bandwidth-starved node whose extra buffers (and requests) buy
        nothing — the over-requesting of §3.1 case 4.  Nodes that are
        merely refilling a stock see back-to-back arrivals with a busy
        CPU, which resets the streak.
        """
        if self.cpu_busy:
            self.idle_arrival_streak = 0
        else:
            self.idle_arrival_streak += 1
            if (self.idle_arrival_streak >= self.decay_threshold
                    and self.requested >= 2
                    and self.buffers_total - self.decay_pending
                    > self.decay_floor):
                self.decay_pending += 1
                self.idle_arrival_streak = 0

    # ---------------------------------------------------------- preemption
    def _maybe_preempt(self) -> None:
        """Interruptible rule: shelve the port's transfer for a better child.

        The one copy of the decision, for tree and graph agents alike; a
        lane's way of stopping a leg is :meth:`_pause_leg`.
        """
        current = self.current_transfer
        if current is None:
            return
        best = self._choose_next()
        child = current.child
        if best is None or best.prio_key >= child.prio_key:
            return
        updates = self._pause_leg(current)
        if updates is None:
            return
        current.started_at = None
        current.timer = None
        self.shelf[child.id] = current
        if child.id not in self.suspect:
            self.shelf_mask |= child.prio_bit
        self.current_transfer = None
        self.preemptions += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.record(self.env.now, _trace.PREEMPT, self.id, child.id)
        if updates:
            self.engine._apply_rate_updates(updates)
        # Shelving a worse child left ``best`` the head of the order.
        self._send_next(best)

    def _pause_leg(self, transfer: Transfer):
        """Stop ``transfer``'s leg and book in ``remaining`` what it still
        owes.  Returns the flows whose rate the pause changed (none on a
        tree), or ``None`` to leave a leg that completes this very instant
        to finish.  (Graph agents override to pause the flow.)"""
        elapsed = self.env.now - transfer.started_at
        if elapsed >= transfer.remaining:
            # The transfer's completion timer is due this very timestep (it
            # just has a later calendar sequence number): let it finish.
            return None
        transfer.timer.cancel()
        transfer.remaining -= elapsed
        return ()

    # ------------------------------------------------------------ mutation
    def apply_weight_change(self, attribute: str, value) -> None:
        """Apply a dynamic platform change (activities in flight keep their
        original durations; new decisions see the new weight)."""
        if attribute == "w":
            self.w = value
            # Keep the live-key semantics of the old per-call computation:
            # a compute-centric weight change is visible to preemption
            # comparisons immediately, even though siblings are not
            # re-sorted (matching the pre-cache behaviour exactly).
            self._refresh_prio_key()
            return
        if self.is_root:
            raise ProtocolError("the root has no parent edge to mutate")
        self.c = value
        self._refresh_prio_key()
        parent = self.parent
        parent.resort_children()
        # Priorities changed: the port may now be serving the wrong child.
        if parent.interruptible and parent.current_transfer is not None:
            parent._maybe_preempt()
        elif parent.current_transfer is None:
            parent.try_send()

    # ------------------------------------------------------ fault recovery
    def enable_fault_recovery(self) -> None:
        """Switch the inert fault placeholders to live state.  Called by the
        engine for every agent when (and only when) the run carries a
        :class:`~repro.platform.faults.FaultSchedule`, so fault-free runs
        keep a bit-identical event calendar."""
        self.suspect = set()
        self.probe_timers = {}

    def _crash(self) -> int:
        """Die abruptly.  Returns the number of task instances destroyed
        *locally* (buffered or on the CPU); the engine pools them for
        eventual reclaim by the root.  The engine has already booked the
        port's flow and the shelf (:meth:`ProtocolEngine._crash_node`)."""
        self.alive = False
        self.growth = False
        self.decay = False
        lost = self.tasks_held
        self.tasks_held = 0
        if self.cpu_timer is not None:
            self.cpu_timer.cancel()
            self.cpu_timer = None
        if self.cpu_busy:
            self.cpu_busy = False
            lost += 1
        if self.sweep_timer is not None:
            self.sweep_timer.cancel()
            self.sweep_timer = None
        if self.probe_timers:
            for timer in self.probe_timers.values():
                timer.cancel()
            self.probe_timers.clear()
        return lost

    def _mark_suspect(self, child: "NodeAgent") -> None:
        """Freeze an unreachable child out of the schedule and start probing.

        Purely local: the parent observed a failed send (or a missed
        liveness ping) — it cannot tell a crash from a link outage, so it
        retries ``max_retries`` probes with exponential backoff before
        declaring the child dead.
        """
        if child.id in self.suspect:
            return
        self.suspect.add(child.id)
        # Out of the eligible order until re-admitted.
        keep = ~child.prio_bit
        self.request_mask &= keep
        self.shelf_mask &= keep
        # The child's announced requests leave the parent's demand counter
        # while suspicion lasts; deferred (unannounced) ones never entered.
        self.child_requests -= child.requested - child.deferred_requests
        tracer = self.tracer
        if tracer is not None:
            tracer.record(self.env.now, _trace.SUSPECT,
                          self.id, child.id)
        self.probe_timers[child.id] = self.env.call_in(
            self.request_timeout, self._probe_child, child, 1)

    def _probe_child(self, child: "NodeAgent", attempt: int) -> None:
        if not self.alive or child.id not in self.suspect:
            return
        self.probe_timers.pop(child.id, None)
        if child.alive and not child.link_down:
            self._readmit_child(child)
            return
        if attempt >= self.max_retries:
            self._declare_child_dead(child)
            return
        engine = self.engine
        if engine.completed >= engine.num_tasks:
            return  # job done; let the calendar drain
        delay = self.request_timeout * self.backoff_factor ** attempt
        self.probe_timers[child.id] = engine.env.call_in(
            delay, self._probe_child, child, attempt + 1)

    def _readmit_child(self, child: "NodeAgent") -> None:
        """A suspect (or previously declared-dead) child proved reachable
        again: restore its demand and resume serving it."""
        self.suspect.discard(child.id)
        timer = self.probe_timers.pop(child.id, None)
        if timer is not None:
            timer.cancel()
        if child not in self.children:
            # Declared dead, but the partition healed: re-attach.
            self.children.append(child)
            self.resort_children()
        self.child_requests += child.requested
        if child.requested > 0:
            self.request_mask |= child.prio_bit
        if child.id in self.shelf:
            self.shelf_mask |= child.prio_bit
        child.deferred_requests = 0
        tracer = self.tracer
        if tracer is not None:
            tracer.record(self.env.now, _trace.READMIT,
                          self.id, child.id)
        self.engine._flush_pending_losses(child)
        if self.current_transfer is None:
            self.try_send()
        elif self.interruptible:
            self._maybe_preempt()

    def _declare_child_dead(self, child: "NodeAgent") -> None:
        """Give up on a suspect child: detach its subtree and have the
        engine reclaim every task instance it destroyed."""
        self.suspect.discard(child.id)
        timer = self.probe_timers.pop(child.id, None)
        if timer is not None:
            timer.cancel()
        if child in self.children:
            self.children.remove(child)
            child.prio_bit = 0
            self.resort_children()
        extra = 0
        shelved = self.shelf.pop(child.id, None)
        if shelved is not None:
            # The half-sent task is abandoned along with the child.
            extra += 1
            self.engine.transfers_wasted += 1
            if child.alive:
                # Partitioned-but-alive child: the arrival it still expects
                # will never happen, so its buffer re-requests (deferred
                # until the link heals and it is re-admitted).
                child.incoming -= 1
                child.requested += 1
                child.deferred_requests += 1
        self.engine._flush_pending_losses(child, extra)
        if self.current_transfer is None:
            self.try_send()

    def _start_sweep(self) -> None:
        """Anchor the liveness-sweep grid at ``now``: sweeps may fall at
        ``now + k * request_timeout`` for ``k >= 1``.  Nothing is
        scheduled unless a fault already left a child unreachable (an
        application lane arriving after the fault)."""
        self.sweep_anchor = self.env.now
        self._arm_sweep()

    def _arm_sweep(self) -> None:
        """Put the next grid point on the calendar — ``now`` itself when
        it lies on the grid — if some unsuspected child is unreachable.

        Fault handlers are the only code that makes a child unreachable,
        and each calls this afterwards.  So no sweep that could change
        nothing is ever scheduled, and each fault is still caught at the
        grid time a sweep re-armed every ``request_timeout`` would have
        caught it.
        """
        if self.sweep_timer is not None or not self.alive:
            return
        anchor = self.sweep_anchor
        engine = self.engine
        # An application lane that has not arrived yet has no grid; its
        # :meth:`_start_sweep` arms it on arrival.
        if anchor is None or engine.completed >= engine.num_tasks:
            return
        suspect = self.suspect
        for child in self.children:
            if child.id not in suspect and (not child.alive
                                            or child.link_down):
                break
        else:
            return
        timeout = self.request_timeout
        steps = max(1, -((anchor - self.env.now) // timeout))
        self.sweep_timer = self.env.call_at(anchor + steps * timeout,
                                            self._liveness_sweep)

    def _liveness_sweep(self) -> None:
        """Liveness check of the children on the request-timeout grid: any
        unreachable non-suspect child enters suspicion even if no send to
        it happened to fail first.  That leaves no child for a later sweep
        to catch, so the sweep does not re-arm itself; the next fault
        arms the next one."""
        self.sweep_timer = None
        if not self.alive:
            return
        engine = self.engine
        if engine.completed >= engine.num_tasks:
            return
        for child in self.children:
            if (child.id not in self.suspect
                    and (not child.alive or child.link_down)):
                self._mark_suspect(child)

    # ------------------------------------------------------------ teardown
    def _release(self) -> None:
        """Drop this finished agent's links to its engine, calendar,
        neighbours and transfers (see :meth:`ProtocolEngine._release`)."""
        self.engine = self.env = self.tracer = None
        self.parent = self.current_transfer = self.fifo_queue = None
        self.cpu_timer = self.sweep_timer = self.probe_timers = None
        self.children = self.sorted_children = []
        self.shelf = {}

    # -------------------------------------------------------- warp support
    def fingerprint_state(self, now) -> tuple:
        """Canonical view of this agent's *dynamic* state for the
        steady-state warp (:mod:`repro.sim.warp`).

        Everything that can influence a future scheduling decision is here,
        expressed relative to ``now`` so two occurrences of the same
        periodic state compare equal; monotone tallies (``computed``,
        ``transfers_started``, …) are deliberately excluded — the warp
        extrapolates them instead.
        """
        transfer = self.current_transfer
        if transfer is None:
            current = None
        else:
            started = transfer.started_at
            current = (transfer.child.id, transfer.remaining,
                       None if started is None else now - started)
        shelf = self.shelf
        return (
            _FINGERPRINT_SCALARS(self),
            current,
            tuple(sorted([(cid, t.remaining) for cid, t in shelf.items()]))
            if shelf else (),
            (None if self.fifo_queue is None
             else tuple([a.id for a in self.fifo_queue])),
            tuple(sorted(self.suspect)) if self.suspect else (),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<NodeAgent {self.id} held={self.tasks_held} "
                f"buffers={self.buffers_total} computed={self.computed}>")
