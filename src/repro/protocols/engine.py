"""Protocol engine: wires a platform tree onto the kernel and runs one job.

The engine owns a private copy of the tree (mutations rewrite it), builds
one :class:`~repro.protocols.agents.NodeAgent` per node, registers every
node's initial requests *before* the first scheduling decision (so t=0
already respects priorities), and then lets the event loop run until all
``num_tasks`` tasks have been computed.

Dynamic platform changes (§4.2.3) are applied either when a completion
counter is reached or at a virtual time; in both cases activities already
in flight keep their original durations.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, List, Optional

from ..errors import ProtocolError
from ..platform.churn import ChurnSchedule, JoinEvent, LeaveEvent
from ..platform.faults import (CrashEvent, FaultSchedule, LinkFailureEvent,
                               LinkRepairEvent)
from ..platform.mutation import Mutation, MutationSchedule
from ..platform.tree import PlatformTree
from ..service.driver import OpenLoopDriver
from ..sim.core import Environment
from ..sim.warp import (REASON_CONTENTION, REASON_DYNAMIC, REASON_OPEN_LOOP,
                        REASON_TELEMETRY, REASON_TRACING, PeriodicTimeline,
                        WarpController, WarpSummary)
from . import trace as _trace
from .agents import NodeAgent
from .config import PriorityRule, ProtocolConfig
from .result import SimulationResult

__all__ = ["ProtocolEngine"]

# Deep trees drive synchronous request chains up the ancestry; give the
# interpreter room well beyond the deepest generated platforms.
_MIN_RECURSION_LIMIT = 20_000


class _RecorderFanout:
    """Duplicates the protocol trace stream into multiple recorders (the
    user's tracer plus the telemetry event tap)."""

    __slots__ = ("sinks",)

    def __init__(self, sinks):
        self.sinks = tuple(sinks)

    def record(self, time, kind: str, node: int, peer=None) -> None:
        for sink in self.sinks:
            sink.record(time, kind, node, peer)


class ProtocolEngine:
    """One simulation of ``num_tasks`` independent tasks on ``tree``."""

    #: Agent type built per node — the graph engine substitutes its
    #: contention-aware subclass without re-plumbing the assembly code.
    _agent_class = NodeAgent
    #: Whether the steady-state warp is sound on this engine.  Shared-link
    #: contention breaks the quiescent-periodicity argument, so the graph
    #: engine stands warp down.
    _supports_warp = True
    #: Stand-down reason reported when ``_supports_warp`` is False — always
    #: one of :data:`repro.sim.warp.STAND_DOWN_REASONS` (graph lanes
    #: substitute their own member of the set).
    _warp_stand_down = REASON_CONTENTION

    def __init__(self, tree: PlatformTree, config: ProtocolConfig,
                 num_tasks: int,
                 mutations: Optional[MutationSchedule] = None,
                 churn: Optional[ChurnSchedule] = None,
                 faults: Optional[FaultSchedule] = None,
                 record_buffer_timeline: bool = False,
                 record_completion_times: bool = True,
                 check_invariants: bool = False,
                 arrivals=None, admission=None):
        if num_tasks < 0:
            raise ProtocolError(f"num_tasks must be >= 0, got {num_tasks}")
        self.tree = tree.copy()  # mutations must not leak into caller's tree
        self.config = config
        self.num_tasks = num_tasks
        self.mutations = mutations if mutations is not None else MutationSchedule()
        self.mutations.validate(self.tree)
        self.churn = churn if churn is not None else ChurnSchedule()
        self.churn.validate(self.tree)
        if self.churn and config.priority_rule is PriorityRule.FIFO:
            raise ProtocolError(
                "churn with FIFO ordering is unsupported (withdrawing a "
                "departed node's queued requests is ill-defined)")
        self.faults = faults if faults is not None else FaultSchedule()
        self.faults.validate(self.tree)
        if self.faults and config.priority_rule is PriorityRule.FIFO:
            raise ProtocolError(
                "faults with FIFO ordering are unsupported (reconciling a "
                "failed node's queued requests is ill-defined)")
        self.record_buffer_timeline = record_buffer_timeline
        self.record_completion_times = record_completion_times
        #: Run the task-conservation checker after every fault event (and
        #: every pending-loss flush).  Off by default: the check walks all
        #: agents, which is pure overhead on healthy runs.
        self.check_invariants = check_invariants
        #: Open-loop service driver (``None`` for closed-bag runs).
        self.service_driver: Optional[OpenLoopDriver] = None
        if arrivals is not None:
            if num_tasks:
                raise ProtocolError(
                    "open-loop runs stream their tasks: pass arrivals= "
                    f"with an empty bag, not num_tasks={num_tasks}")
            if self.mutations or self.churn or self.faults:
                raise ProtocolError(
                    "open-loop arrivals cannot be combined with "
                    "mutation/churn/fault schedules")
            self.service_driver = OpenLoopDriver(self, arrivals, admission)
        elif admission is not None:
            raise ProtocolError("admission= requires arrivals=")

        self.env = self._make_env()
        #: Optional :class:`repro.protocols.trace.Tracer` recording protocol
        #: events; assign before calling :meth:`run`.
        self.tracer = None
        #: Effective trace recorder agents fan protocol events into: the
        #: telemetry event tap, :attr:`tracer`, a fanout of both, or
        #: ``None``.  Fixed once per run by :meth:`_resolve_warp`.
        self._recorder = None
        #: Live telemetry probe (``None`` unless ``config.telemetry`` set).
        self.probe = None
        if config.telemetry is not None:
            # Deferred import: the telemetry package imports protocols.
            from ..telemetry.probes import TelemetryProbe
            self.probe = TelemetryProbe(self, config.telemetry)
        self.nodes: List[NodeAgent] = []
        self.completed = 0
        #: Per-task timelines hold ints in an ``array('q')``, 8 bytes a
        #: task, until a value it cannot hold (see :meth:`_record_timeline`).
        self.completion_times = array("q")
        #: Running fold of the last completion's time — kept even when the
        #: per-task timeline above is not recorded, so aggregate metrics
        #: (makespan, mean rate) never need the O(num_tasks) record.
        self.last_completion_time = 0
        self._warp: Optional[WarpController] = None
        self._warp_summary: Optional[WarpSummary] = None
        self.buffer_high_water = config.initial_buffers
        self.held_high_water = 0
        self.buffer_timeline = array("q")
        self.held_timeline = array("q")
        #: Timelines the warp replays, by attribute name: ``(head, template,
        #: periods, Δ)``.  The array under that name then records only the
        #: tail after the warp, and :meth:`_collect` joins the parts into
        #: a :class:`~repro.sim.warp.PeriodicTimeline`.
        self._replayed: Dict[str, tuple] = {}
        self._task_mutations = self.mutations.task_triggered()
        self._next_task_mutation = 0
        self._finished = False
        self.repository_exhausted_at: Optional[int] = None

        # Fault-recovery bookkeeping.  ``_pending_lost`` pools destroyed
        # task instances under the id of the node whose unreachability the
        # surviving tree will detect; the pool is flushed into the root's
        # repository when that detection (or a link repair) happens.
        self._pending_lost: Dict[int, int] = {}
        self.tasks_reexecuted = 0
        self.transfers_wasted = 0
        self.crashed_node_ids: List[int] = []
        self.crash_times: List[int] = []
        self.reclaim_times: List[int] = []

        self._build_agents()

    def _make_env(self) -> Environment:
        """Calendar this engine runs on.  Graph lanes override this so
        several per-application agent sets share one calendar."""
        return Environment()

    # ------------------------------------------------------------ assembly
    def _build_agents(self) -> None:
        tree, config = self.tree, self.config
        for node_id in range(tree.num_nodes):
            agent = self._agent_class(self, node_id, tree.w[node_id],
                                      tree.c[node_id], config,
                                      is_root=(node_id == tree.root))
            self.nodes.append(agent)
        for node_id in range(tree.num_nodes):
            agent = self.nodes[node_id]
            parent_id = tree.parent[node_id]
            if parent_id is not None:
                agent.parent = self.nodes[parent_id]
            agent.children = [self.nodes[cid] for cid in tree.children[node_id]]
            agent.resort_children()
        self.nodes[tree.root].undispensed = self.num_tasks
        if self.faults:
            for agent in self.nodes:
                agent.enable_fault_recovery()

    # ----------------------------------------------------------- callbacks
    def _on_completion(self, node: NodeAgent) -> None:
        now = self.env.now
        self.completed += 1
        self.last_completion_time = now
        if self.record_completion_times:
            if type(now) is int:
                try:
                    self.completion_times.append(now)
                except OverflowError:
                    self._record_timeline("completion_times", now)
            else:
                self._record_timeline("completion_times", now)
        if self.record_buffer_timeline:
            self._record_timeline("buffer_timeline", self.buffer_high_water)
            self._record_timeline("held_timeline", self.held_high_water)
        while (self._next_task_mutation < len(self._task_mutations)
               and self._task_mutations[self._next_task_mutation].after_tasks
               <= self.completed):
            mutation = self._task_mutations[self._next_task_mutation]
            self._next_task_mutation += 1
            self._apply_mutation(mutation)
        # The driver's latency fold must run before the warp hook: the
        # warp's per-period template relies on seeing this completion's
        # latency before it fingerprints the instant.
        if self.service_driver is not None:
            self.service_driver.on_completion(now)
        if self._warp is not None:
            self._warp.on_completion(node)

    def _record_timeline(self, name: str, value) -> None:
        """Append ``value`` to the timeline ``name``.

        An ``int`` that fits 64 bits goes into the timeline's
        ``array('q')``.  The first other value (a ``FastFraction`` time on
        a contended graph, a float, a bool, a NumPy int, or an int beyond
        64 bits) moves that timeline to a list for the rest of the run, so
        every item keeps the type it was recorded with."""
        timeline = getattr(self, name)
        if type(timeline) is array and type(value) is int:
            try:
                timeline.append(value)
                return
            except OverflowError:
                pass
        if type(timeline) is not list:
            timeline = list(timeline)
            setattr(self, name, timeline)
        timeline.append(value)

    def _note_buffer_high_water(self, buffers: int) -> None:
        if buffers > self.buffer_high_water:
            self.buffer_high_water = buffers

    def _note_held_high_water(self, held: int) -> None:
        if held > self.held_high_water:
            self.held_high_water = held

    def _on_repository_exhausted(self) -> None:
        self.repository_exhausted_at = self.env.now
        if self.service_driver is not None:
            self.service_driver.on_repository_exhausted(self.env.now)

    def _apply_mutation(self, mutation: Mutation) -> None:
        mutation.apply(self.tree)  # keep the tree snapshot in sync
        if self._recorder is not None:
            self._recorder.record(self.env.now, _trace.MUTATION, mutation.node)
        self.nodes[mutation.node].apply_weight_change(
            mutation.attribute, mutation.value)

    def _apply_join(self, join: JoinEvent) -> None:
        if not 0 <= join.parent < self.tree.num_nodes:
            raise ProtocolError(
                f"join at t={join.at_time} targets unknown node {join.parent}")
        if self.nodes[join.parent].departed:
            raise ProtocolError(
                f"join at t={join.at_time}: node {join.parent} has departed")
        if not self.nodes[join.parent].alive:
            raise ProtocolError(
                f"join at t={join.at_time}: node {join.parent} has crashed")
        mapping = self.tree.attach_subtree(join.parent, join.subtree,
                                           join.attach_cost)
        new_ids = sorted(mapping.values())
        for node_id in new_ids:
            agent = NodeAgent(self, node_id, self.tree.w[node_id],
                              self.tree.c[node_id], self.config, is_root=False)
            self.nodes.append(agent)
        for node_id in new_ids:
            agent = self.nodes[node_id]
            agent.parent = self.nodes[self.tree.parent[node_id]]
            agent.children = [self.nodes[cid]
                              for cid in self.tree.children[node_id]]
            agent.resort_children()
        attach_parent = self.nodes[join.parent]
        attach_parent.children = [self.nodes[cid]
                                  for cid in self.tree.children[join.parent]]
        attach_parent.resort_children()
        if self.faults:
            for node_id in new_ids:
                agent = self.nodes[node_id]
                agent.enable_fault_recovery()
                agent._start_sweep()
        # New nodes start participating NOW: live requests (which may
        # immediately preempt lower-priority transfers under IC).
        for node_id in new_ids:
            self.nodes[node_id].announce_join()

    def _apply_leave(self, leave: LeaveEvent) -> None:
        if not 0 <= leave.node < self.tree.num_nodes:
            raise ProtocolError(
                f"leave at t={leave.at_time} targets unknown node {leave.node}")
        if leave.node == self.tree.root:
            raise ProtocolError("the repository root cannot leave")
        for node_id in self.tree.subtree_ids(leave.node):
            if self.nodes[node_id].alive:  # crashed nodes already "left"
                self.nodes[node_id].depart()

    # --------------------------------------------------------------- faults
    # One crash model on every path (DESIGN.md): a crash kills one host
    # and its links; its children re-parent and, with no route left (on a
    # tree, always), park and finish what they hold.  The routed
    # GraphFaultDriver books faults through the same lane methods; the
    # tree handlers below only supply a tree's physical facts.
    def _fault_agent(self, event) -> NodeAgent:
        if not 0 <= event.node < len(self.nodes):
            raise ProtocolError(
                f"fault at t={event.at_time} targets unknown node {event.node}")
        return self.nodes[event.node]

    def _kill_flow(self, transfer, dying: Optional[int] = None) -> None:
        """Book one flow killed on the wire; ``dying`` is the id of the
        host crashing, if any.  The task pools as a pending loss under
        the node whose unreachability the survivors will detect: the
        dying host for a flow into or out of it, else the receiver, whose
        parent suspects it."""
        child = transfer.child
        sender = child.parent
        if transfer.timer is not None:
            transfer.timer.cancel()
            transfer.timer = None
        # Active flows always sit on their sender's port (a child is
        # re-parented only after its old parent's flows were killed).
        sender.current_transfer = None
        self.transfers_wasted += 1
        pooled = sender.id if sender.id == dying else child.id
        self._pending_lost[pooled] = self._pending_lost.get(pooled, 0) + 1
        if child.id != dying:
            # The receiver re-requests; after an outage the request stays
            # deferred until its parent re-admits it.
            child.incoming -= 1
            child.requested += 1
            if sender.id != dying:
                child.deferred_requests += 1
                sender._mark_suspect(child)

    def _crash_node(self, victim: NodeAgent,
                    adopters: Dict[int, int]) -> None:
        """Kill the single host ``victim`` (its crossing flows already
        booked by :meth:`_kill_flow`) and hand each child to the new
        parent ``adopters`` names by id."""
        parent = victim.parent
        pending = 0
        if parent is not None and parent.alive:
            if parent.shelf.pop(victim.id, None) is not None:
                # The parent's half-sent task dies with the victim.
                parent.shelf_mask &= ~victim.prio_bit
                pending += 1
                self.transfers_wasted += 1
            if victim in parent.children:
                parent._mark_suspect(victim)
        # The victim's own shelved half-sends: their receivers survive and
        # re-request (announced: the request moves to the new parent).
        for cid in sorted(victim.shelf):
            child = victim.shelf[cid].child
            pending += 1
            self.transfers_wasted += 1
            child.incoming -= 1
            child.requested += 1
        victim.shelf.clear()
        victim.shelf_mask = 0
        pending += victim._crash() + self._pending_lost.pop(victim.id, 0)
        self._pending_lost[victim.id] = pending
        self.crashed_node_ids.append(victim.id)
        self.crash_times.append(self.env.now)
        if self._recorder is not None:
            self._recorder.record(self.env.now, _trace.CRASH, victim.id)
        gained: List[NodeAgent] = []
        for orphan in sorted(victim.children, key=lambda a: a.id):
            new_parent = self.nodes[adopters[orphan.id]]
            orphan.parent = new_parent
            new_parent.children.append(orphan)
            new_parent.child_requests += (orphan.requested
                                          - orphan.deferred_requests)
            if new_parent not in gained:
                gained.append(new_parent)
        victim.children = []
        for new_parent in gained:
            new_parent.resort_children()
        if parent is None or not parent.alive or victim not in parent.children:
            # Detached before death (e.g. declared dead while parked):
            # nobody probes it, so the loss surfaces now.
            self._flush_pending_losses(victim)

    def _park(self, agent: NodeAgent) -> None:
        """``agent`` lost its route to its parent."""
        if not agent.link_down:
            agent.link_down = True
            if self._recorder is not None:
                self._recorder.record(self.env.now, _trace.LINK_DOWN,
                                      agent.id)

    def _unpark(self, agent: NodeAgent) -> None:
        """``agent``'s route to its parent is back: the parent re-admits
        it or hears the requests deferred meanwhile, and the losses
        pooled under it surface."""
        agent.link_down = False
        if self._recorder is not None:
            self._recorder.record(self.env.now, _trace.LINK_UP, agent.id)
        parent = agent.parent
        if agent.alive and parent is not None and parent.alive:
            if agent.id in parent.suspect or agent not in parent.children:
                parent._readmit_child(agent)
            elif agent.deferred_requests:
                parent.child_requests += agent.deferred_requests
                agent.deferred_requests = 0
        self._flush_pending_losses(agent)

    def _kick_ports(self) -> None:
        """Every alive agent, in id order, reconsiders its port."""
        for agent in self.nodes:
            if not agent.alive:
                continue
            if agent.current_transfer is None:
                agent.try_send()
            elif agent.interruptible:
                agent._maybe_preempt()

    def _arm_sweeps(self) -> None:
        for agent in self.nodes:
            agent._arm_sweep()

    def _settle_fault(self) -> None:
        """Close a tree fault as ``GraphFaultDriver`` closes one: kick
        every port, arm the sweeps a fault needs, then check."""
        self._kick_ports()
        self._arm_sweeps()
        if self.check_invariants:
            self._check_conservation()

    def _apply_crash(self, event: CrashEvent) -> None:
        victim = self._fault_agent(event)
        parent = victim.parent
        # The victim's links die: its parent edge and its children's.
        inbound = parent.current_transfer
        if inbound is not None and inbound.child is victim:
            self._kill_flow(inbound, victim.id)
        if victim.current_transfer is not None:
            self._kill_flow(victim.current_transfer, victim.id)
        orphans = sorted(victim.children, key=lambda a: a.id)
        self._crash_node(victim, {orphan.id: parent.id for orphan in orphans})
        for orphan in orphans:
            self._park(orphan)  # a tree has no second route
        self._settle_fault()

    def _apply_link_failure(self, event: LinkFailureEvent) -> None:
        agent = self._fault_agent(event)
        self._park(agent)
        transfer = agent.parent.current_transfer
        if transfer is not None and transfer.child is agent:
            # The in-flight task dies on the wire.  (A *shelved* transfer
            # is parked at the parent and survives the outage.)
            self._kill_flow(transfer)
        self._settle_fault()

    def _apply_link_repair(self, event: LinkRepairEvent) -> None:
        self._unpark(self._fault_agent(event))
        self._settle_fault()

    def _flush_pending_losses(self, agent: NodeAgent, extra: int = 0) -> None:
        """Reclaim task instances destroyed around ``agent`` into the
        root's repository and restart dispensing."""
        lost = self._pending_lost.pop(agent.id, 0) + extra
        if lost == 0:
            return
        self.tasks_reexecuted += lost
        self.reclaim_times.append(self.env.now)
        if self._recorder is not None:
            self._recorder.record(self.env.now, _trace.RECLAIM, agent.id, lost)
        self._refill_root(lost)
        if self.check_invariants:
            self._check_conservation()

    def _refill_root(self, tasks: int) -> None:
        """Credit ``tasks`` to the root's repository and restart
        dispensing: the one refill entry of reclaimed losses and
        open-loop arrivals."""
        root = self.nodes[self.tree.root]
        root.undispensed += tasks
        self.repository_exhausted_at = None
        root.try_start_compute()
        if root.current_transfer is None:
            root.try_send()
        elif root.interruptible:
            root._maybe_preempt()

    def _check_conservation(self) -> None:
        """Runtime task-conservation invariant: every instance of the bag
        is in exactly one place — completed, undispensed at the root,
        buffered, on a CPU, in flight on a port, shelved mid-send, or
        pooled as a pending loss awaiting reclamation.  A leak here is a
        bug in fault bookkeeping that would otherwise only surface as a
        hung run or a short count at collection time."""
        in_buffers = in_cpu = in_flight = shelved = 0
        for agent in self.nodes:
            in_buffers += agent.tasks_held
            if agent.cpu_busy:
                in_cpu += 1
            if agent.current_transfer is not None:
                in_flight += 1
            shelved += len(agent.shelf)
        pending = sum(self._pending_lost.values())
        undispensed = self.nodes[self.tree.root].undispensed
        total = (self.completed + undispensed + in_buffers + in_cpu
                 + in_flight + shelved + pending)
        if total != self.num_tasks:
            raise ProtocolError(
                f"task conservation violated at t={self.env.now}: "
                f"completed={self.completed} + undispensed={undispensed} "
                f"+ buffered={in_buffers} + computing={in_cpu} "
                f"+ in-flight={in_flight} + shelved={shelved} "
                f"+ pending-lost={pending} = {total} != "
                f"num_tasks={self.num_tasks}")

    # ----------------------------------------------------------------- run
    def _resolve_warp(self) -> None:
        """Fix the run's watchers, then apply the warp guard chain: either
        build the controller or stand down with one of the shared
        :data:`~repro.sim.warp.STAND_DOWN_REASONS` constants.

        Every run calls this once, before the first event.  The effective
        recorder is built here and pushed to every agent's hot-path cache;
        agents built later (churn joins) take it at construction.
        """
        tap = self.probe.tap if self.probe is not None else None
        sinks = [sink for sink in (tap, self.tracer) if sink is not None]
        if len(sinks) > 1:
            self._recorder = _RecorderFanout(sinks)
        else:
            self._recorder = sinks[0] if sinks else None
        for agent in self.nodes:
            agent.tracer = self._recorder
        if not self.config.warp:
            return
        # The warp is sound only for the quiescent base model: any
        # dynamic platform schedule breaks periodicity, and tracing
        # observes the very events the warp would skip.
        if not self._supports_warp:
            self._warp_summary = WarpSummary(
                applied=False, reason=self._warp_stand_down)
        elif self.mutations or self.churn or self.faults:
            self._warp_summary = WarpSummary(
                applied=False, reason=REASON_DYNAMIC)
        elif self._recorder is not None:
            self._warp_summary = WarpSummary(
                applied=False, reason=REASON_TRACING)
        elif self.probe is not None:
            # Sampling probes observe intermediate state at times the
            # warp would skip straight over.
            self._warp_summary = WarpSummary(
                applied=False, reason=REASON_TELEMETRY)
        elif (self.service_driver is not None
              and not self.service_driver.arrivals.is_periodic):
            # Stochastic arrival streams never recur, so the cycle
            # detector would only burn fingerprints; exactly-periodic
            # streams keep warp in play (arrival-phase recurrence).
            self._warp_summary = WarpSummary(
                applied=False, reason=REASON_OPEN_LOOP)
        else:
            self._warp = WarpController(self)

    def _arm(self) -> None:
        """Register schedules, announce t=0 demand, and kick scheduling.

        Split from :meth:`run` so the multi-app engine can arm several
        agent sets (one per application, possibly at staggered arrival
        times) on one shared calendar before running it once.
        """
        for mutation in self.mutations.time_triggered():
            self.env.call_at(mutation.at_time, self._apply_mutation, mutation)
        for event in self.churn:
            handler = (self._apply_join if isinstance(event, JoinEvent)
                       else self._apply_leave)
            self.env.call_at(event.at_time, handler, event)
        for event in self.faults:
            if isinstance(event, CrashEvent):
                fault_handler = self._apply_crash
            elif isinstance(event, LinkFailureEvent):
                fault_handler = self._apply_link_failure
            else:
                fault_handler = self._apply_link_repair
            self.env.call_at(event.at_time, fault_handler, event)

        # Phase 1: every node registers its initial requests.
        for agent in self.nodes:
            agent.send_initial_requests()
        # Phase 2: scheduling starts with full knowledge of t=0 demand.
        for agent in self.nodes:
            agent.try_start_compute()
            agent.try_send()
        if self.faults:
            # Liveness sweeps only exist when faults can happen, so a
            # fault-free run keeps a bit-identical event calendar; even
            # then a sweep is scheduled only once a fault handler leaves a
            # child unreachable.
            for agent in self.nodes:
                agent._start_sweep()
        if self.service_driver is not None:
            self.service_driver.arm()
        if self.probe is not None:
            self.probe.start()

    def run(self) -> SimulationResult:
        """Execute the simulation to completion and return its result."""
        if self._finished:
            raise ProtocolError("engine already ran; build a new one")
        self._finished = True
        self._resolve_warp()

        limit = sys.getrecursionlimit()
        if limit < _MIN_RECURSION_LIMIT:
            sys.setrecursionlimit(_MIN_RECURSION_LIMIT)
        try:
            self._arm()
            self.env.run()
        finally:
            sys.setrecursionlimit(limit)
        return self._collect()

    def _release(self) -> None:
        """Break the reference cycles of a finished run.

        Agents and their engine point at each other, so do parents and
        children, and timers left on the calendar hold agents' bound
        callbacks.  With those links cut, refcounting frees the run as soon
        as its last reference goes instead of leaving it to the cyclic
        collector.  :func:`repro.simulate` calls this once the result is
        collected; the engine cannot be used afterwards.
        """
        self.env._heap.clear()
        for agent in self.nodes:
            agent._release()
        self._warp = self.service_driver = self.probe = None

    def replay_timeline(self, name: str, start: int, periods: int,
                        delta) -> None:
        """Repeat the recorded timeline ``name`` from index ``start`` to
        its end ``periods`` times, shifted by ``delta`` a period (the warp's
        skipped span); what the run records next is the tail after it."""
        recorded = getattr(self, name)
        self._replayed[name] = (recorded, recorded[start:], periods, delta)
        setattr(self, name, array("q"))

    def _timeline(self, name: str) -> PeriodicTimeline:
        """The recorded timeline ``name`` as a
        :class:`~repro.sim.warp.PeriodicTimeline`: with zero periods and
        the record as its head, or the warp's replayed span and the tail."""
        recorded = getattr(self, name)
        replayed = self._replayed.get(name)
        if replayed is None:
            return PeriodicTimeline(recorded, (), 0, 0)
        return PeriodicTimeline(*replayed, recorded)

    def _collect(self) -> SimulationResult:
        """Check the conservation invariant and assemble the result."""
        if self.completed != self.num_tasks:  # pragma: no cover - invariant
            raise ProtocolError(
                f"run ended with {self.completed}/{self.num_tasks} tasks "
                "completed — a task instance was lost and never reclaimed")

        if self._warp is not None:
            self._warp_summary = self._warp.finalize()

        return SimulationResult(
            tree=self.tree,
            config=self.config,
            num_tasks=self.num_tasks,
            completion_times=self._timeline("completion_times"),
            per_node_computed=tuple(a.computed for a in self.nodes),
            per_node_max_buffers=tuple(a.max_buffers_seen for a in self.nodes),
            per_node_max_held=tuple(a.max_held_seen for a in self.nodes),
            buffer_high_water_at_completion=self._timeline("buffer_timeline"),
            held_high_water_at_completion=self._timeline("held_timeline"),
            departed_node_ids=tuple(a.id for a in self.nodes if a.departed),
            buffers_decayed=sum(a.buffers_decayed for a in self.nodes),
            preemptions=sum(a.preemptions for a in self.nodes),
            transfers=sum(a.transfers_started for a in self.nodes),
            # The sampler's own calendar entries are not protocol work;
            # subtracting them keeps telemetry-on fingerprints equal to
            # telemetry-off ones.
            events_processed=self.env.processed_count - (
                self.probe.sampler_fires if self.probe is not None else 0),
            repository_exhausted_at=self.repository_exhausted_at,
            crashed_node_ids=tuple(self.crashed_node_ids),
            tasks_reexecuted=self.tasks_reexecuted,
            transfers_wasted=self.transfers_wasted,
            crash_times=tuple(self.crash_times),
            reclaim_times=tuple(self.reclaim_times),
            last_completion_time=self.last_completion_time,
            warp=self._warp_summary,
            telemetry=(self.probe.finalize()
                       if self.probe is not None else None),
            service=(self.service_driver.finalize()
                     if self.service_driver is not None else None),
        )

