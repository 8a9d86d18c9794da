"""Protocol lanes for graph platforms: overlays plus link contention.

The autonomous protocols are defined on trees, so a graph run has two
halves:

* an **overlay** — a spanning tree over the graph's *hosts*
  (:class:`~repro.platform.graph.Overlay`), on which the unmodified
  protocol logic runs (priorities, buffers, growth, preemption: all of
  :class:`~repro.protocols.agents.NodeAgent`);
* a **fluid transfer model** — each overlay send is a flow of one task's
  volume over the physical route behind the overlay edge, and concurrent
  flows sharing a link split its bandwidth per the run's allocator
  (:class:`~repro.platform.contention.LinkContention`).

:class:`GraphNodeAgent` overrides exactly the scheduling touch points
where a tree agent talks to the calendar (start or resume a leg, finish
a leg, pause a leg) and routes them through the contention manager; the
manager reports back only the flows whose rate actually changed, and only
those timers are rescheduled.  On a tree expressed as a graph every link
carries at most one flow (the single send port serializes a parent's
transfers), so no rate ever changes, no timer is ever rescheduled, and
the event calendar — hence :meth:`SimulationResult.fingerprint` — is
bit-identical to the tree engine's.  That equivalence is the correctness
anchor for everything else a lane does, and is enforced by the golden
table in ``tests/test_equivalence_table.py``.

:class:`GraphProtocolEngine` is one application's agent set, a *lane*.
:class:`~repro.apps.engine.MultiAppEngine` builds one lane per
application (a single-application graph run is one lane) and owns what
the lanes share: the calendar, the private graph copy, the contention
manager and the :class:`GraphFaultDriver`, which mutates that copy and
re-routes every lane.  Mutations and churn remain tree-engine features
(``repro.simulate`` rejects them on graph platforms), and the
steady-state warp stands down.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..platform.contention import LinkContention, _exact
from ..platform.faults import (CrashEvent, DegradeEvent, EdgeFailureEvent,
                               EdgeRepairEvent, FaultSchedule,
                               LinkFailureEvent, SwitchCrashEvent)
from ..platform.graph import Overlay, PlatformGraph
from ..sim.core import Environment
from ..sim.events import FastFraction
from ..sim.warp import REASON_GRAPH_FAULTS, REASON_MULTI_APP
from . import trace as _trace
from .agents import NodeAgent, Transfer
from .engine import ProtocolEngine
from .topologies import reassign_orphans

__all__ = ["GraphNodeAgent", "GraphProtocolEngine", "GraphFaultDriver"]


def _leg_duration(volume, rate):
    """Time to drain ``volume`` at ``rate``, exactly (never float).

    A :class:`FastFraction` rate (every rate the contention manager
    hands out that is not an int) keeps the result one too.  On int-cost
    links most rates are unit fractions — a lone flow runs at
    ``1 / cost``, a fair share at ``1 / (cost × count)`` — and an int
    volume's time is then an int multiply by the rate's reciprocal, its
    denominator.
    """
    cls = volume.__class__
    if cls is int:
        if rate.__class__ is FastFraction:
            if rate._numerator == 1:
                return volume * rate._denominator
        elif rate.__class__ is int:
            whole, rest = divmod(volume, rate)
            return FastFraction(volume, rate) if rest else whole
    elif cls is not FastFraction and not isinstance(volume, Fraction):
        volume = FastFraction(volume)
    return _exact(volume / rate)


class GraphNodeAgent(NodeAgent):
    """A protocol agent whose transfers are fluid flows on a graph.

    ``Transfer.remaining`` holds the flow's remaining *volume* in tasks
    (a full send starts at the lane's task size) instead of the tree
    agent's remaining *time*; with one flow per link the two are related
    by the constant link rate, which is why every inherited decision rule
    (including the preemption let-it-finish test) carries over unchanged.
    """

    __slots__ = ("route",)

    def _start_leg(self, child: "GraphNodeAgent") -> None:
        # Volume in tasks; the default size 1 (an int) keeps a unit-task
        # run's rates and leg times exact integers wherever possible.
        transfer = Transfer()
        transfer.child = child
        transfer.remaining = self.engine.task_size
        transfer.started_at = None
        transfer.timer = None
        self._begin_leg(transfer)

    def _begin_leg(self, transfer: Transfer) -> None:
        engine = self.engine
        self.current_transfer = transfer
        updates = engine.contention.start(
            transfer, transfer.child.route, transfer.remaining, self.env.now,
            engine._flow_priority)
        engine._apply_rate_updates(updates)

    def _send_done(self, transfer: Transfer) -> None:
        transfer.timer = None
        updates = self.engine.contention.finish(transfer, self.env.now)
        # Survivors speed up before the arrival cascade can start new
        # flows, so the cascade allocates against settled state.
        if updates:
            self.engine._apply_rate_updates(updates)
        super()._send_done(transfer)

    def _pause_leg(self, transfer: Transfer):
        timer = transfer.timer
        if timer is not None:  # a starved flow stalls timer-less
            if timer.time <= self.env.now:
                # The flow's completion timer is due this very timestep
                # (it just has a later calendar sequence number): let it
                # finish.  The timer was set for the instant the flow's
                # remaining volume reaches 0 at its current rate, so this
                # is that volume's ``<= 0`` test without recomputing it.
                return None
            timer.cancel()
        transfer.remaining, updates = self.engine.contention.pause(
            transfer, self.env.now)
        return updates


class GraphFaultDriver:
    """Consumes a :class:`FaultSchedule` against a routed graph run.

    The tree engine's fault path is "a node or its parent link"; on a
    graph a fault is *routed*: one failed fabric link kills every flow
    crossing it (in any lane of a multi-app run), shortest paths
    recompute around it, overlay edges re-route, and hosts with no
    remaining route to the repository *park* until the partition heals.
    The driver owns the shared physical state (the
    :class:`~repro.apps.engine.MultiAppEngine`'s private graph copy and
    contention manager) and drives every registered lane — one per
    application — through the same deterministic recovery sequence:

    1. mutate the graph (link up/down, node crash, degrade factor);
    2. kill exactly the flows crossing a failed link and have each lane
       book its losses (:meth:`~repro.protocols.engine.ProtocolEngine.
       _kill_flow`);
    3. host crash only: destroy the victim agent in every lane and
       re-parent its orphaned overlay children
       (:meth:`~repro.protocols.engine.ProtocolEngine._crash_node`, with
       :func:`~repro.protocols.topologies.reassign_orphans` — rack-head
       re-election on leaf-spine fabrics — choosing the new parents);
    4. refresh every overlay route in two phases — first recompute all
       routes/costs and park newly unreachable hosts, then unpark healed
       ones (:meth:`~repro.protocols.engine.ProtocolEngine._unpark`) — so
       no transfer ever starts on a stale route;
    5. kick every alive agent in deterministic (lane, id) order so the
       protocol reacts autonomously (suspect/probe/backoff against the
       next hop, pending-loss reclamation into the repository);
    6. optionally run the per-lane task-conservation checker.

    Recovery itself is the *unmodified* autonomous protocol: the driver
    only injects the physical facts; detection (suspicion, probing with
    exponential backoff, declaring death, re-admission) happens in the
    agents, exactly as on trees.  The tree engine's fault handlers call
    the same lane methods, so both paths share one crash model.
    """

    def __init__(self, graph: PlatformGraph, overlay: Overlay,
                 schedule: FaultSchedule, contention: LinkContention,
                 check_invariants: bool = False):
        self.graph = graph
        self.overlay = overlay
        self.schedule = schedule
        self.contention = contention
        self.check_invariants = check_invariants
        self.lanes: List["GraphProtocolEngine"] = []
        self.env = None
        #: graph host id -> overlay node id (= agent index in every lane).
        self._oid: Dict[int, int] = {h: i
                                     for i, h in enumerate(overlay.hosts)}

    def register_lane(self, lane: "GraphProtocolEngine") -> None:
        self.lanes.append(lane)

    # ------------------------------------------------------------- arming
    def _host_access_link(self, host: int) -> int:
        """Physical link behind a tree-addressed link event's target
        (validated single-hop by ``FaultSchedule.validate_graph``)."""
        return self.overlay.routes[self._oid[host]][0]

    def arm(self, env) -> None:
        """Register every event on the calendar."""
        self.env = env
        for event in self.schedule:
            if isinstance(event, EdgeFailureEvent):
                env.call_at(event.at_time, self._on_edge_failure, event.link)
            elif isinstance(event, EdgeRepairEvent):
                env.call_at(event.at_time, self._on_edge_repair, event.link)
            elif isinstance(event, DegradeEvent):
                env.call_at(event.at_time, self._on_degrade, event)
                env.call_at(event.ends_at, self._on_degrade_end, event)
            elif isinstance(event, SwitchCrashEvent):
                env.call_at(event.at_time, self._on_switch_crash, event.node)
            elif isinstance(event, CrashEvent):
                env.call_at(event.at_time, self._on_host_crash, event.node)
            elif isinstance(event, LinkFailureEvent):
                env.call_at(event.at_time, self._on_edge_failure,
                            self._host_access_link(event.node))
            else:  # LinkRepairEvent
                env.call_at(event.at_time, self._on_edge_repair,
                            self._host_access_link(event.node))

    # ----------------------------------------------------------- handlers
    def _on_edge_failure(self, link: int) -> None:
        self.graph.fail_link(link)
        self._kill_crossing([link])
        self._refresh_routes(peer=link)
        self._kick()
        self._check()

    def _on_edge_repair(self, link: int) -> None:
        self.graph.repair_link(link)
        # In-flight flows keep the (still valid) route they started on;
        # only new legs — and unparked hosts — use the improved paths.
        self._refresh_routes(peer=link)
        self._kick()
        self._check()

    def _on_switch_crash(self, node: int) -> None:
        downed = self.graph.crash_node(node)
        self._kill_crossing(downed)
        self._refresh_routes()
        self._kick()
        self._check()

    def _on_degrade(self, event: DegradeEvent) -> None:
        self.graph.set_degrade(event.link, event.factor)
        self._resettle(event.link)

    def _on_degrade_end(self, event: DegradeEvent) -> None:
        self.graph.set_degrade(event.link, None)
        self._resettle(event.link)

    def _on_host_crash(self, host: int) -> None:
        oid = self._oid[host]
        victims = [lane.nodes[oid] for lane in self.lanes
                   if lane.nodes[oid].alive]
        downed = self.graph.crash_node(host)
        self._kill_crossing(downed, dying=oid)
        hosts = self.overlay.hosts
        for victim in victims:
            # The victim's overlay children re-parent (leaf-spine racks
            # re-elect a head); the route refresh parks any left without
            # a route.
            parent = victim.parent
            grandparent = (hosts[parent.id] if parent is not None
                           else self.graph.root)
            mapping = reassign_orphans(
                self.graph, host, [hosts[o.id] for o in victim.children],
                grandparent)
            victim.engine._crash_node(victim, {
                self._oid[orphan]: self._oid[adopter]
                for orphan, adopter in mapping.items()})
        self._refresh_routes()
        self._kick()
        self._check()

    # ------------------------------------------------------------ plumbing
    def _apply_updates(self, updates) -> None:
        if updates:
            self.lanes[0]._apply_rate_updates(updates)

    def _kill_crossing(self, links, dying: Optional[int] = None) -> None:
        """Kill every flow crossing ``links`` and have its lane book the
        lost task (:meth:`~repro.protocols.engine.ProtocolEngine.
        _kill_flow`; ``dying`` is the overlay id of a crashing host)."""
        killed, updates = self.contention.kill_crossing(links, self.env.now)
        for transfer in killed:
            transfer.child.engine._kill_flow(transfer, dying)
        self._apply_updates(updates)

    def _refresh_routes(self, peer: Optional[int] = None) -> None:
        """Two-phase overlay route refresh against the mutated graph.

        Phase A recomputes every overlay edge's route and cost, parks
        hosts with no route to their parent (deterministic partition
        detection), and re-sorts schedules whose priorities changed;
        phase B readmits/re-announces unparked hosts.  Splitting the
        phases guarantees no readmission-triggered send can start on a
        route that is still stale.  The graph does not change during a
        refresh, so each overlay edge's route is looked up once and shared
        by every lane's agent on that edge.
        """
        graph = self.graph
        hosts = self.overlay.hosts
        unparked: List[NodeAgent] = []
        resort: List[NodeAgent] = []
        routes: Dict[Tuple[int, int], Optional[Tuple[int, ...]]] = {}
        for lane in self.lanes:
            for agent in lane.nodes:
                if agent.is_root or not agent.alive:
                    continue
                parent = agent.parent
                if parent is None or not parent.alive:
                    continue
                edge = (hosts[parent.id], hosts[agent.id])
                if edge in routes:
                    route = routes[edge]
                else:
                    route = routes[edge] = graph.route_or_none(*edge)
                if route is None:
                    lane._park(agent)
                    continue
                if agent.link_down:
                    unparked.append(agent)
                if route != agent.route:
                    agent.route = route
                    cost = graph.route_cost(route)
                    if cost != agent.c:
                        agent.c = cost
                        agent._refresh_prio_key()
                        if parent not in resort:
                            resort.append(parent)
                    lane._emit(_trace.REROUTE, agent.id, peer)
        for parent in resort:
            parent.resort_children()
        for agent in unparked:
            agent.engine._unpark(agent)

    def _resettle(self, link: int) -> None:
        """Re-settle flows after a capacity change (degrade/restore)."""
        updates = self.contention.set_capacity(
            link, self.graph.capacity(link), self.env.now)
        self._apply_updates(updates)
        for lane in self.lanes:
            if lane._recorder is None:
                continue
            for agent in lane.nodes:
                if (not agent.is_root and agent.alive
                        and link in agent.route):
                    lane._emit(_trace.DEGRADE, agent.id, link)
        self._check()

    def _kick(self) -> None:
        """Deterministic full scheduling pass: every alive agent, in
        (lane, overlay id) order, reconsiders its port; then every agent
        the fault left with an unreachable child arms its liveness
        sweep."""
        for lane in self.lanes:
            lane._kick_ports()
        for lane in self.lanes:
            lane._arm_sweeps()

    def _check(self) -> None:
        if self.check_invariants:
            for lane in self.lanes:
                lane._check_conservation()


class GraphProtocolEngine(ProtocolEngine):
    """One application's lane of a
    :class:`~repro.apps.engine.MultiAppEngine` run.

    The lane runs the protocol on its overlay tree — result fields
    indexed "per node" are per *overlay* node, and :attr:`overlay` maps
    them back to graph hosts (telemetry's per-node lanes inherit the same
    dense overlay ids).  It shares the owner's calendar, contention
    manager and fault driver, and sizes the rest by its application:
    transfer volume (task size), flow priority under the ``selfish``
    allocator, and compute weights scaled by its CPU share.
    """

    _agent_class = GraphNodeAgent
    _supports_warp = False
    #: Priority tag attached to every flow this lane starts: ``None``
    #: except under the ``selfish`` allocator, which fills strictly by
    #: ``(app priority, app index)``.
    _flow_priority = None

    def __init__(self, owner, app, index: int):
        self.app = app
        self.app_index = index
        #: Volume of one task's transfer, in tasks (the app's task size).
        self.task_size = app.size
        self.overlay = owner.lane_overlay(app)
        self.contention = owner.contention
        self._shared_env = owner.env
        if owner.allocator == "selfish":
            self._flow_priority = (app.priority, index)
        super().__init__(self.overlay.tree, owner.config, app.tasks,
                         record_buffer_timeline=owner.record_buffer_timeline,
                         record_completion_times=owner.record_completion_times,
                         check_invariants=owner.check_invariants,
                         arrivals=app.arrivals, admission=app.admission)
        routes = self.overlay.routes
        for agent in self.nodes:
            agent.route = routes[agent.id]
        self._fault_driver = driver = owner.fault_driver
        if driver is not None:
            driver.register_lane(self)
            self._warp_stand_down = REASON_GRAPH_FAULTS
            for agent in self.nodes:
                agent.enable_fault_recovery()
        elif owner.workload.is_multi:
            self._warp_stand_down = REASON_MULTI_APP
        # Links are shared *dynamically* through the contention manager;
        # CPUs are shared *statically* — every physical CPU time-shares
        # equally among the task-bearing apps, so each lane sees its
        # compute weights scaled by that count (times the app's task
        # size).  This keeps aggregate compute capacity at the physical
        # 1/w, which is what makes price-of-anarchy >= 1 meaningful.
        scale = app.size * owner.cpu_share
        if scale != 1:
            # Refreshing the cached priority keys only matters under
            # compute-centric ordering.
            for agent in self.nodes:
                agent.w = agent.w * scale
                agent._refresh_prio_key()
            for agent in self.nodes:
                agent.resort_children()

    def _make_env(self) -> Environment:
        return self._shared_env

    def _arm(self) -> None:
        super()._arm()
        if self._fault_driver is not None:
            # Anchor the liveness-sweep grids (the base class does so only
            # for its own tree fault path, which is inert here); the
            # driver arms a sweep after each fault that needs one.
            for agent in self.nodes:
                agent._start_sweep()

    def _apply_rate_updates(self, updates) -> None:
        """Reschedule the completion timer of every rate-changed flow.

        ``updates`` is the contention manager's ``[(transfer, rate,
        remaining volume), ...]``; the sender of a flow is always the
        overlay parent of its destination, which owns the timer.
        """
        env = self.env
        now = env.now
        for transfer, rate, volume in updates:
            timer = transfer.timer
            if timer is not None:
                timer.cancel()
            transfer.remaining = volume
            transfer.started_at = now
            if volume > 0:
                if not rate:
                    # Starved outright (the selfish allocator gives
                    # strictly higher-priority classes everything): the
                    # flow stalls with no timer; the reallocation that
                    # frees capacity reports it again and reschedules it
                    # here.
                    transfer.timer = None
                    continue
                duration = _leg_duration(volume, rate)
            else:
                duration = 0
            transfer.timer = env.call_in(duration,
                                         transfer.child.parent._send_done,
                                         transfer)

