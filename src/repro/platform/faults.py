"""Abrupt failures: node crashes, link outages, fabric faults.

Where :mod:`repro.platform.churn` models *graceful* departures (a subtree
drains and loses no work), this module models the ungraceful churn that
dominates volunteer/dispersed platforms: a node dies instantly — its
buffered and in-flight tasks vanish — or a link goes down for an interval,
killing the transfer it was carrying.  The protocol engine consumes these
events and runs the autonomous recovery protocol (see
``docs/protocol.md``): parents detect dead or unreachable children via a
request-liveness timeout with exponential backoff, lost tasks are
reclaimed into the root's repository and re-dispensed, and children are
demoted and re-admitted as links fail and heal.

Tree-addressed events (the PR 1 model — a fault is "a node" or "a node's
parent link"):

* :class:`CrashEvent` — at a virtual time, ``node`` dies abruptly with
  all its links: its buffered tasks, the task on its CPU, and every
  transfer in flight into or out of it are lost.  Its children survive,
  cut off: they finish what they hold (see "one crash model" below);
* :class:`LinkFailureEvent` — at a virtual time, the edge from ``node``'s
  parent goes down: the transfer it carries (if any) is lost, and the
  subtree below keeps computing what it holds but can receive no new work;
* :class:`LinkRepairEvent` — the edge comes back up; the child re-announces
  its outstanding requests and is re-admitted by its parent.

Graph-addressed events (for :class:`~repro.platform.graph.PlatformGraph`
runs, where a fault is a *routed* event — one failed fabric link degrades
every flow crossing it):

* :class:`EdgeFailureEvent` / :class:`EdgeRepairEvent` — a physical link,
  addressed by its dense link id, goes down / comes back.  Flows crossing
  it are killed (the in-flight tasks are lost) and the affected overlay
  edges re-route around it; hosts left with no route to the source *park*
  until the partition heals;
* :class:`SwitchCrashEvent` — a pure forwarding node dies permanently:
  every incident link goes down at once (the leaf-spine "switch failure"
  regime of datacenter fabric models);
* :class:`DegradeEvent` — a link's bandwidth is multiplied by ``factor``
  for ``duration`` timesteps, then restored.  Routing is unaffected (the
  link still carries traffic); only the flows crossing it re-settle.

On a graph run, tree-addressed events remain a validated special case:
``CrashEvent(node)`` kills the single *host* ``node``, and
``LinkFailureEvent``/``LinkRepairEvent`` target the one physical link of
the overlay route into ``node`` (an error when that route is multi-hop —
address the fabric link directly with :class:`EdgeFailureEvent`).

One crash model holds on trees and graphs alike: a crash kills one host,
its children re-parent to its parent and, with no route left (always,
on a tree), park as a cut-off partition.  The links to those children
die with the host, so :meth:`FaultSchedule.validate` and
:meth:`FaultSchedule.validate_graph` both reject link events on them
after the crash, as well as a second crash of the same node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Set, Union

from ..errors import PlatformError
from .tree import PlatformTree

__all__ = [
    "CrashEvent",
    "LinkFailureEvent",
    "LinkRepairEvent",
    "EdgeFailureEvent",
    "EdgeRepairEvent",
    "SwitchCrashEvent",
    "DegradeEvent",
    "FaultSchedule",
    "chaos_schedule",
]


@dataclass(frozen=True)
class CrashEvent:
    """Node (host) ``node`` dies abruptly at ``at_time``, with all its
    links; its children are cut off but survive."""

    at_time: int
    node: int

    def __post_init__(self):
        if self.at_time < 0:
            raise PlatformError("at_time must be >= 0")
        if self.node < 0:
            raise PlatformError("node id must be >= 0")


@dataclass(frozen=True)
class LinkFailureEvent:
    """The edge from ``node``'s parent to ``node`` goes down at ``at_time``."""

    at_time: int
    node: int

    def __post_init__(self):
        if self.at_time < 0:
            raise PlatformError("at_time must be >= 0")
        if self.node < 0:
            raise PlatformError("node id must be >= 0")


@dataclass(frozen=True)
class LinkRepairEvent:
    """The edge from ``node``'s parent to ``node`` comes back at ``at_time``."""

    at_time: int
    node: int

    def __post_init__(self):
        if self.at_time < 0:
            raise PlatformError("at_time must be >= 0")
        if self.node < 0:
            raise PlatformError("node id must be >= 0")


@dataclass(frozen=True)
class EdgeFailureEvent:
    """Physical link ``link`` (a graph link id) goes down at ``at_time``."""

    at_time: int
    link: int

    def __post_init__(self):
        if self.at_time < 0:
            raise PlatformError("at_time must be >= 0")
        if self.link < 0:
            raise PlatformError("link id must be >= 0")


@dataclass(frozen=True)
class EdgeRepairEvent:
    """Physical link ``link`` comes back up at ``at_time``."""

    at_time: int
    link: int

    def __post_init__(self):
        if self.at_time < 0:
            raise PlatformError("at_time must be >= 0")
        if self.link < 0:
            raise PlatformError("link id must be >= 0")


@dataclass(frozen=True)
class SwitchCrashEvent:
    """Switch ``node`` dies permanently at ``at_time``: every incident
    link goes down at once and never repairs."""

    at_time: int
    node: int

    def __post_init__(self):
        if self.at_time < 0:
            raise PlatformError("at_time must be >= 0")
        if self.node < 0:
            raise PlatformError("node id must be >= 0")


@dataclass(frozen=True)
class DegradeEvent:
    """Link ``link``'s bandwidth is multiplied by ``factor`` (a Fraction
    in ``(0, 1)``) for ``duration`` timesteps, then restored.  Routing is
    unaffected; flows crossing the link re-settle at the new capacity."""

    at_time: int
    link: int
    factor: Fraction
    duration: int

    def __post_init__(self):
        if self.at_time < 0:
            raise PlatformError("at_time must be >= 0")
        if self.link < 0:
            raise PlatformError("link id must be >= 0")
        factor = self.factor
        if not isinstance(factor, Fraction):
            if isinstance(factor, int):
                factor = Fraction(factor)
            else:
                raise PlatformError(
                    "degrade factor must be an exact Fraction (floats would "
                    f"break fingerprint determinism), got {factor!r}")
            object.__setattr__(self, "factor", factor)
        if not 0 < factor < 1:
            raise PlatformError(
                f"degrade factor must be in (0, 1), got {factor}")
        if self.duration <= 0:
            raise PlatformError(
                f"degrade duration must be > 0, got {self.duration}")

    @property
    def ends_at(self) -> int:
        return self.at_time + self.duration


FaultEvent = Union[CrashEvent, LinkFailureEvent, LinkRepairEvent,
                   EdgeFailureEvent, EdgeRepairEvent, SwitchCrashEvent,
                   DegradeEvent]


#: Deterministic rank of same-time events: link failures apply first, then
#: repairs, then crashes.  Failure-before-repair makes a same-instant
#: fail/repair pair on an up link a well-defined zero-length blip (and a
#: repair+fail pair on a *down* link a deterministic validation error
#: instead of an insertion-order coin flip); crashes run last so link
#: events always act on a node that is still alive at that instant.  The
#: graph-addressed kinds extend the ranking with the same failure <
#: repair < crash shape (degrades last: they act on links that are still
#: up after every same-instant topology change has been applied), and all
#: tree-addressed kinds sort before graph-addressed ones so existing tree
#: schedules keep their exact byte order.
_EVENT_RANK = {LinkFailureEvent: 0, LinkRepairEvent: 1, CrashEvent: 2,
               EdgeFailureEvent: 3, EdgeRepairEvent: 4, SwitchCrashEvent: 5,
               DegradeEvent: 6}

#: Event kinds addressed by graph link id rather than node id.
_LINK_ADDRESSED = (EdgeFailureEvent, EdgeRepairEvent, DegradeEvent)


def _sort_id(event: FaultEvent) -> int:
    """The id component of the ``(at_time, kind, id)`` total order."""
    if isinstance(event, _LINK_ADDRESSED):
        return event.link
    return event.node


class FaultSchedule:
    """Time-ordered crashes, link outages, and fabric faults for one run.

    Events are normalized to a deterministic total order
    ``(at_time, kind, id)`` — kind ranked failure < repair < crash for the
    tree-addressed events, then edge-failure < edge-repair < switch-crash
    < degrade for the graph-addressed ones — so schedules built from
    differently-ordered event lists behave identically, and
    same-``at_time`` overlaps have one defined meaning (see
    ``_EVENT_RANK``).
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self.events: List[FaultEvent] = sorted(
            events,
            key=lambda e: (e.at_time, _EVENT_RANK[type(e)], _sort_id(e)))

    def has_graph_events(self) -> bool:
        """Whether any event is graph-addressed (edge/switch/degrade)."""
        return any(isinstance(e, _LINK_ADDRESSED + (SwitchCrashEvent,))
                   for e in self.events)

    def validate(self, tree: PlatformTree) -> None:
        """Static checks against the *initial* tree.

        Faults may reference nodes added by earlier churn joins, so
        id-range checks happen when an event fires; here we only reject
        what can never become valid.
        """
        down: set = set()
        crashed: set = set()
        for event in self.events:
            if isinstance(event, _LINK_ADDRESSED + (SwitchCrashEvent,)):
                raise PlatformError(
                    f"{type(event).__name__} is graph-addressed; tree runs "
                    "take node-addressed CrashEvent/LinkFailureEvent/"
                    "LinkRepairEvent only")
            if event.node == tree.root:
                raise PlatformError(
                    "the repository root cannot crash or lose its (nonexistent) "
                    "parent link")
            if isinstance(event, CrashEvent):
                if event.node in crashed:
                    raise PlatformError(
                        f"node {event.node} crashes at t={event.at_time}, "
                        "but it has already crashed")
                crashed.add(event.node)
                continue
            failing = isinstance(event, LinkFailureEvent)
            if event.node in crashed:
                raise PlatformError(
                    f"link to node {event.node} "
                    f"{'fails' if failing else 'repaired'} at "
                    f"t={event.at_time}, after the node's crash — "
                    "post-crash link events would fire against a dead node")
            # A crash takes all its host's links with it, the ones to its
            # children included; those never repair.
            if 0 <= event.node < tree.num_nodes \
                    and tree.parent[event.node] in crashed:
                raise PlatformError(
                    f"link to node {event.node} died with its parent's "
                    f"crash before t={event.at_time} and never repairs")
            if failing:
                if event.node in down:
                    raise PlatformError(
                        f"link to node {event.node} fails at t={event.at_time} "
                        "while already down")
                down.add(event.node)
            else:
                if event.node not in down:
                    raise PlatformError(
                        f"link to node {event.node} repaired at "
                        f"t={event.at_time} but was never down")
                down.discard(event.node)

    def validate_graph(self, graph, overlay=None) -> None:
        """Static checks against a :class:`~repro.platform.graph.
        PlatformGraph` (and optionally the overlay the run will use).

        Rejects out-of-range link/node ids, events targeting the
        repository, switch events on hosts (and vice versa), double
        failures / spurious repairs per link — including links taken down
        permanently by a switch or host crash — overlapping degrade
        windows, and tree-addressed link events whose overlay route is
        multi-hop (those must address the fabric link directly).
        """
        num_links = graph.num_links
        host_route: Dict[int, int] = {}
        if overlay is not None:
            for oid in range(1, len(overlay.hosts)):
                route = overlay.routes[oid]
                if len(route) == 1:
                    host_route[overlay.hosts[oid]] = route[0]
        down: Set[int] = set()            # links currently failed
        dead_links: Set[int] = set()      # links gone for good (crashes)
        dead_nodes: Set[int] = set()
        degraded_until: Dict[int, int] = {}

        def _check_node(node: int) -> None:
            if not 0 <= node < graph.num_nodes:
                raise PlatformError(
                    f"fault at t={event.at_time} targets unknown node {node}")
            if node == graph.root:
                raise PlatformError(
                    "the repository root cannot crash or lose its links")
            if node in dead_nodes:
                raise PlatformError(
                    f"fault at t={event.at_time} targets node {node}, "
                    "which has already crashed")

        def _check_link(link: int) -> int:
            if not 0 <= link < num_links:
                raise PlatformError(
                    f"fault at t={event.at_time} targets unknown link {link}")
            if link in dead_links:
                raise PlatformError(
                    f"fault at t={event.at_time} targets link {link}, "
                    "which died with a crashed node and never repairs")
            return link

        def _kill_incident(node: int) -> None:
            for link_id, u, v, _cost in graph.links():
                if u == node or v == node:
                    dead_links.add(link_id)
                    down.discard(link_id)

        for event in self.events:
            if isinstance(event, EdgeFailureEvent):
                link = _check_link(event.link)
                if link in down:
                    raise PlatformError(
                        f"link {link} fails at t={event.at_time} while "
                        "already down")
                down.add(link)
            elif isinstance(event, EdgeRepairEvent):
                link = _check_link(event.link)
                if link not in down:
                    raise PlatformError(
                        f"link {link} repaired at t={event.at_time} but was "
                        "never down")
                down.discard(link)
            elif isinstance(event, DegradeEvent):
                link = _check_link(event.link)
                if degraded_until.get(link, -1) > event.at_time:
                    raise PlatformError(
                        f"link {link} degraded at t={event.at_time} while a "
                        "previous degrade window is still open")
                degraded_until[link] = event.ends_at
            elif isinstance(event, SwitchCrashEvent):
                _check_node(event.node)
                if graph.w[event.node] is not None:
                    raise PlatformError(
                        f"SwitchCrashEvent targets node {event.node}, which "
                        "is a host — use CrashEvent for hosts")
                dead_nodes.add(event.node)
                _kill_incident(event.node)
            elif isinstance(event, CrashEvent):
                _check_node(event.node)
                if graph.w[event.node] is None:
                    raise PlatformError(
                        f"CrashEvent targets node {event.node}, which is a "
                        "switch — use SwitchCrashEvent for switches")
                dead_nodes.add(event.node)
                _kill_incident(event.node)
            else:  # tree-addressed link events
                _check_node(event.node)
                if graph.w[event.node] is None:
                    raise PlatformError(
                        f"tree-addressed link event targets node "
                        f"{event.node}, which is a switch")
                if overlay is not None:
                    link = host_route.get(event.node)
                    if link is None:
                        raise PlatformError(
                            f"host {event.node}'s overlay route is "
                            "multi-hop; address the fabric link directly "
                            "with EdgeFailureEvent/EdgeRepairEvent")
                    link = _check_link(link)
                    if isinstance(event, LinkFailureEvent):
                        if link in down:
                            raise PlatformError(
                                f"link {link} (into host {event.node}) fails "
                                f"at t={event.at_time} while already down")
                        down.add(link)
                    else:
                        if link not in down:
                            raise PlatformError(
                                f"link {link} (into host {event.node}) "
                                f"repaired at t={event.at_time} but was "
                                "never down")
                        down.discard(link)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)


# --------------------------------------------------------------- chaos
def chaos_schedule(platform, *, seed: int, events: int = 6,
                   horizon: int = 600) -> FaultSchedule:
    """Seeded random fault schedule, valid by construction.

    Draws ``events`` faults uniformly over ``[1, horizon]`` against
    ``platform`` — a :class:`PlatformTree` (node-addressed crashes and
    link fail/repair pairs) or a :class:`~repro.platform.graph.
    PlatformGraph` (edge fail/repair pairs, degrade windows, host and
    switch crashes).  Generated schedules always pass
    :meth:`FaultSchedule.validate` / :meth:`~FaultSchedule.validate_graph`:
    outages alternate per target, nothing targets the repository, and no
    event targets a node or link a crash already destroyed.  The same
    ``(platform, seed)`` pair always yields the same schedule — the chaos
    soak's reproducibility lever.
    """
    if events < 0:
        raise PlatformError(f"events must be >= 0, got {events}")
    if horizon < 2:
        raise PlatformError(f"horizon must be >= 2, got {horizon}")
    rng = random.Random(seed)
    out: List[FaultEvent] = []

    if isinstance(platform, PlatformTree):
        nodes = [n for n in range(platform.num_nodes) if n != platform.root]
        crashed: Set[int] = set()
        budget = events
        while budget > 0 and len(crashed) < len(nodes):
            t = rng.randint(1, horizon)
            node = rng.choice(nodes)
            if node in crashed:
                continue
            kind = rng.random()
            if kind < 0.35:
                # Crash the node — and refuse link events against it from
                # now on (validate()'s post-crash rule).  Crashing the
                # whole candidate pool is allowed: the root reclaims and
                # computes everything itself.
                for sub in platform.subtree_ids(node):
                    crashed.add(sub)
                out.append(CrashEvent(at_time=t, node=node))
                budget -= 1
            else:
                # A fail/repair pair wholly before any crash of the node.
                repair_at = rng.randint(t + 1, t + max(2, horizon // 2))
                out.append(LinkFailureEvent(at_time=t, node=node))
                out.append(LinkRepairEvent(at_time=repair_at, node=node))
                budget -= 1
        schedule = FaultSchedule(_drop_post_crash(out, platform))
        schedule.validate(platform)
        return schedule

    # Graph platform.
    hosts = [h for h in platform.hosts if h != platform.root]
    switches = list(platform.switches)
    dead_nodes: Set[int] = set()
    dead_links: Set[int] = set()
    degraded_until: Dict[int, int] = {}
    budget = events
    attempts = 0
    while budget > 0 and attempts < events * 20:
        attempts += 1
        t = rng.randint(1, horizon)
        kind = rng.random()
        if kind < 0.15 and switches:
            node = rng.choice(switches)
            if node in dead_nodes:
                continue
            dead_nodes.add(node)
            for link_id, u, v, _c in platform.links():
                if u == node or v == node:
                    dead_links.add(link_id)
            out.append(SwitchCrashEvent(at_time=t, node=node))
            budget -= 1
        elif kind < 0.35 and hosts:
            node = rng.choice(hosts)
            if node in dead_nodes:
                continue
            dead_nodes.add(node)
            for link_id, u, v, _c in platform.links():
                if u == node or v == node:
                    dead_links.add(link_id)
            out.append(CrashEvent(at_time=t, node=node))
            budget -= 1
        elif kind < 0.55:
            link = rng.randrange(platform.num_links)
            if link in dead_links:
                continue
            window = degraded_until.get(link, 0)
            if window > t:
                continue
            duration = rng.randint(10, max(11, horizon // 4))
            degraded_until[link] = t + duration
            out.append(DegradeEvent(at_time=t, link=link,
                                    factor=Fraction(1, rng.randint(2, 8)),
                                    duration=duration))
            budget -= 1
        else:
            link = rng.randrange(platform.num_links)
            if link in dead_links:
                continue
            repair_at = rng.randint(t + 1, t + max(2, horizon // 2))
            out.append(EdgeFailureEvent(at_time=t, link=link))
            out.append(EdgeRepairEvent(at_time=repair_at, link=link))
            budget -= 1
    # Crashes drawn after an outage pair may have killed the pair's link
    # or node retroactively; drop the now-invalid events and re-check.
    kept: List[FaultEvent] = []
    crash_at: Dict[int, int] = {}
    link_crash_at: Dict[int, int] = {}
    for event in sorted(out, key=lambda e: (e.at_time,
                                            _EVENT_RANK[type(e)],
                                            _sort_id(e))):
        if isinstance(event, (CrashEvent, SwitchCrashEvent)):
            crash_at[event.node] = event.at_time
            for link_id, u, v, _c in platform.links():
                if u == event.node or v == event.node:
                    link_crash_at.setdefault(link_id, event.at_time)
            kept.append(event)
        elif isinstance(event, _LINK_ADDRESSED):
            if event.link in link_crash_at \
                    and event.at_time >= link_crash_at[event.link]:
                continue
            if isinstance(event, DegradeEvent) \
                    and event.link in link_crash_at \
                    and event.ends_at >= link_crash_at[event.link]:
                continue
            kept.append(event)
        else:
            kept.append(event)
    kept = _rebalance_pairs(kept)
    schedule = FaultSchedule(kept)
    schedule.validate_graph(platform)
    return schedule


def _drop_post_crash(events: List[FaultEvent],
                     tree: PlatformTree) -> List[FaultEvent]:
    """Drop tree link events landing at/after a crash of their node or of
    its parent (the crash takes the link with it), and re-balance
    fail/repair alternation afterwards."""
    crash_at: Dict[int, int] = {}
    for event in events:
        if isinstance(event, CrashEvent):
            prev = crash_at.get(event.node)
            if prev is None or event.at_time < prev:
                crash_at[event.node] = event.at_time

    def _alive_link(event: FaultEvent) -> bool:
        return all(node not in crash_at or event.at_time < crash_at[node]
                   for node in (event.node, tree.parent[event.node]))

    kept = [e for e in events if isinstance(e, CrashEvent) or _alive_link(e)]
    return _rebalance_pairs(kept)


def _rebalance_pairs(events: List[FaultEvent]) -> List[FaultEvent]:
    """Drop repairs whose failure was dropped, and failures whose repair
    was dropped *if* leaving the link down forever would be invalid —
    permanent outages are fine, so only spurious repairs are culled."""
    ordered = sorted(events, key=lambda e: (e.at_time,
                                            _EVENT_RANK[type(e)],
                                            _sort_id(e)))
    down_nodes: Set[int] = set()
    down_links: Set[int] = set()
    kept: List[FaultEvent] = []
    for event in ordered:
        if isinstance(event, LinkFailureEvent):
            if event.node in down_nodes:
                continue
            down_nodes.add(event.node)
        elif isinstance(event, LinkRepairEvent):
            if event.node not in down_nodes:
                continue
            down_nodes.discard(event.node)
        elif isinstance(event, EdgeFailureEvent):
            if event.link in down_links:
                continue
            down_links.add(event.link)
        elif isinstance(event, EdgeRepairEvent):
            if event.link not in down_links:
                continue
            down_links.discard(event.link)
        kept.append(event)
    return kept
