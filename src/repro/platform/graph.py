"""General platform graphs: routed topologies with shared-link contention.

The paper's formal model is a tree; real platforms are graphs — star
platforms (Marchal/Rehn/Robert/Vivien), linear daisy chains
(Gallet/Robert/Vivien), and datacenter fabrics (leaf-spine / two-level
fat-tree networks with max-min or fair-share bandwidth allocation).
:class:`PlatformGraph` models those directly:

* **nodes** are either *hosts* (compute weight ``w > 0``, may run the
  protocol) or *switches* (``w is None`` — pure forwarding elements that
  appear only on routes);
* **links** are undirected and identified by dense ids ``0..L-1``; link
  ``i`` has per-task transfer time ``c_i > 0``, i.e. capacity
  ``1/c_i`` tasks per timestep *shared by every flow crossing it, in
  either direction* (the paper's ``c`` also bundles the forward payload
  with the returned result on one full-duplex-free link);
* **routing is static**: routes are shortest paths under summed link cost
  with deterministic tie-breaking (fewest hops, then lowest node id),
  searched lazily per source and kept across link faults while provably
  still exact;
* **contention** on shared links is resolved by the allocators in
  :mod:`repro.platform.contention` — progressive-filling max-min by
  default, or per-link fair share (``contention="fairshare"``).

The scheduling protocols stay tree-based: a graph is simulated through an
:class:`Overlay` — a spanning tree over the *hosts* whose every overlay
edge is mapped to a physical route.  Trees embed exactly
(:meth:`PlatformGraph.from_tree` keeps their implicit parent-path routes,
one private link per overlay edge), which is what makes the tree engine a
validated special case: the graph path reproduces tree results
bit-identically (see ``tests/protocols/test_graph_equivalence.py``).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import PlatformError
from .generator import PAPER_DEFAULTS, TreeGeneratorParams
from .tree import PlatformTree

__all__ = ["PlatformGraph", "Overlay", "build_overlay", "generate_platform",
           "GRAPH_TOPOLOGIES", "CONTENTION_MODES"]

Weight = Real

#: Shapes :func:`generate_platform` can draw (``tree`` is handled by the
#: classic :func:`repro.platform.generator.generate_tree`).
GRAPH_TOPOLOGIES = ("star", "chain", "leafspine")

#: Shared-link bandwidth allocation policies (see
#: :mod:`repro.platform.contention`).
CONTENTION_MODES = ("maxmin", "fairshare")


@dataclass(frozen=True)
class Overlay:
    """A spanning tree over a graph's hosts, with per-edge physical routes.

    ``tree`` relabels hosts to dense overlay ids (the root first, then
    ascending graph id — the identity mapping whenever the graph came from
    a ``root=0`` tree); ``hosts[i]`` is the graph node behind overlay node
    ``i``; ``routes[i]`` is the tuple of physical link ids the overlay
    edge *into* node ``i`` traverses (empty for the root).
    """

    tree: PlatformTree
    hosts: Tuple[int, ...]
    routes: Tuple[Tuple[int, ...], ...]

    def host_of(self, overlay_id: int) -> int:
        """Graph node id behind overlay node ``overlay_id``."""
        return self.hosts[overlay_id]


class PlatformGraph:
    """A routed platform graph with shared-link contention.

    Parameters
    ----------
    w:
        Per-node compute weights.  ``w[i] > 0`` marks a host; ``None``
        marks a switch (no compute, never a protocol agent).
    links:
        ``(u, v, cost)`` triples.  Links are undirected, self-loops and
        parallel links are rejected, costs must be ``> 0``.  Link ids are
        assigned in declaration order — they are the deterministic
        tie-breaker of the max-min allocator, so declaration order is part
        of the platform's identity.
    root:
        Repository node (must be a host).  Every node must be reachable
        from it.
    contention:
        ``"maxmin"`` (progressive filling, default) or ``"fairshare"``
        (per-link equal split, not globally work-conserving).
    meta:
        Optional generator annotations (e.g. leaf-spine group layout);
        round-tripped by serialization, never consulted by the engine.
    """

    __slots__ = ("w", "link_u", "link_v", "link_c", "adj", "root",
                 "contention", "meta", "_route_cache", "_epoch", "link_up",
                 "_degrade", "searches_started", "nodes_settled")

    def __init__(self, w: Sequence[Optional[Weight]],
                 links: Iterable[Tuple[int, int, Weight]], root: int = 0,
                 *, contention: str = "maxmin",
                 meta: Optional[Dict[str, Any]] = None):
        n = len(w)
        if n == 0:
            raise PlatformError("a platform graph needs at least one node")
        if not 0 <= root < n:
            raise PlatformError(f"root id {root} out of range 0..{n - 1}")
        if contention not in CONTENTION_MODES:
            raise PlatformError(
                f"unknown contention mode {contention!r}; "
                f"choose from {CONTENTION_MODES}")
        for i, wi in enumerate(w):
            if wi is not None and not wi > 0:
                raise PlatformError(
                    f"node {i}: compute weight must be > 0 (or None for a "
                    f"switch), got {wi!r}")
        if w[root] is None:
            raise PlatformError(
                f"root {root} is a switch; the repository must be a host")

        self.w: List[Optional[Weight]] = list(w)
        self.link_u: List[int] = []
        self.link_v: List[int] = []
        self.link_c: List[Weight] = []
        self.adj: List[Dict[int, int]] = [dict() for _ in range(n)]
        self.root = root
        self.contention = contention
        self.meta: Dict[str, Any] = dict(meta) if meta else {}
        self._route_cache: Dict[int, _Search] = {}
        self._epoch = 0
        self._degrade: Dict[int, Fraction] = {}
        #: Routing work counters (not part of equality): shortest-path
        #: searches started, and nodes they settled.
        self.searches_started = 0
        self.nodes_settled = 0

        for u, v, cost in links:
            if not (0 <= u < n and 0 <= v < n):
                raise PlatformError(f"link ({u}, {v}) references unknown node")
            if u == v:
                raise PlatformError(f"self-loop at node {u}")
            if v in self.adj[u]:
                raise PlatformError(f"parallel link between {u} and {v}")
            if not cost > 0:
                # A zero/negative cost would become an infinite/negative
                # link capacity and a ZeroDivisionError (or a silently
                # instantaneous transfer) deep in the engine hot loop —
                # reject it here, at construction.
                raise PlatformError(
                    f"link ({u}, {v}): cost must be > 0, got {cost!r}")
            link_id = len(self.link_c)
            self.link_u.append(u)
            self.link_v.append(v)
            self.link_c.append(cost)
            self.adj[u][v] = link_id
            self.adj[v][u] = link_id
        self.link_up: List[bool] = [True] * len(self.link_c)

        unreachable = self._unreachable_from(root)
        if unreachable:
            raise PlatformError(
                f"nodes unreachable from root {root}: {unreachable}")

    # ------------------------------------------------------------- queries
    @property
    def num_nodes(self) -> int:
        return len(self.w)

    @property
    def num_links(self) -> int:
        return len(self.link_c)

    @property
    def hosts(self) -> List[int]:
        """Ids of compute-capable nodes, ascending."""
        return [i for i, wi in enumerate(self.w) if wi is not None]

    @property
    def switches(self) -> List[int]:
        """Ids of pure forwarding nodes, ascending."""
        return [i for i, wi in enumerate(self.w) if wi is None]

    def links(self) -> Iterator[Tuple[int, int, int, Weight]]:
        """Iterate ``(link_id, u, v, cost)`` in id order."""
        for i in range(self.num_links):
            yield (i, self.link_u[i], self.link_v[i], self.link_c[i])

    def capacity(self, link_id: int) -> Fraction:
        """Link bandwidth in tasks per timestep (``1 / cost``), scaled by
        any active :class:`~repro.platform.faults.DegradeEvent` factor."""
        base = Fraction(1, 1) / Fraction(self.link_c[link_id])
        factor = self._degrade.get(link_id)
        return base * factor if factor is not None else base

    def link_capacities(self) -> Dict[int, Fraction]:
        """``link id → capacity`` for the contention allocators."""
        return {i: self.capacity(i) for i in range(self.num_links)}

    def _unreachable_from(self, start: int) -> List[int]:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return sorted(set(range(self.num_nodes)) - seen)

    # ------------------------------------------------------------- routing
    def _start_search(self, src: int) -> _Search:
        search = self._route_cache[src] = _Search(src, len(self.w),
                                                  self._epoch)
        self.searches_started += 1
        return search

    def _settle(self, search: _Search, dst: Optional[int]) -> None:
        """Resume ``search`` until ``dst`` is settled (``None``: until the
        frontier is exhausted).

        Paths minimise summed link cost, then hop count; remaining ties
        resolve toward lower node ids (nodes settle in (cost, hops, id)
        order and later equal-key paths never overwrite).
        """
        heap = search.heap
        cost, hops, done = search.cost, search.hops, search.done
        prev_link = search.prev_link
        adj, link_c, link_up = self.adj, self.link_c, self.link_up
        settled = 0
        while heap:
            d, h, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = 1
            settled += 1
            h += 1
            for v, link in adj[u].items():
                if done[v] or not link_up[link]:
                    continue
                dv = d + link_c[link]
                old = cost[v]
                if old is None or dv < old or (dv == old and h < hops[v]):
                    cost[v] = dv
                    hops[v] = h
                    prev_link[v] = link
                    heapq.heappush(heap, (dv, h, v))
            if u == dst:
                break
        if not heap:
            search.heap = None
        self.nodes_settled += settled

    def _walk(self, search: _Search, src: int,
              dst: int) -> Optional[Tuple[int, ...]]:
        """The settled path ``src → dst`` as link ids; ``None`` if one of
        its links is down."""
        prev_link, link_up = search.prev_link, self.link_up
        link_u, link_v = self.link_u, self.link_v
        links: List[int] = []
        node = dst
        while node != src:
            link = prev_link[node]
            if not link_up[link]:
                return None
            links.append(link)
            node = link_u[link] + link_v[link] - node
        links.reverse()
        return tuple(links)

    def route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Static route between two nodes as a tuple of link ids."""
        links = self.route_or_none(src, dst)
        if links is None:
            raise PlatformError(f"no route from {src} to {dst}")
        return links

    def route_or_none(self, src: int, dst: int) -> Optional[Tuple[int, ...]]:
        """Like :meth:`route`, but ``None`` when ``dst`` is unreachable
        over the currently-up links (deterministic partition detection)."""
        n = len(self.w)
        if not (0 <= src < n and 0 <= dst < n):
            raise PlatformError(f"route endpoints ({src}, {dst}) out of range")
        if src == dst:
            return ()
        search = self._route_cache.get(src)
        if search is not None and search.epoch != self._epoch:
            # Searched before a fault: still exact for ``dst`` if its path
            # is up and no repaired link can offer a key at or below its
            # own (see :class:`_Search`).
            if search.done[dst]:
                bound = search.bound
                if bound is None or (search.cost[dst],
                                     search.hops[dst]) < bound:
                    links = self._walk(search, src, dst)
                    if links is not None:
                        return links
            elif search.heap is None and search.bound is None:
                return None  # unreachable then, and no link came up since
            search = None
        if search is None:
            search = self._start_search(src)
        if not search.done[dst] and search.heap is not None:
            self._settle(search, dst)
        if not search.done[dst]:
            return None
        return self._walk(search, src, dst)

    def route_cost(self, links: Sequence[int]) -> Weight:
        """Exclusive per-task transfer time of a route: its bottleneck
        link cost (the fluid model pipelines across hops)."""
        return max((self.link_c[l] for l in links), default=0)

    # ------------------------------------------------------------- overlay
    def overlay(self, *, root: Optional[int] = None) -> Overlay:
        """The default *relay* overlay: each host's overlay parent is the
        last host on its shortest path from the root.

        On a tree this reproduces the tree itself; on a chain it yields
        store-and-forward relays (every intermediate host is an agent); on
        a star or a switched fabric whose interior holds no hosts it
        degenerates to a one-level fork under the root.

        ``root`` re-roots the overlay at another *host* (an application
        source node): same host set, shortest paths recomputed from that
        host, and overlay id 0 mapped to it.
        """
        src = self.root if root is None else root
        if src != self.root and (not 0 <= src < self.num_nodes
                                 or self.w[src] is None):
            raise PlatformError(
                f"overlay root {src} is not a host of this platform")
        search = self._route_cache.get(src)
        if search is None or search.epoch != self._epoch:
            search = self._start_search(src)
        if search.heap is not None:
            self._settle(search, None)
        prev_link = search.prev_link
        parent_of: Dict[int, int] = {}
        routes: Dict[int, Tuple[int, ...]] = {}
        for h in self.hosts:
            if h == src:
                continue
            if prev_link[h] is None:
                raise PlatformError(f"host {h} unreachable from host {src}")
            # Walk the shortest path back to the previous host; the route
            # is exactly that path suffix (so relay routes compose into
            # the root's shortest-path tree).
            links: List[int] = []
            node = h
            while True:
                link = prev_link[node]
                links.append(link)
                node = self.link_u[link] + self.link_v[link] - node
                if self.w[node] is not None:
                    break
            parent_of[h] = node
            routes[h] = tuple(reversed(links))
        return build_overlay(self, parent_of, routes, root=src)

    @classmethod
    def from_tree(cls, tree: PlatformTree, *,
                  contention: str = "maxmin") -> "PlatformGraph":
        """Embed a platform tree: one private link per parent edge.

        Link ids follow child-id order, mirroring the tree's implicit
        parent-path routes.  The default overlay of the result is the tree
        itself (node-for-node when ``tree.root == 0``).
        """
        links = [(p, child, c) for p, child, c in tree.edges()]
        return cls(list(tree.w), links, root=tree.root, contention=contention,
                   meta={"kind": "tree"})

    # ---------------------------------------------------------- generators
    @classmethod
    def star(cls, root_w: Weight, leaves: Sequence[Tuple[Weight, Weight]],
             *, contention: str = "maxmin") -> "PlatformGraph":
        """One-hop star: a repository center plus ``(c_i, w_i)`` leaves.

        The master-worker platform of the star-scheduling literature; the
        degenerate graph of :meth:`PlatformTree.fork`.
        """
        w = [root_w] + [wi for _ci, wi in leaves]
        links = [(0, i + 1, ci) for i, (ci, _wi) in enumerate(leaves)]
        return cls(w, links, root=0, contention=contention,
                   meta={"kind": "star"})

    @classmethod
    def chain(cls, weights: Sequence[Weight], costs: Sequence[Weight],
              *, contention: str = "maxmin") -> "PlatformGraph":
        """Linear daisy chain ``0 — 1 — … — n-1`` (Gallet/Robert/Vivien).

        The degenerate graph of :meth:`PlatformTree.linear_chain`; its
        relay overlay makes every interior host a store-and-forward agent.
        """
        if len(costs) != len(weights) - 1:
            raise PlatformError("need exactly len(weights)-1 costs for a chain")
        links = [(i, i + 1, costs[i]) for i in range(len(costs))]
        return cls(list(weights), links, root=0, contention=contention,
                   meta={"kind": "chain"})

    @classmethod
    def leaf_spine(cls, host_w: Sequence[Weight], hosts_per_leaf: int,
                   num_spines: int = 2, *,
                   access_costs: Optional[Sequence[Weight]] = None,
                   fabric_cost: Weight = 1,
                   contention: str = "maxmin") -> "PlatformGraph":
        """Two-level fat-tree / leaf-spine fabric.

        ``len(host_w)`` hosts hang in groups of ``hosts_per_leaf`` under
        leaf switches; every leaf connects to every spine.  Host ``h``
        sits under leaf ``h // hosts_per_leaf``; node ids are hosts first,
        then leaf switches, then spines.  ``access_costs[h]`` is host
        ``h``'s access-link cost (default all 1); ``fabric_cost`` is the
        leaf-spine link cost.  The repository is host 0.
        """
        num_hosts = len(host_w)
        if num_hosts == 0:
            raise PlatformError("leaf_spine needs at least one host")
        if hosts_per_leaf < 1:
            raise PlatformError("hosts_per_leaf must be >= 1")
        if num_spines < 1:
            raise PlatformError("num_spines must be >= 1")
        if access_costs is None:
            access_costs = [1] * num_hosts
        if len(access_costs) != num_hosts:
            raise PlatformError("need one access cost per host")
        num_leaves = (num_hosts + hosts_per_leaf - 1) // hosts_per_leaf
        first_leaf = num_hosts
        first_spine = num_hosts + num_leaves
        w: List[Optional[Weight]] = (list(host_w)
                                     + [None] * (num_leaves + num_spines))
        links: List[Tuple[int, int, Weight]] = []
        for h in range(num_hosts):
            links.append((h, first_leaf + h // hosts_per_leaf,
                          access_costs[h]))
        for leaf in range(num_leaves):
            for spine in range(num_spines):
                links.append((first_leaf + leaf, first_spine + spine,
                              fabric_cost))
        return cls(w, links, root=0, contention=contention,
                   meta={"kind": "leafspine", "hosts_per_leaf": hosts_per_leaf,
                         "num_leaves": num_leaves, "num_spines": num_spines})

    # ----------------------------------------------------------- mutation
    def set_link_cost(self, link_id: int, cost: Weight) -> None:
        """Set link ``link_id``'s per-task transfer time (in place)."""
        if not 0 <= link_id < self.num_links:
            raise PlatformError(f"no link {link_id}")
        if not cost > 0:
            raise PlatformError(f"link cost must be > 0, got {cost!r}")
        self.link_c[link_id] = cost
        self._route_cache.clear()

    # --------------------------------------------------------------- faults
    def fail_link(self, link_id: int) -> None:
        """Take link ``link_id`` down.  Cached routes that avoid it stay
        valid; a lookup whose cached path crosses it searches afresh."""
        if not 0 <= link_id < self.num_links:
            raise PlatformError(f"no link {link_id}")
        if not self.link_up[link_id]:
            raise PlatformError(f"link {link_id} is already down")
        self.link_up[link_id] = False
        self._epoch += 1

    def repair_link(self, link_id: int) -> None:
        """Bring link ``link_id`` back up.  Each cached search keeps the
        routes the link cannot shorten or tie: those whose key lies below
        the least key a path through the link could have."""
        if not 0 <= link_id < self.num_links:
            raise PlatformError(f"no link {link_id}")
        if self.link_up[link_id]:
            raise PlatformError(f"link {link_id} is already up")
        self.link_up[link_id] = True
        self._epoch += 1
        cost = self.link_c[link_id]
        ends = (self.link_u[link_id], self.link_v[link_id])
        for search in self._route_cache.values():
            for x in ends:
                if search.done[x]:
                    key = (search.cost[x] + cost, search.hops[x] + 1)
                    if search.bound is None or key < search.bound:
                        search.bound = key

    def crash_node(self, node: int) -> List[int]:
        """Permanently down every link incident to ``node`` (a crashed
        host or switch).  Returns the newly-downed link ids, ascending."""
        if not 0 <= node < self.num_nodes:
            raise PlatformError(f"no node {node}")
        downed: List[int] = []
        for link_id in sorted(self.adj[node].values()):
            if self.link_up[link_id]:
                self.link_up[link_id] = False
                downed.append(link_id)
        if downed:
            self._epoch += 1
        return downed

    def set_degrade(self, link_id: int, factor: Optional[Fraction]) -> None:
        """Apply (or with ``None`` clear) a bandwidth-degrade factor on
        ``link_id``.  Routing is unaffected — only :meth:`capacity`."""
        if not 0 <= link_id < self.num_links:
            raise PlatformError(f"no link {link_id}")
        if factor is None:
            self._degrade.pop(link_id, None)
        else:
            self._degrade[link_id] = factor

    def set_compute_weight(self, node_id: int, w: Weight) -> None:
        """Set host ``node_id``'s per-task compute time (in place)."""
        if not 0 <= node_id < self.num_nodes:
            raise PlatformError(f"no node {node_id}")
        if self.w[node_id] is None:
            raise PlatformError(f"node {node_id} is a switch (no compute)")
        if not w > 0:
            raise PlatformError(f"compute weight must be > 0, got {w!r}")
        self.w[node_id] = w

    def copy(self) -> "PlatformGraph":
        """Deep copy (weights, links, meta; route cache not shared, work
        counters at zero)."""
        clone = object.__new__(PlatformGraph)
        clone.w = list(self.w)
        clone.link_u = list(self.link_u)
        clone.link_v = list(self.link_v)
        clone.link_c = list(self.link_c)
        clone.adj = [dict(a) for a in self.adj]
        clone.root = self.root
        clone.contention = self.contention
        clone.meta = dict(self.meta)
        clone._route_cache = {}
        clone._epoch = 0
        clone.searches_started = 0
        clone.nodes_settled = 0
        clone.link_up = list(self.link_up)
        clone._degrade = dict(self._degrade)
        return clone

    # ------------------------------------------------------------- dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlatformGraph):
            return NotImplemented
        return (self.root == other.root and self.w == other.w
                and self.link_u == other.link_u
                and self.link_v == other.link_v
                and self.link_c == other.link_c
                and self.contention == other.contention)

    def __hash__(self) -> int:
        return hash((self.root, tuple(self.w), tuple(self.link_u),
                     tuple(self.link_v), tuple(self.link_c), self.contention))

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover
        return (f"PlatformGraph(nodes={self.num_nodes}, "
                f"links={self.num_links}, hosts={len(self.hosts)}, "
                f"root={self.root}, contention={self.contention!r})")


class _Search:
    """One source's resumable shortest-path search, kept across faults.

    ``prev_link[v]`` is the last link of ``v``'s path and ``cost``/
    ``hops`` its (cost, hops) key, final once ``done`` marks ``v``
    settled; ``heap`` is the frontier
    (``None`` once exhausted).  A lookup settles nodes only until its
    destination pops; later lookups in the same graph ``epoch`` resume
    from the heap.

    Every fault starts a new epoch.  A search from an older epoch still
    answers for a settled ``dst`` whose path is all up and whose key is
    below ``bound`` (``None``: no repair since).  Failures only remove
    links: keys cannot drop, the intact path keeps its key, and every
    equal-key predecessor left was one before, so the first one settled
    still wins.  A repair of ``x — y`` lowers ``bound`` to the key of a
    settled endpoint plus the link: a new path first leaves the old
    graph through some repaired link, so it costs at least ``bound`` and
    cannot reach, let alone tie, a key below it.  An unsettled endpoint
    needs no term: its key is at least every settled one, and so is
    anything reached through it.  For the same reason a node an
    exhausted search never reached stays unreachable while ``bound`` is
    ``None``.
    """

    __slots__ = ("prev_link", "cost", "hops", "done", "heap", "epoch",
                 "bound")

    def __init__(self, src: int, n: int, epoch: int):
        self.prev_link: List[Optional[int]] = [None] * n
        self.cost: List[Optional[Weight]] = [None] * n
        self.hops: List[int] = [0] * n
        self.cost[src] = 0
        self.done = bytearray(n)
        self.heap: Optional[List[Tuple[Weight, int, int]]] = [(0, 0, src)]
        self.epoch = epoch
        self.bound: Optional[Tuple[Weight, int]] = None


def build_overlay(graph: PlatformGraph, parent_of: Dict[int, int],
                  routes: Optional[Dict[int, Tuple[int, ...]]] = None, *,
                  root: Optional[int] = None) -> Overlay:
    """Assemble an :class:`Overlay` from a host parent map.

    ``parent_of`` maps every non-root host to its overlay parent host;
    ``routes`` optionally pins the physical route per child (defaulting to
    the graph's static shortest-path route).  Overlay edge costs are the
    route's bottleneck link cost (:meth:`PlatformGraph.route_cost`).
    ``root`` overrides the graph root (a re-rooted overlay for an
    application whose source is another host).
    """
    if root is None:
        root = graph.root
    elif root not in graph.hosts:
        raise PlatformError(f"overlay root {root} is not a host")
    hosts = [root] + [h for h in sorted(graph.hosts) if h != root]
    new_id = {h: i for i, h in enumerate(hosts)}
    for h in graph.hosts:
        if h == root:
            continue
        if h not in parent_of:
            raise PlatformError(f"overlay parent map misses host {h}")
        p = parent_of[h]
        if p not in new_id:
            raise PlatformError(
                f"overlay parent {p} of host {h} is not a host")
    route_of: List[Tuple[int, ...]] = [()] * len(hosts)
    edges: List[Tuple[int, int, Weight]] = []
    for h in hosts[1:]:
        links = (routes.get(h) if routes is not None else None)
        if links is None:
            links = graph.route(parent_of[h], h)
        if not links:
            raise PlatformError(
                f"empty route for overlay edge {parent_of[h]} -> {h}")
        route_of[new_id[h]] = tuple(links)
        edges.append((new_id[parent_of[h]], new_id[h],
                      graph.route_cost(links)))
    w = [graph.w[h] for h in hosts]
    tree = PlatformTree(w, edges, root=0)
    return Overlay(tree=tree, hosts=tuple(hosts), routes=tuple(route_of))


def generate_platform(topology: str,
                      params: Optional[TreeGeneratorParams] = None, *,
                      seed: Optional[int] = None,
                      rng: Optional[random.Random] = None,
                      contention: str = "maxmin") -> PlatformGraph:
    """Generate one random platform of the given shape.

    Sizes and weight ranges reuse the paper's tree-generator parameters
    (§4.1): node count uniform in ``[min_nodes, max_nodes]``, link costs
    uniform in ``[min_comm, max_comm]``, compute weights uniform in
    ``[min_comp, max_comp]``.  Leaf-spine fabrics draw their host count
    from the same range, pack hosts ``8`` per leaf over ``2`` spines and
    use ``min_comm`` as the (fast) fabric link cost.
    """
    if topology not in GRAPH_TOPOLOGIES:
        raise PlatformError(
            f"unknown topology {topology!r}; choose from {GRAPH_TOPOLOGIES}")
    if params is None:
        params = PAPER_DEFAULTS
    if rng is not None and seed is not None:
        raise PlatformError("pass either seed or rng, not both")
    if rng is None:
        rng = random.Random(seed)

    n = rng.randint(params.min_nodes, params.max_nodes)
    lo_w, hi_w = params.min_comp, params.max_comp
    lo_c, hi_c = params.min_comm, params.max_comm

    if topology == "star":
        root_w = rng.randint(lo_w, hi_w)
        leaves = [(rng.randint(lo_c, hi_c), rng.randint(lo_w, hi_w))
                  for _ in range(n - 1)]
        return PlatformGraph.star(root_w, leaves, contention=contention)
    if topology == "chain":
        weights = [rng.randint(lo_w, hi_w) for _ in range(n)]
        costs = [rng.randint(lo_c, hi_c) for _ in range(n - 1)]
        return PlatformGraph.chain(weights, costs, contention=contention)
    # leafspine: n hosts in groups of 8 under leaves, 2 spines, fast fabric.
    host_w = [rng.randint(lo_w, hi_w) for _ in range(n)]
    access = [rng.randint(lo_c, hi_c) for _ in range(n)]
    return PlatformGraph.leaf_spine(host_w, hosts_per_leaf=8, num_spines=2,
                                    access_costs=access,
                                    fabric_cost=params.min_comm,
                                    contention=contention)
