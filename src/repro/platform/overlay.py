"""Tree-overlay construction from general physical topologies (§6 future work).

The paper leaves open "on what basis the overlay network should be
constructed": the platform is really a general graph of hosts and links, and
the scheduling model needs a spanning tree rooted at the data repository.
This module implements and compares candidate constructions:

* :func:`bfs_overlay` — minimum-hop tree (breadth-first from the root);
* :func:`shortest_path_overlay` — Dijkstra tree minimising summed edge cost
  from the root (favors short pipelines);
* :func:`mst_overlay` — Prim minimum-spanning tree on edge cost (favors
  globally cheap links, i.e. *bandwidth-first*);
* :func:`random_overlay` — uniform random spanning structure (baseline).

:func:`compare_overlays` ranks constructions by the optimal steady-state
rate of the resulting tree (computed with :mod:`repro.steady_state`), which
is exactly the yardstick the paper proposes.

The physical topology is a plain adjacency structure (``networkx`` graphs
are accepted and converted when available, but not required).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import PlatformError
from ..steady_state.solver import solve_tree
from .tree import PlatformTree

__all__ = [
    "PhysicalTopology",
    "bfs_overlay",
    "shortest_path_overlay",
    "mst_overlay",
    "random_overlay",
    "compare_overlays",
    "OverlayComparison",
]


class PhysicalTopology:
    """An undirected host graph with per-host compute and per-link costs.

    Parameters
    ----------
    w:
        Per-host compute times (``w[i] > 0``).
    links:
        ``(u, v, cost)`` triples (undirected, no self-loops, ``cost > 0``).
        Parallel links keep the cheapest cost.
    """

    def __init__(self, w: Sequence[int], links: Iterable[Tuple[int, int, int]]):
        n = len(w)
        if n == 0:
            raise PlatformError("a topology needs at least one host")
        for i, wi in enumerate(w):
            if not wi > 0:
                raise PlatformError(f"host {i}: compute weight must be > 0")
        self.w = list(w)
        self.adj: List[Dict[int, int]] = [dict() for _ in range(n)]
        for u, v, cost in links:
            if u == v:
                raise PlatformError(f"self-loop at host {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise PlatformError(f"link ({u}, {v}) references unknown host")
            if not cost > 0:
                raise PlatformError(f"link ({u}, {v}): cost must be > 0")
            previous = self.adj[u].get(v)
            if previous is None or cost < previous:
                self.adj[u][v] = cost
                self.adj[v][u] = cost

    @classmethod
    def from_networkx(cls, graph, *, weight_attr: str = "w",
                      cost_attr: str = "c") -> "PhysicalTopology":
        """Convert a ``networkx.Graph``; nodes must be ``0..n-1``."""
        n = graph.number_of_nodes()
        if sorted(graph.nodes) != list(range(n)):
            raise PlatformError("networkx graph nodes must be labelled 0..n-1")
        w = [graph.nodes[i][weight_attr] for i in range(n)]
        links = [(u, v, data[cost_attr]) for u, v, data in graph.edges(data=True)]
        return cls(w, links)

    @property
    def num_hosts(self) -> int:
        return len(self.w)

    def check_connected_from(self, root: int) -> None:
        """Raise :class:`PlatformError` unless all hosts are reachable."""
        seen = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != self.num_hosts:
            raise PlatformError(
                f"topology is disconnected: only {len(seen)}/{self.num_hosts} "
                f"hosts reachable from root {root}")


def _relabel(topology: PhysicalTopology, root: int,
             parent_of: Dict[int, Tuple[int, int]]) -> PlatformTree:
    """Build a PlatformTree (root relabelled to id 0) from a parent map."""
    order = [root] + [h for h in range(topology.num_hosts) if h != root]
    new_id = {host: i for i, host in enumerate(order)}
    w = [topology.w[host] for host in order]
    edges = [(new_id[parent], new_id[child], cost)
             for child, (parent, cost) in parent_of.items()]
    return PlatformTree(w, edges, root=0)


def bfs_overlay(topology: PhysicalTopology, root: int = 0) -> PlatformTree:
    """Minimum-hop spanning tree (ties broken by host id)."""
    topology.check_connected_from(root)
    parent_of: Dict[int, Tuple[int, int]] = {}
    queue = [root]
    seen = {root}
    idx = 0
    while idx < len(queue):
        u = queue[idx]
        idx += 1
        for v in sorted(topology.adj[u]):
            if v not in seen:
                seen.add(v)
                parent_of[v] = (u, topology.adj[u][v])
                queue.append(v)
    return _relabel(topology, root, parent_of)


def shortest_path_overlay(topology: PhysicalTopology, root: int = 0) -> PlatformTree:
    """Dijkstra tree: each host attaches along its cheapest path from root."""
    topology.check_connected_from(root)
    dist = {root: 0}
    parent_of: Dict[int, Tuple[int, int]] = {}
    heap: List[Tuple[int, int, int, int]] = [(0, root, -1, 0)]
    done = set()
    while heap:
        d, u, parent, cost = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if parent >= 0:
            parent_of[u] = (parent, cost)
        for v, link_cost in topology.adj[u].items():
            nd = d + link_cost
            if v not in done and nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v, u, link_cost))
    return _relabel(topology, root, parent_of)


def mst_overlay(topology: PhysicalTopology, root: int = 0) -> PlatformTree:
    """Prim minimum spanning tree on link cost, grown from the root."""
    topology.check_connected_from(root)
    parent_of: Dict[int, Tuple[int, int]] = {}
    heap: List[Tuple[int, int, int]] = [(0, root, -1)]
    done = set()
    while heap:
        cost, u, parent = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if parent >= 0:
            parent_of[u] = (parent, cost)
        for v, link_cost in topology.adj[u].items():
            if v not in done:
                heapq.heappush(heap, (link_cost, v, u))
    return _relabel(topology, root, parent_of)


def random_overlay(topology: PhysicalTopology, root: int = 0,
                   *, seed: Optional[int] = None) -> PlatformTree:
    """Random spanning tree via randomized Prim growth (baseline)."""
    topology.check_connected_from(root)
    rng = random.Random(seed)
    parent_of: Dict[int, Tuple[int, int]] = {}
    frontier: List[Tuple[int, int]] = [(root, -1)]
    done = set()
    while frontier:
        idx = rng.randrange(len(frontier))
        u, parent = frontier.pop(idx)
        if u in done:
            continue
        done.add(u)
        if parent >= 0:
            parent_of[u] = (parent, topology.adj[parent][u])
        for v in topology.adj[u]:
            if v not in done:
                frontier.append((v, u))
    return _relabel(topology, root, parent_of)


@dataclass(frozen=True)
class OverlayComparison:
    """Result row of :func:`compare_overlays` (rates are floats, higher wins)."""

    strategy: str
    tree: PlatformTree
    rate: float


def compare_overlays(topology: PhysicalTopology, root: int = 0,
                     *, seed: Optional[int] = None) -> List[OverlayComparison]:
    """Build all overlay variants and rank them by optimal steady-state rate."""
    builders = [
        ("bfs", lambda: bfs_overlay(topology, root)),
        ("shortest-path", lambda: shortest_path_overlay(topology, root)),
        ("mst", lambda: mst_overlay(topology, root)),
        ("random", lambda: random_overlay(topology, root, seed=seed)),
    ]
    rows = []
    for name, build in builders:
        tree = build()
        rows.append(OverlayComparison(name, tree, float(solve_tree(tree).rate)))
    rows.sort(key=lambda row: row.rate, reverse=True)
    return rows
