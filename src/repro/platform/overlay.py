"""Tree-overlay construction from general physical topologies (§6 future work).

The paper leaves open "on what basis the overlay network should be
constructed": the platform is really a general graph of hosts and links, and
the scheduling model needs a spanning tree rooted at the data repository.
This module implements and compares candidate constructions over a
:class:`~repro.platform.graph.PlatformGraph` of hosts:

* :func:`bfs_overlay` — minimum-hop tree (breadth-first from the root);
* the *shortest-path* tree — :meth:`PlatformGraph.overlay`, each host
  attached along its cheapest path from the root (favors short pipelines;
  equal-cost paths go to the one with fewer hops);
* :func:`mst_overlay` — Prim minimum-spanning tree on edge cost (favors
  globally cheap links, i.e. *bandwidth-first*);
* :func:`random_overlay` — uniform random spanning structure (baseline).

Each builder chooses a parent host and one physical link per child, and
:func:`~repro.platform.graph.build_overlay` turns that parent map into an
:class:`~repro.platform.graph.Overlay`.  Every node is expected to be a
host: a switch as a parent is rejected there.

:func:`compare_overlays` ranks constructions by the optimal steady-state
rate of the resulting tree (computed with :mod:`repro.steady_state`), which
is exactly the yardstick the paper proposes.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import PlatformError
from ..steady_state.solver import solve_tree
from .graph import Overlay, PlatformGraph, build_overlay
from .tree import PlatformTree

__all__ = [
    "bfs_overlay",
    "mst_overlay",
    "random_overlay",
    "compare_overlays",
    "OverlayComparison",
]


def _root_of(graph: PlatformGraph, root: Optional[int]) -> int:
    if root is None:
        return graph.root
    if root not in graph.hosts:
        raise PlatformError(f"overlay root {root} is not a host")
    return root


def _direct_overlay(graph: PlatformGraph, root: int,
                    parent_of: Dict[int, int]) -> Overlay:
    """The overlay whose every edge is the one link its builder chose."""
    routes = {child: (graph.adj[parent][child],)
              for child, parent in parent_of.items()}
    return build_overlay(graph, parent_of, routes, root=root)


def bfs_overlay(graph: PlatformGraph,
                root: Optional[int] = None) -> Overlay:
    """Minimum-hop spanning tree (ties broken by host id)."""
    root = _root_of(graph, root)
    parent_of: Dict[int, int] = {}
    queue = [root]
    seen = {root}
    idx = 0
    while idx < len(queue):
        u = queue[idx]
        idx += 1
        for v in sorted(graph.adj[u]):
            if v not in seen:
                seen.add(v)
                parent_of[v] = u
                queue.append(v)
    return _direct_overlay(graph, root, parent_of)


def mst_overlay(graph: PlatformGraph,
                root: Optional[int] = None) -> Overlay:
    """Prim minimum spanning tree on link cost, grown from the root."""
    root = _root_of(graph, root)
    parent_of: Dict[int, int] = {}
    heap: List[Tuple[int, int, int]] = [(0, root, -1)]
    done = set()
    while heap:
        _cost, u, parent = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if parent >= 0:
            parent_of[u] = parent
        for v, link in graph.adj[u].items():
            if v not in done:
                heapq.heappush(heap, (graph.link_c[link], v, u))
    return _direct_overlay(graph, root, parent_of)


def random_overlay(graph: PlatformGraph, root: Optional[int] = None,
                   *, seed: Optional[int] = None) -> Overlay:
    """Random spanning tree via randomized Prim growth (baseline)."""
    root = _root_of(graph, root)
    rng = random.Random(seed)
    parent_of: Dict[int, int] = {}
    frontier: List[Tuple[int, int]] = [(root, -1)]
    done = set()
    while frontier:
        idx = rng.randrange(len(frontier))
        u, parent = frontier.pop(idx)
        if u in done:
            continue
        done.add(u)
        if parent >= 0:
            parent_of[u] = parent
        for v in graph.adj[u]:
            if v not in done:
                frontier.append((v, u))
    return _direct_overlay(graph, root, parent_of)


@dataclass(frozen=True)
class OverlayComparison:
    """Result row of :func:`compare_overlays` (rates are floats, higher wins)."""

    strategy: str
    tree: PlatformTree
    rate: float


def compare_overlays(graph: PlatformGraph, root: Optional[int] = None,
                     *, seed: Optional[int] = None) -> List[OverlayComparison]:
    """Build all overlay variants and rank them by optimal steady-state rate."""
    builders = [
        ("bfs", lambda: bfs_overlay(graph, root)),
        ("shortest-path", lambda: graph.overlay(root=root)),
        ("mst", lambda: mst_overlay(graph, root)),
        ("random", lambda: random_overlay(graph, root, seed=seed)),
    ]
    rows = []
    for name, build in builders:
        tree = build().tree
        rows.append(OverlayComparison(name, tree, float(solve_tree(tree).rate)))
    rows.sort(key=lambda row: row.rate, reverse=True)
    return rows
