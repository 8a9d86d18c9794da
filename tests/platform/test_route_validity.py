"""Cached routes stay exact across link faults.

A :class:`PlatformGraph` keeps each source's shortest-path search across
``fail_link``/``repair_link``/``crash_node`` and decides per lookup
whether the cached answer still holds.  The oracle is a copy of the
graph, whose route cache starts empty: after every mutation of a random
fault sequence, every overlay edge, a sample of random pairs and the
relay overlay must route exactly as on the copy — same links, same
tie-breaks, same partitions.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.errors import PlatformError
from repro.platform import PlatformTree, TreeGeneratorParams, generate_tree
from repro.platform.graph import PlatformGraph, generate_platform
from repro.protocols.topologies import topology_overlay

#: Small platforms with a narrow cost range, so equal-cost paths are
#: common and tie-breaks are exercised.
SMALL = TreeGeneratorParams(min_nodes=4, max_nodes=24, min_comm=1,
                            max_comm=3, max_comp=10, comp_divisor=10)

SHAPES = ("tree", "star", "chain", "leafspine", "mesh")


def _build(shape: str, seed: int) -> PlatformGraph:
    rng = random.Random(seed)
    if shape == "tree":
        return PlatformGraph.from_tree(generate_tree(SMALL, rng=rng))
    if shape in ("star", "chain"):
        return generate_platform(shape, SMALL, rng=rng)
    if shape == "leafspine":
        hosts = rng.randint(2, 20)
        return PlatformGraph.leaf_spine(
            [rng.randint(1, 9) for _ in range(hosts)],
            hosts_per_leaf=rng.randint(1, 4), num_spines=rng.randint(1, 3),
            access_costs=[rng.randint(1, 3) for _ in range(hosts)],
            fabric_cost=rng.randint(1, 2))
    # A tree plus random chords: many alternative paths, so repairs can
    # shorten or tie routes they do not lie on.
    tree = generate_tree(SMALL, rng=rng)
    links = [(p, c, cost) for p, c, cost in tree.edges()]
    have = {frozenset((p, c)) for p, c, _ in links}
    for _ in range(tree.num_nodes):
        u, v = rng.randrange(tree.num_nodes), rng.randrange(tree.num_nodes)
        if u != v and frozenset((u, v)) not in have:
            have.add(frozenset((u, v)))
            links.append((u, v, rng.randint(1, 3)))
    return PlatformGraph(list(tree.w), links, root=tree.root)


def _mutate(g: PlatformGraph, op: str, pick: int) -> None:
    up = [l for l in range(g.num_links) if g.link_up[l]]
    down = [l for l in range(g.num_links) if not g.link_up[l]]
    if op == "repair" and down:
        g.repair_link(down[pick % len(down)])
    elif op == "crash":
        g.crash_node(pick % g.num_nodes)
    elif up:
        g.fail_link(up[pick % len(up)])


def _overlay(g: PlatformGraph):
    try:
        return g.overlay()
    except PlatformError as exc:
        return str(exc)


def _assert_matches_fresh(g, edges, rng):
    fresh = g.copy()
    assert _overlay(g) == _overlay(fresh)
    n = g.num_nodes
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    for src, dst in pairs + edges:
        assert g.route_or_none(src, dst) == fresh.route_or_none(src, dst), \
            (src, dst)


@settings(max_examples=120, deadline=None)
@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.tuples(
           st.sampled_from(("fail", "fail", "repair", "repair", "crash")),
           st.integers(0, 2**16)), min_size=1, max_size=14))
def test_routes_match_a_fresh_copy_after_every_fault(shape, seed, steps):
    g = _build(shape, seed)
    overlay = topology_overlay(g)
    edges = [(overlay.hosts[p], overlay.hosts[c])
             for p, c, _cost in overlay.tree.edges()]
    rng = random.Random(seed)
    _assert_matches_fresh(g, edges, rng)
    for op, pick in steps:
        _mutate(g, op, pick)
        _assert_matches_fresh(g, edges, rng)


class TestCachedSearches:
    """What a fault costs: which lookups reuse the cached search."""

    def diamond(self):
        # 0-1-3 (links 0, 2: cost 1+2) ties 0-2-3 (links 1, 3: cost 2+1);
        # the path through node 1 wins.  Node 4 hangs off node 3.
        return PlatformGraph([1, 1, 1, 1, 1],
                             [(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1),
                              (3, 4, 1)])

    def test_failure_off_the_path_keeps_the_search(self):
        g = self.diamond()
        assert g.route(0, 3) == (0, 2)
        g.fail_link(3)
        assert g.route(0, 3) == (0, 2)
        assert g.searches_started == 1

    def test_failure_on_the_path_searches_again(self):
        g = self.diamond()
        assert g.route(0, 3) == (0, 2)
        g.fail_link(2)
        assert g.route(0, 3) == (1, 3)
        assert g.searches_started == 2

    def test_repair_that_cannot_tie_keeps_the_search(self):
        g = self.diamond()
        g.fail_link(1)
        assert g.route(0, 1) == (0,)
        g.repair_link(1)  # 0-2 costs 2 > the cached key of node 1
        assert g.route(0, 1) == (0,)
        assert g.searches_started == 1

    def test_repair_that_ties_searches_again(self):
        g = self.diamond()
        g.fail_link(0)
        assert g.route(0, 3) == (1, 3)
        g.repair_link(0)  # the 0-1-3 path ties and wins on node id
        assert g.route(0, 3) == (0, 2)
        assert g.searches_started == 2

    def test_lookups_resume_one_search(self):
        g = PlatformGraph.chain([1] * 6, [1] * 5)
        assert g.route(0, 1) == (0,)
        assert g.nodes_settled == 2
        assert g.route(0, 5) == (0, 1, 2, 3, 4)
        assert g.searches_started == 1
        assert g.nodes_settled == 6

    def test_unreachable_stays_unreachable_until_a_repair(self):
        g = PlatformGraph.chain([1] * 4, [1] * 3)
        g.fail_link(1)
        assert g.route_or_none(0, 3) is None
        g.fail_link(0)
        assert g.route_or_none(0, 3) is None
        assert g.searches_started == 1
        g.repair_link(1)
        g.repair_link(0)
        assert g.route_or_none(0, 3) == (0, 1, 2)

    def test_counters_reset_on_copy_and_stay_out_of_equality(self):
        g = PlatformGraph.from_tree(PlatformTree.fork(1, [(1, 2), (3, 4)]))
        g.overlay()
        assert (g.searches_started, g.nodes_settled) == (1, 3)
        clone = g.copy()
        assert (clone.searches_started, clone.nodes_settled) == (0, 0)
        assert clone == g and hash(clone) == hash(g)
