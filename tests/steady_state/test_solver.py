"""Tests for the bottom-up tree solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.platform import (
    PlatformTree,
    TreeGeneratorParams,
    figure1_tree,
    generate_tree,
)
from repro.steady_state import solve_fork, solve_tree


def small_random_tree(seed):
    return generate_tree(TreeGeneratorParams(min_nodes=2, max_nodes=25,
                                             max_comm=20, max_comp=100),
                         seed=seed)


class TestBaseCases:
    def test_single_node(self):
        sol = solve_tree(PlatformTree.single_node(7))
        assert sol.w_tree == 7
        assert sol.rate == Fraction(1, 7)

    def test_fork_equals_fork_solver(self):
        tree = PlatformTree.fork(2, [(1, 4), (5, 8)])
        assert solve_tree(tree).w_tree == solve_fork(2, [(1, 4), (5, 8)]).w_tree

    def test_chain_clamps_by_link(self):
        # 0 --(c=10)--> 1: child capacity 1/2 but only one task per 10 steps.
        tree = PlatformTree.linear_chain([4, 2], [10])
        sol = solve_tree(tree)
        assert sol.subtree_weights[1] == 10  # clamped at its uplink
        assert sol.rate == Fraction(1, 4) + Fraction(1, 10)

    def test_chain_deep_composition(self):
        # 0 -1-> 1 -1-> 2, all w=3: every link share is 3-ish… compute exactly.
        tree = PlatformTree.linear_chain([3, 3, 3], [1, 1])
        # Node 2 subtree: w=3. Node 1: w0=3, child (1, 3): share 1/3 → rate
        # 1/3 + 1/3 = 2/3 → weight 3/2 (clamped by c=1? max(1, 3/2) = 3/2).
        # Root: w0=3, child (1, 3/2): share 2/3 ≤ 1 → rate 1/3 + 2/3 = 1.
        sol = solve_tree(tree)
        assert sol.subtree_weights[1] == Fraction(3, 2)
        assert sol.rate == 1

    def test_figure1_value(self):
        """Hand-checked optimum for the Figure 1 platform: 11/12."""
        assert solve_tree(figure1_tree()).rate == Fraction(11, 12)

    def test_subtree_rate_accessor(self):
        tree = figure1_tree()
        sol = solve_tree(tree)
        for node_id in range(tree.num_nodes):
            assert sol.subtree_rate(node_id) == 1 / sol.subtree_weights[node_id]

    def test_fork_accessor(self):
        sol = solve_tree(figure1_tree())
        assert sol.fork(0).c0 == 0
        assert sol.fork(1).c0 == 1


class TestAdaptabilityScenarios:
    """The §4.2.3 platform changes have predictable effects on the optimum."""

    def test_slower_c1_decreases_rate(self):
        base = solve_tree(figure1_tree()).rate
        mutated = figure1_tree()
        mutated.set_edge_cost(1, 3)
        assert solve_tree(mutated).rate < base

    def test_faster_w1_increases_rate(self):
        base = solve_tree(figure1_tree()).rate
        mutated = figure1_tree()
        mutated.set_compute_weight(1, 1)
        assert solve_tree(mutated).rate > base


class TestProperties:
    @given(seed=st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_rate_bounded_by_total_compute_power(self, seed):
        tree = small_random_tree(seed)
        sol = solve_tree(tree)
        assert sol.rate <= sum(Fraction(1, w) for w in tree.w)
        assert sol.rate >= Fraction(1, tree.w[tree.root])  # root alone

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_subtree_weights_clamped_by_uplink(self, seed):
        tree = small_random_tree(seed)
        sol = solve_tree(tree)
        for node_id in range(tree.num_nodes):
            if tree.parent[node_id] is not None:
                assert sol.subtree_weights[node_id] >= tree.c[node_id]

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_speeding_up_any_node_never_hurts(self, seed):
        tree = small_random_tree(seed)
        base = solve_tree(tree).rate
        for node_id in range(tree.num_nodes):
            if tree.w[node_id] > 1:
                faster = tree.copy()
                faster.set_compute_weight(node_id, tree.w[node_id] - 1)
                assert solve_tree(faster).rate >= base

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_cheaper_edge_never_hurts(self, seed):
        tree = small_random_tree(seed)
        base = solve_tree(tree).rate
        for node_id in range(tree.num_nodes):
            if tree.parent[node_id] is not None and tree.c[node_id] > 1:
                cheaper = tree.copy()
                cheaper.set_edge_cost(node_id, tree.c[node_id] - 1)
                assert solve_tree(cheaper).rate >= base

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_pruning_a_subtree_never_helps(self, seed):
        tree = small_random_tree(seed)
        if tree.num_nodes < 3:
            return
        base = solve_tree(tree).rate
        # Prune the last leaf (guaranteed not the root).
        victim = tree.leaves[-1]
        keep = [i for i in range(tree.num_nodes) if i != victim]
        relabel = {old: new for new, old in enumerate(keep)}
        w = [tree.w[i] for i in keep]
        edges = [(relabel[p], relabel[ch], c) for p, ch, c in tree.edges()
                 if ch != victim]
        pruned = PlatformTree(w, edges, root=relabel[tree.root])
        assert solve_tree(pruned).rate <= base


#: Edge costs from a small set, so siblings tie on ``c``, also across
#: types (``Fraction(1, 2)`` and ``0.5`` are one cost).
_COSTS = st.sampled_from([1, 2, 3, Fraction(1, 2), 0.5, Fraction(3, 2), 1.5])
_WEIGHTS = st.one_of(st.integers(1, 40),
                     st.fractions(Fraction(1, 4), 40, max_denominator=9),
                     st.floats(0.25, 40))


@st.composite
def mixed_trees(draw):
    """Trees of up to 14 nodes with int, Fraction and float weights."""
    n = draw(st.integers(1, 14))
    w = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
    edges = [(draw(st.integers(0, i - 1)), i, draw(_COSTS))
             for i in range(1, n)]
    return PlatformTree(w, edges)


class TestLeanPass:
    """``solve_tree`` runs Theorem 1's greedy alone; the per-node
    :func:`solve_fork` composition is its oracle."""

    @given(tree=st.one_of(
        mixed_trees(),
        st.integers(0, 5000).map(lambda seed: generate_tree(
            TreeGeneratorParams(min_nodes=2, max_nodes=25, max_comm=3,
                                max_comp=30), seed=seed))))
    @settings(max_examples=200, deadline=None)
    def test_weights_and_forks_equal_per_node_solve_fork(self, tree):
        weights = [None] * tree.num_nodes
        forks = [None] * tree.num_nodes
        for i in tree.postorder():
            forks[i] = solve_fork(tree.w[i], [(tree.c[k], weights[k])
                                              for k in tree.children[i]],
                                  c0=tree.c[i])
            weights[i] = forks[i].w_tree
        sol = solve_tree(tree)
        assert sol.subtree_weights == tuple(weights)
        assert all(type(w) is Fraction for w in sol.subtree_weights)
        assert type(sol.rate) is Fraction
        assert sol.forks == tuple(forks)
        assert sol.fork(tree.root) is sol.forks[tree.root]  # built once
