"""Bottom-up optimal steady-state analysis of a whole platform tree.

A bottom-up traversal applies Theorem 1 at every node: the computational
weight ``W_i`` of the subtree rooted at node *i* is the fork weight of *i*
with its children's subtree weights, clamped by *i*'s own uplink cost
``c_i``.  The root's ``W`` is the tree's optimal computational weight
``w_tree``; its reciprocal is the optimal steady-state task completion
rate the autonomous protocols try to reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Tuple

from ..platform.tree import PlatformTree
from ..sim.events import FastFraction
from .fork import ForkSolution, _greedy, solve_fork

__all__ = ["solve_tree", "SteadyStateSolution"]


@dataclass(frozen=True)
class SteadyStateSolution:
    """Optimal steady-state analysis of one platform tree: the subtree
    weights of :func:`solve_tree`, and the forks solved from them on read."""

    #: The analysed platform (snapshot reference; not copied).
    tree: PlatformTree
    #: Per-node subtree computational weight ``W_i`` (time per task).
    subtree_weights: Tuple[Fraction, ...]

    @cached_property
    def forks(self) -> Tuple[ForkSolution, ...]:
        """Per-node fork solutions (leaf forks have no children), solved
        from :attr:`subtree_weights` on first read and kept."""
        tree, weights = self.tree, self.subtree_weights
        return tuple(
            solve_fork(tree.w[i], [(tree.c[k], weights[k])
                                   for k in tree.children[i]], c0=tree.c[i])
            for i in range(tree.num_nodes))

    @property
    def w_tree(self) -> Fraction:
        """Optimal computational weight of the whole tree."""
        return self.subtree_weights[self.tree.root]

    @property
    def rate(self) -> Fraction:
        """Optimal steady-state task completion rate (tasks per timestep)."""
        return 1 / self.w_tree

    def subtree_rate(self, node_id: int) -> Fraction:
        """Maximal consumption rate of the subtree rooted at ``node_id``."""
        return 1 / self.subtree_weights[node_id]

    def fork(self, node_id: int) -> ForkSolution:
        """The Theorem-1 solution at ``node_id``."""
        return self.forks[node_id]


def solve_tree(tree: PlatformTree) -> SteadyStateSolution:
    """Compute the optimal steady-state rate of ``tree`` (exact).

    One postorder pass of Theorem 1's greedy on ``FastFraction``, in
    ``O(V log V)`` (the log from sorting children by edge cost); the
    weights come back as plain ``Fraction``.
    """
    w = [FastFraction(x) for x in tree.w]
    c = [FastFraction(x) for x in tree.c]
    weights = [None] * len(w)
    for i in tree.postorder():
        # A stable sort keeps child order on ties, as solve_fork does.
        kids = sorted([(c[k], weights[k]) for k in tree.children[i]],
                      key=lambda kid: kid[0])
        weights[i] = max(c[i], 1 / _greedy(w[i], kids)[2])
    return SteadyStateSolution(tree, tuple(Fraction(x) for x in weights))
