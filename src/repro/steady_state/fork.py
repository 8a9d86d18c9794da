"""Theorem 1: optimal steady-state rate of a single-level fork.

Consider a node ``P0`` with per-task compute time ``w0``, an uplink that
delivers at most one task per ``c0`` time units (``c0 = 0`` ⇒ unlimited, the
root case), and children ``P1..Pk`` where child *i* has communication time
``c_i`` and (subtree) computational weight ``w_i``.  Then the minimal
computational weight of the fork is::

    sort children so that c_1 <= c_2 <= ... <= c_k
    p = largest index with sum_{i<=p} c_i / w_i <= 1
    eps = 1 - sum_{i<=p} c_i / w_i     (0 if p == k)
    w_fork = max(c0, 1 / (1/w0 + sum_{i<=p} 1/w_i + eps / c_{p+1}))

Intuition: feeding child *i* at its full consumption rate ``1/w_i`` keeps the
parent's single send port busy a fraction ``c_i/w_i`` of the time; the
*bandwidth-centric* order (cheapest edges first) packs the most task
deliveries into the port (a fractional knapsack with unit value and weight
``c_i``), the next child gets the leftover fraction ``eps``, and the rest
starve regardless of their compute power.  The ``c0`` term caps the fork at
its own arrival rate.

All arithmetic is exact (:class:`fractions.Fraction`), which downstream lets
the onset detector compare measured rates with the optimum without floating
point ties.  :func:`~repro.steady_state.solver.solve_tree` runs the same
greedy, :func:`_greedy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from ..errors import SolverError

__all__ = ["solve_fork", "ForkSolution", "ChildAllocation",
           "SATURATED", "PARTIAL", "STARVED"]

#: Child fed at its full consumption rate ``1/w_i``.
SATURATED = "saturated"
#: Child fed with the leftover link fraction ``eps``.
PARTIAL = "partial"
#: Child receives no tasks in the optimal steady state.
STARVED = "starved"

NumberLike = Union[int, float, Fraction]


def _fraction(value: NumberLike, what: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise SolverError(f"{what} is not a number: {value!r}") from exc


@dataclass(frozen=True)
class ChildAllocation:
    """Steady-state role of one child in the optimal fork schedule."""

    #: Position in the caller's original child sequence.
    index: int
    #: Communication time of the child's edge.
    c: Fraction
    #: Computational weight of the child('s subtree).
    w: Fraction
    #: Task rate the optimal schedule delivers to this child.
    rate: Fraction
    #: Fraction of the parent's send port consumed (``rate * c``).
    link_share: Fraction
    #: One of :data:`SATURATED`, :data:`PARTIAL`, :data:`STARVED`.
    status: str


@dataclass(frozen=True)
class ForkSolution:
    """Output of :func:`solve_fork`."""

    #: Parent compute weight.
    w0: Fraction
    #: Uplink communication time (0 means no uplink constraint).
    c0: Fraction
    #: Per-child allocations, in bandwidth-centric (sorted) order.
    children: Tuple[ChildAllocation, ...]
    #: Number of fully-fed (saturated) children.
    p: int
    #: Leftover send-port fraction handed to child ``p+1``.
    epsilon: Fraction
    #: Optimal computational weight of the fork, ``max(c0, 1/raw_rate)``.
    w_tree: Fraction
    #: Optimal steady-state task rate, ``1 / w_tree``.
    rate: Fraction
    #: Rate before the ``c0`` cap (the fork's consumption capacity).
    uncapped_rate: Fraction

    @property
    def bandwidth_limited(self) -> bool:
        """True when the uplink ``c0``, not consumption capacity, binds."""
        return self.c0 > 0 and Fraction(1, 1) / self.uncapped_rate < self.c0

    def allocation_by_index(self, index: int) -> ChildAllocation:
        """Allocation of the child at the caller's original ``index``."""
        for child in self.children:
            if child.index == index:
                return child
        raise SolverError(f"no child with index {index}")


def solve_fork(w0: NumberLike, children: Sequence[Tuple[NumberLike, NumberLike]],
               c0: NumberLike = 0) -> ForkSolution:
    """Apply Theorem 1 to a single-level fork.

    Parameters
    ----------
    w0:
        Parent's per-task compute time (> 0).
    children:
        ``(c_i, w_i)`` pairs; ``c_i`` edge cost (> 0), ``w_i`` the child's
        (subtree) computational weight (> 0).
    c0:
        Parent's uplink communication time; 0 disables the arrival cap
        (the root of a tree).

    Returns the exact :class:`ForkSolution`.
    """
    w0 = _fraction(w0, "w0")
    c0 = _fraction(c0, "c0")
    if w0 <= 0:
        raise SolverError(f"w0 must be > 0, got {w0}")
    if c0 < 0:
        raise SolverError(f"c0 must be >= 0, got {c0}")

    parsed: List[Tuple[Fraction, Fraction, int]] = []
    for idx, (ci, wi) in enumerate(children):
        ci = _fraction(ci, f"child {idx} c")
        wi = _fraction(wi, f"child {idx} w")
        if ci <= 0:
            raise SolverError(f"child {idx}: c must be > 0, got {ci}")
        if wi <= 0:
            raise SolverError(f"child {idx}: w must be > 0, got {wi}")
        parsed.append((ci, wi, idx))

    # Bandwidth-centric order; original index breaks ties deterministically
    # (any tie order yields the same optimum — fractional knapsack).
    parsed.sort(key=lambda t: (t[0], t[2]))
    p, epsilon, uncapped_rate = _greedy(w0, [t[:2] for t in parsed])
    allocations = [ChildAllocation(idx, ci, wi, 1 / wi, ci / wi, SATURATED)
                   for ci, wi, idx in parsed[:p]]
    for ci, wi, idx in parsed[p:p + 1]:  # the partial child, if any
        allocations.append(ChildAllocation(idx, ci, wi, epsilon / ci, epsilon,
                                           PARTIAL if epsilon else STARVED))
    allocations += [ChildAllocation(idx, ci, wi, Fraction(0), Fraction(0),
                                    STARVED) for ci, wi, idx in parsed[p + 1:]]

    w_tree = max(c0, 1 / uncapped_rate)
    return ForkSolution(
        w0=w0,
        c0=c0,
        children=tuple(allocations),
        p=p,
        epsilon=epsilon,
        w_tree=w_tree,
        rate=1 / w_tree,
        uncapped_rate=uncapped_rate,
    )


def _greedy(w0, children):
    """``(p, epsilon, uncapped_rate)`` of Theorem 1 for ``(c_i, w_i)``
    children sorted by ``c_i``, in the operands' own rational type."""
    rate = 1 / w0
    used = zero = rate * 0
    for p, (ci, wi) in enumerate(children):
        share = ci / wi
        if used + share > 1:
            epsilon = 1 - used
            return p, epsilon, rate + epsilon / ci
        used += share
        rate += 1 / wi
    return len(children), zero, rate
