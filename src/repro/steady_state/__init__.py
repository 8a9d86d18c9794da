"""Optimal steady-state scheduling theory (Theorem 1 and its consequences).

* :func:`solve_fork` — Theorem 1 on a single-level fork (exact rationals);
* :func:`solve_tree` — bottom-up subtree weights for a whole platform tree;
* :func:`allocate` — top-down per-node compute rates / per-edge flows;
* :mod:`repro.steady_state.bounds` — schedule periods and buffer bounds.
"""

from .._exports import export as _export

__all__ = _export(globals(), {
    ".fork": ("solve_fork", "ForkSolution", "ChildAllocation", "SATURATED",
              "PARTIAL", "STARVED"),
    ".solver": ("solve_tree", "SteadyStateSolution"),
    ".allocation": ("allocate", "TreeAllocation"),
    ".bounds": ("schedule_period", "tasks_per_period",
                "min_buffers_nonic_fork", "burst_bound"),
    ".lp": ("solve_tree_lp", "LpSolution"),
    ".sensitivity": ("classify_bottlenecks", "rate_sensitivity",
                     "top_improvements", "NodeBottleneck",
                     "SensitivityEntry", "UPLINK_BOUND", "CAPACITY_BOUND"),
})
