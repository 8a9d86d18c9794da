"""Fault-recovery metrics: how well a run absorbed abrupt failures.

Companion to :mod:`repro.platform.faults` and the engine's recovery
protocol.  Everything here is computed *after* the run from the fields
:class:`~repro.protocols.result.SimulationResult` records:

* **re-execution cost** — task instances destroyed by faults that the root
  had to dispense a second time (``tasks_reexecuted``);
* **wasted link time** — transfers killed mid-flight (``transfers_wasted``);
* **recovery latency** — virtual time from each crash to the first reclaim
  of its lost work (detection via the request-liveness timeout, plus the
  exponential-backoff probes);
* **degraded-throughput windows** — growing windows (§4.1) whose rate falls
  below a threshold of the *surviving* platform's optimal steady-state
  rate, i.e. how long the failure was actually felt;
* **post-recovery rate** — the achieved rate after the last reclaim, to be
  compared against ``solve_tree(result.surviving_tree()).rate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from ..protocols.result import SimulationResult
from ..steady_state.solver import solve_tree
from .windows import window_rates

__all__ = [
    "RecoveryReport",
    "recovery_latencies",
    "post_recovery_rate",
    "degraded_windows",
    "recovery_report",
]


def recovery_latencies(result: SimulationResult) -> List[int]:
    """Per-crash latency until the first reclaim at or after it.

    A crash whose lost work was never reclaimed (impossible for completed
    runs unless it destroyed zero in-system instances) contributes nothing.
    """
    latencies: List[int] = []
    for crash_at in result.crash_times:
        later = [t for t in result.reclaim_times if t >= crash_at]
        if later:
            latencies.append(min(later) - crash_at)
    return latencies


def post_recovery_rate(result: SimulationResult) -> Optional[Fraction]:
    """Exact mean completion rate after the last fault was recovered.

    Measures from the first completion after the last crash/reclaim up to
    the repository's exhaustion (the wind-down tail, where nodes merely
    drain their buffers, is excluded like the startup phase is by the
    paper's growing windows).  ``None`` when fewer than two completions
    fall inside that span.
    """
    cutoff = max(
        result.crash_times[-1] if result.crash_times else 0,
        result.reclaim_times[-1] if result.reclaim_times else 0,
    )
    end = result.repository_exhausted_at
    if end is None:
        end = result.makespan
    times = [t for t in result.completion_times if cutoff < t <= end]
    if len(times) < 2 or times[-1] == times[0]:
        return None
    return Fraction(len(times) - 1, times[-1] - times[0])


def degraded_windows(result: SimulationResult,
                     threshold: float = 0.9) -> List[int]:
    """Growing-window indices whose rate is below ``threshold`` × the
    surviving platform's optimal steady-state rate."""
    optimal = float(solve_tree(result.surviving_tree()).rate)
    limit = threshold * optimal
    rates = window_rates(result.completion_times)
    return [x + 1 for x, rate in enumerate(rates) if rate < limit]


@dataclass(frozen=True)
class RecoveryReport:
    """One-stop summary of a faulty run's recovery behaviour."""

    tasks_reexecuted: int
    transfers_wasted: int
    num_crashed_nodes: int
    recovery_latencies: Tuple[int, ...]
    #: Optimal steady-state rate of the platform minus each crashed node's
    #: (cut-off) subtree.
    surviving_optimal_rate: Fraction
    #: Achieved rate after the last recovery (None if too little data).
    post_recovery_rate: Optional[Fraction]
    #: Growing windows below 90% of the surviving optimal.
    degraded_window_count: int
    total_windows: int

    @property
    def post_recovery_efficiency(self) -> Optional[float]:
        """``post_recovery_rate / surviving_optimal_rate`` (None if unknown)."""
        if self.post_recovery_rate is None:
            return None
        return float(self.post_recovery_rate / self.surviving_optimal_rate)


def recovery_report(result: SimulationResult,
                    threshold: float = 0.9) -> RecoveryReport:
    """Compute the full :class:`RecoveryReport` for one run."""
    degraded = degraded_windows(result, threshold)
    return RecoveryReport(
        tasks_reexecuted=result.tasks_reexecuted,
        transfers_wasted=result.transfers_wasted,
        num_crashed_nodes=len(result.crashed_node_ids),
        recovery_latencies=tuple(recovery_latencies(result)),
        surviving_optimal_rate=solve_tree(result.surviving_tree()).rate,
        post_recovery_rate=post_recovery_rate(result),
        degraded_window_count=len(degraded),
        total_windows=len(result.completion_times) // 2,
    )
