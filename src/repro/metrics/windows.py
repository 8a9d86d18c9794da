"""Sliding growing-window throughput rates (§4.1 methodology).

The paper measures the average execution rate between the completion of task
``x`` and task ``2x``: the point at x on the x-axis is
``(2x - x) / (t_2x - t_x)``.  As the run proceeds the window grows, so it
eventually excludes the startup phase while covering at least one full
period of the steady-state schedule.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError

if TYPE_CHECKING:  # the exact rates are pure Python; only plots need numpy
    import numpy as np

__all__ = ["window_rate", "window_rates", "normalized_window_rates",
           "num_windows", "steady_state_rate"]


def num_windows(num_completions: int) -> int:
    """Largest valid window index (x needs both t_x and t_2x)."""
    return num_completions // 2


def window_rate(completion_times: Sequence[int], x: int) -> Fraction:
    """Exact average rate over the window from task ``x`` to task ``2x``."""
    if x < 1 or 2 * x > len(completion_times):
        raise ReproError(
            f"window {x} out of range for {len(completion_times)} completions")
    dt = completion_times[2 * x - 1] - completion_times[x - 1]
    if dt < 0:
        # Completion times are non-decreasing by construction; a negative
        # span means the input is corrupted, not an infinite burst.
        raise ReproError(
            f"completion times out of order: t_{2 * x} < t_{x} "
            f"({completion_times[2 * x - 1]} < {completion_times[x - 1]})")
    if dt == 0:
        # x tasks completed in zero time (burst at one timestep): treat as
        # an infinite spike; callers compare rates, so saturate high.
        return Fraction(x, 1) * 10**9
    return Fraction(x, dt)


def window_rates(completion_times: Sequence[int]) -> np.ndarray:
    """Float rates for every window ``x = 1 .. N//2`` (vectorized).

    Intended for plotting/reporting; use :func:`window_rate` (exact) or the
    onset detector when comparing against the optimal rate.
    """
    import numpy as np

    times = np.asarray(completion_times, dtype=np.float64)
    n = num_windows(len(times))
    if n == 0:
        return np.empty(0)
    xs = np.arange(1, n + 1, dtype=np.float64)
    dt = times[2 * np.arange(1, n + 1) - 1] - times[np.arange(1, n + 1) - 1]
    if np.any(dt < 0):
        bad = int(np.argmax(dt < 0)) + 1
        raise ReproError(
            f"completion times out of order: t_{2 * bad} < t_{bad}")
    with np.errstate(divide="ignore"):
        return np.where(dt > 0, xs / np.maximum(dt, 1e-300), np.inf)


def normalized_window_rates(completion_times: Sequence[int],
                            optimal_rate: Union[Fraction, float]) -> np.ndarray:
    """Window rates divided by the optimal steady-state rate (floats)."""
    optimal = float(optimal_rate)
    if optimal <= 0:
        raise ReproError(f"optimal rate must be > 0, got {optimal_rate!r}")
    return window_rates(completion_times) / optimal


def steady_state_rate(result) -> Fraction:
    """Exact measured steady-state rate of one simulation result.

    When the run was warped (:mod:`repro.sim.warp`), the detected period is
    the steady state *by construction* and ``Δtasks / Δt`` is its exact
    rate — no window heuristics involved.  Otherwise the largest growing
    window (task ``N/2`` to task ``N``) stands in: it excludes the longest
    possible startup prefix the §4.1 methodology allows.  Runs that
    recorded no completion times fall back to the whole-run mean rate,
    which still excludes nothing but stays exact.
    """
    warp = getattr(result, "warp", None)
    if warp is not None and warp.applied:
        return Fraction(warp.period_tasks, warp.period_time)
    times = result.completion_times
    n = num_windows(len(times))
    if n >= 1:
        return window_rate(times, n)
    if result.makespan <= 0:
        raise ReproError("steady_state_rate needs a non-trivial run")
    return Fraction(result.num_tasks, result.makespan)
