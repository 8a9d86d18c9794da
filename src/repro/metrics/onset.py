"""Onset-of-optimal-steady-state detection (§4.1).

The paper's empirical criterion: *"the tree has reached optimal steady state
if its rate goes over the optimal steady-state rate twice after window 300;
the onset occurs when the rate goes over for the second time."*  With
integral completion times and a rational optimal rate the comparison
``x / (t_2x - t_x) > optimal`` is done in exact integer arithmetic, so no
floating-point tie can flip a verdict.

The threshold window (300 for the paper's 10 000-task runs) scales with the
application size; :func:`default_threshold` keeps the paper's 300-per-10 000
proportion for scaled-down runs.

Every run returns its completion times as a ``PeriodicTimeline``, which
steady-state warp (:mod:`repro.sim.warp`) fills with the skipped periods
as one period; it iterates exactly like the tuple of its items, so onset
detection on a warped run sees the same sequence — and returns the same
window — as on the exact run.
Runs started with ``record_completion_times=False`` have no completion
times at all; :func:`detect_onset` then (vacuously) returns ``None``, so
keep recording on when onsets matter.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Optional, Sequence, Union

from ..errors import ReproError

__all__ = ["detect_onset", "reached_optimal", "default_threshold",
           "PAPER_THRESHOLD_WINDOW", "PAPER_NUM_TASKS"]

#: Threshold window used throughout the paper's evaluation.
PAPER_THRESHOLD_WINDOW = 300
#: Application size used for the paper's main experiments.
PAPER_NUM_TASKS = 10_000


def default_threshold(num_tasks: int) -> int:
    """Scale the paper's window-300 threshold to a different task count."""
    if num_tasks <= 0:
        raise ReproError(f"num_tasks must be > 0, got {num_tasks}")
    return max(1, round(num_tasks * PAPER_THRESHOLD_WINDOW / PAPER_NUM_TASKS))


def detect_onset(completion_times: Sequence[int],
                 optimal_rate: Union[Fraction, int],
                 threshold_window: Optional[int] = None) -> Optional[int]:
    """Window index of the onset of optimal steady state, or ``None``.

    Returns the window ``x`` (tasks completed at the beginning of the
    window) at which the rate exceeds ``optimal_rate`` for the **second**
    time with ``x > threshold_window`` — the paper's heuristic — or ``None``
    when the criterion is never met.
    """
    optimal = Fraction(optimal_rate)
    if optimal <= 0:
        raise ReproError(f"optimal rate must be > 0, got {optimal_rate!r}")
    if threshold_window is None:
        threshold_window = default_threshold(len(completion_times))
    if threshold_window < 0:
        raise ReproError(
            f"threshold window must be >= 0, got {threshold_window}")
    num, den = optimal.numerator, optimal.denominator

    # Window x spans t_x = times[x - 1] to t_2x = times[2x - 1].  Two
    # iterators walk both ends in one pass, one item at a time, so the
    # scan costs the same on a tuple and on a PeriodicTimeline, whose
    # items are cheap to iterate but not to index.
    t = threshold_window
    starts = islice(completion_times, t, None)
    ends = islice(completion_times, 2 * t + 1, None, 2)
    crossings = 0
    for x, (t_x, t_2x) in enumerate(zip(starts, ends), t + 1):
        dt = t_2x - t_x
        # x / dt > num / den  <=>  x * den > num * dt   (dt > 0; dt == 0 is
        # an instantaneous burst, trivially above any finite rate)
        if dt == 0 or x * den > num * dt:
            crossings += 1
            if crossings == 2:
                return x
    return None


def reached_optimal(completion_times: Sequence[int],
                    optimal_rate: Union[Fraction, int],
                    threshold_window: Optional[int] = None) -> bool:
    """True iff the run satisfies the paper's reached-optimal criterion."""
    return detect_onset(completion_times, optimal_rate, threshold_window) is not None
