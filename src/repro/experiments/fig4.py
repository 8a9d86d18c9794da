"""Figure 4 — Achieving maximal steady state.

For each protocol (non-IC/IB=1 and IC with 1, 2, 3 fixed buffers), the
cumulative percentage of trees whose onset of optimal steady state occurs
within x completed tasks.  The paper's reading: IC/FB=3 reaches the optimal
rate in 99.57 % of 25 000 trees, IC/FB=2 in 98.51 %, IC/FB=1 in ~82 %, and
non-IC/IB=1 in only 20.18 % (with much longer startup phases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..platform.generator import PAPER_DEFAULTS, TreeGeneratorParams
from ..protocols.config import ProtocolConfig
from .common import ExperimentScale, TreeCase, sweep
from .reporting import fmt_pct, format_table

if TYPE_CHECKING:  # annotation-only: FIG4_CONFIGS importers skip the harness
    from ..harness import HarnessConfig, RunCoverage

__all__ = ["FIG4_CONFIGS", "Fig4Result", "run", "format_result"]

#: The four protocol variants plotted in Figure 4.
FIG4_CONFIGS: Tuple[ProtocolConfig, ...] = (
    ProtocolConfig.non_interruptible(1),
    ProtocolConfig.interruptible(1),
    ProtocolConfig.interruptible(2),
    ProtocolConfig.interruptible(3),
)

#: Reference percentages reported by the paper (for EXPERIMENTS.md).
PAPER_REACHED = {
    "non-IC, IB=1": 20.18,
    "IC, FB=1": 81.9,
    "IC, FB=2": 98.51,
    "IC, FB=3": 99.57,
}


@dataclass(frozen=True)
class Fig4Result:
    scale: ExperimentScale
    cases: List[TreeCase]
    #: x-axis grid (tasks completed at the beginning of the window).
    grid: Tuple[int, ...]
    #: label → cumulative % of trees with onset <= x, per grid point.
    cdf: Dict[str, Tuple[float, ...]]
    #: label → final % of trees that reached optimal steady state.
    reached: Dict[str, float]
    #: Crash-safety coverage report (``None`` when run without a harness).
    coverage: Optional[RunCoverage] = None


def run(scale: ExperimentScale = ExperimentScale(),
        params: TreeGeneratorParams = PAPER_DEFAULTS,
        progress=None, workers: int = 1,
        harness: Optional[HarnessConfig] = None) -> Fig4Result:
    """Run the Figure 4 ensemble (also feeds Table 1)."""
    cases = sweep(FIG4_CONFIGS, scale, params, progress=progress,
                  workers=workers, harness=harness, experiment="fig4")
    return summarize(cases, scale, coverage=cases.coverage)


def summarize(cases: Sequence[TreeCase], scale: ExperimentScale,
              coverage: Optional[RunCoverage] = None) -> Fig4Result:
    """Aggregate a finished sweep into CDFs (reused by Table 1's runner)."""
    import numpy as np

    from ..metrics.ensemble import onset_cdf, percentage_reached

    max_window = scale.tasks // 2
    grid = tuple(int(x) for x in np.linspace(scale.threshold, max_window, 12))
    cdf: Dict[str, Tuple[float, ...]] = {}
    reached: Dict[str, float] = {}
    for config in FIG4_CONFIGS:
        onsets = [case.outcomes[config.label].onset for case in cases]
        cdf[config.label] = tuple(100.0 * v for v in onset_cdf(onsets, grid))
        reached[config.label] = percentage_reached(onsets)
    return Fig4Result(scale=scale, cases=list(cases), grid=grid, cdf=cdf,
                      reached=reached, coverage=coverage)


def format_result(result: Fig4Result) -> str:
    """Text rendering of the CDF curves plus the headline percentages."""
    labels = [c.label for c in FIG4_CONFIGS]
    rows = []
    for i, x in enumerate(result.grid):
        rows.append([x] + [fmt_pct(result.cdf[label][i]) for label in labels])
    table = format_table(
        ["tasks completed"] + labels, rows,
        title=(f"Figure 4 — % of trees at optimal steady state within x tasks "
               f"({result.scale.trees} trees, {result.scale.tasks} tasks, "
               f"threshold window {result.scale.threshold})"))
    summary_rows = [[label,
                     fmt_pct(result.reached[label], 2),
                     fmt_pct(PAPER_REACHED[label], 2)]
                    for label in labels]
    summary = format_table(["protocol", "reached (this run)", "reached (paper)"],
                           summary_rows)
    return table + "\n\n" + summary
