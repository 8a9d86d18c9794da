"""Shared experiment plumbing: scales, per-tree cases, ensemble sweeps.

The paper's evaluation runs 25 000 trees × 10 000 tasks; that scale needs a
2003 cluster (or a week).  Every experiment here takes an
:class:`ExperimentScale` so the same code runs the paper's parameters
(``ExperimentScale.paper()``) or laptop-sized ensembles (the default), with
the steady-state threshold window scaled proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..api import simulate
from ..apps.spec import Workload
from ..errors import ExperimentError
from ..metrics.onset import default_threshold, detect_onset
from ..platform.generator import PAPER_DEFAULTS, TreeGeneratorParams, generate_tree
from ..platform.graph import GRAPH_TOPOLOGIES, generate_platform
from ..protocols.config import ProtocolConfig
from ..protocols.topologies import topology_overlay

if TYPE_CHECKING:  # annotation-only: the harness loads when a sweep runs
    from ..harness import HarnessConfig, RunCoverage
    from ..telemetry.config import TelemetryConfig
    from ..telemetry.probes import TelemetrySnapshot

__all__ = ["ExperimentScale", "ConfigOutcome", "TreeCase", "CaseList",
           "run_case", "sweep"]


@dataclass(frozen=True)
class ExperimentScale:
    """Ensemble size, application size, and detection threshold.

    ``threshold_window=None`` scales the paper's window-300 criterion
    proportionally to ``tasks`` (see :func:`repro.metrics.default_threshold`).
    """

    trees: int = 150
    tasks: int = 2000
    base_seed: int = 0
    threshold_window: Optional[int] = None
    #: Run every protocol with steady-state warp (:mod:`repro.sim.warp`)
    #: enabled.  Results are identical to exact simulation; long ensembles
    #: finish sooner when runs reach a periodic steady state.
    warp: bool = False
    #: Attach telemetry probes (:mod:`repro.telemetry`) to every run of the
    #: sweep; each :class:`ConfigOutcome` then carries a
    #: :class:`~repro.telemetry.probes.TelemetrySnapshot` for ensemble
    #: aggregation.  ``None`` (the default) keeps sweeps probe-free.
    #: Mutually exclusive with ``warp`` in effect: probes make the warp
    #: stand down per run, so a warped sweep with telemetry runs exact.
    telemetry: Optional[TelemetryConfig] = None
    #: Platform shape per seed: ``"tree"`` (the paper's generator, default)
    #: or one of :data:`~repro.platform.graph.GRAPH_TOPOLOGIES` (``star``,
    #: ``chain``, ``leafspine``) run through the graph engine with the
    #: shape's protocol adaptation.  Non-tree sweeps checkpoint separately.
    topology: str = "tree"
    #: Explicit workload (multi-application or sized/staggered bags).
    #: ``None`` — the default — runs ``tasks`` unit tasks as one
    #: application, exactly as before; sweeps with an explicit workload
    #: checkpoint separately.
    workload: Optional[Workload] = None

    def __post_init__(self):
        if self.trees < 1:
            raise ExperimentError(f"trees must be >= 1, got {self.trees}")
        if self.tasks < 2:
            raise ExperimentError(f"tasks must be >= 2, got {self.tasks}")
        if self.topology != "tree" and self.topology not in GRAPH_TOPOLOGIES:
            raise ExperimentError(
                f"unknown topology {self.topology!r}; choose 'tree' or one "
                f"of {GRAPH_TOPOLOGIES}")

    @property
    def effective_workload(self) -> Workload:
        """The workload each run gets: the explicit one, else ``tasks``
        unit tasks as a single default application."""
        if self.workload is not None:
            return self.workload
        return Workload(tasks=self.tasks)

    @property
    def threshold(self) -> int:
        """The effective onset-threshold window."""
        if self.threshold_window is not None:
            return self.threshold_window
        return default_threshold(self.tasks)

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The scale used in the paper's §4.2.1 (hours of CPU time)."""
        return cls(trees=25_000, tasks=10_000, threshold_window=300)

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """A seconds-scale setting for CI smoke runs and benchmarks.

        Tasks stay at 2000: much below that, the IC/FB=3 startup (three
        buffers filling through the whole tree) eats into the detection
        horizon and the onset criterion under-reports the best protocol.
        """
        return cls(trees=20, tasks=2000)

    def with_trees(self, trees: int) -> "ExperimentScale":
        return replace(self, trees=trees)

    def with_tasks(self, tasks: int) -> "ExperimentScale":
        return replace(self, tasks=tasks)


@dataclass(frozen=True)
class ConfigOutcome:
    """Per-(tree, protocol) measurements used by the tables and figures."""

    onset: Optional[int]
    #: Largest buffer *pool* any node grew (requests outstanding capacity).
    max_buffers: int
    #: Largest number of buffers any node had *occupied* at once — the
    #: "buffers used" reading for Tables 1 and 2.
    max_held: int
    used_nodes: int
    used_depth: int
    makespan: int
    #: ``completed-task count → occupied-buffer high water`` samples
    #: (Table 2), present only when the sweep asked for buffer recording.
    buffer_samples: Dict[int, Optional[int]] = field(default_factory=dict)
    #: Telemetry snapshot of the run (``None`` unless the sweep's scale
    #: carried a :class:`~repro.telemetry.config.TelemetryConfig`).
    telemetry: Optional[TelemetrySnapshot] = None

    @property
    def reached(self) -> bool:
        return self.onset is not None


@dataclass(frozen=True)
class TreeCase:
    """One ensemble tree with its per-protocol outcomes."""

    seed: int
    num_nodes: int
    max_depth: int
    optimal_rate: Fraction
    outcomes: Dict[str, ConfigOutcome]

    def outcome(self, config: ProtocolConfig) -> ConfigOutcome:
        return self.outcomes[config.label]


def run_case(seed: int, params: TreeGeneratorParams,
             configs: Sequence[ProtocolConfig], scale: ExperimentScale,
             *, record_buffers: bool = False,
             sample_counts: Sequence[int] = ()) -> TreeCase:
    """Generate platform ``seed``, run every protocol on it, measure everything.

    Non-tree topologies run through the graph engine with the shape's
    protocol adaptation; their optimal-rate reference is the overlay
    tree's steady-state solution (exact for star/chain, which are
    contention-free; an upper bound on fabrics where flows share links).
    """
    if scale.topology == "tree":
        graph = None
        overlay = None
        tree = generate_tree(params, seed=seed)
    else:
        graph = generate_platform(scale.topology, params, seed=seed)
        overlay = topology_overlay(graph)
        tree = overlay.tree
    from ..steady_state.solver import solve_tree

    optimal = solve_tree(tree).rate
    outcomes: Dict[str, ConfigOutcome] = {}
    for config in configs:
        if scale.warp and not config.warp:
            config = replace(config, warp=True)
        if scale.telemetry is not None and config.telemetry is None:
            config = replace(config, telemetry=scale.telemetry)
        workload = scale.effective_workload
        if graph is None:
            result = simulate(tree, workload, config,
                              record_buffer_timeline=record_buffers)
        else:
            result = simulate(graph, workload, config, overlay=overlay,
                              record_buffer_timeline=record_buffers)
        onset = detect_onset(result.completion_times, optimal, scale.threshold)
        samples: Dict[int, Optional[int]] = {}
        if record_buffers:
            timeline = result.held_high_water_at_completion
            for count in sample_counts:
                samples[count] = (timeline[count - 1]
                                  if 1 <= count <= len(timeline) else None)
        outcomes[config.label] = ConfigOutcome(
            onset=onset,
            max_buffers=result.max_buffers,
            max_held=result.max_held,
            used_nodes=result.num_used_nodes,
            used_depth=result.used_depth,
            makespan=result.makespan,
            buffer_samples=samples,
            telemetry=result.telemetry,
        )
    return TreeCase(
        seed=seed,
        num_nodes=tree.num_nodes,
        max_depth=tree.max_depth,
        optimal_rate=optimal,
        outcomes=outcomes,
    )


class CaseList(List[TreeCase]):
    """A list of :class:`TreeCase` with the sweep's coverage report.

    Behaves exactly like the plain list :func:`sweep` used to return;
    ``coverage`` is ``None`` unless the sweep ran under a harness.
    """

    coverage: Optional[RunCoverage] = None


def sweep(configs: Sequence[ProtocolConfig], scale: ExperimentScale,
          params: TreeGeneratorParams = PAPER_DEFAULTS,
          *, record_buffers: bool = False,
          sample_counts: Sequence[int] = (),
          progress=None, workers: int = 1,
          harness: Optional[HarnessConfig] = None,
          experiment: str = "sweep") -> CaseList:
    """Run every protocol over the whole ensemble (seeds base..base+trees-1).

    ``progress`` is an optional callable ``(done, total)`` invoked after each
    tree — the CLI uses it for a live counter.  ``workers > 1`` fans the
    (embarrassingly parallel, per-tree-seeded) ensemble out over a
    supervised process pool; results are returned in seed order either way,
    so parallel and serial sweeps are bit-identical.

    ``harness`` opts into crash safety (checkpoint/resume, per-seed retry,
    structured failures — see :mod:`repro.harness`); ``experiment`` names
    the checkpoint journal.  Without a harness any worker error propagates
    immediately, as before.
    """
    labels = [c.label for c in configs]
    if len(set(labels)) != len(labels):
        raise ExperimentError(f"duplicate protocol labels in sweep: {labels}")
    seeds = [scale.base_seed + i for i in range(scale.trees)]

    from functools import partial

    from ..harness.runner import run_seeds

    worker_fn = partial(_run_case_for_pool, params=params,
                        configs=tuple(configs), scale=scale,
                        record_buffers=record_buffers,
                        sample_counts=tuple(sample_counts))
    outcome = run_seeds(
        worker_fn, seeds,
        experiment=experiment,
        # Per-seed results depend on the generator, protocols, application
        # size, and threshold — not on the ensemble size, base seed, or
        # ``scale.warp`` (warped results are identical by contract, so
        # warped and exact sweeps share checkpoints).
        # ``scale.telemetry`` is included: snapshots live inside the
        # journalled outcomes, so probe-on and probe-off sweeps must not
        # share checkpoints the way warped and exact sweeps do.
        # ``scale.topology`` / ``scale.workload`` join only when
        # non-default so pre-existing tree-sweep journals keep their
        # checkpoint digests.
        config_parts=(params, tuple(configs), scale.tasks,
                      scale.threshold, bool(record_buffers),
                      tuple(sample_counts), scale.telemetry)
        + ((scale.topology,) if scale.topology != "tree" else ())
        + ((scale.workload,) if scale.workload is not None else ()),
        harness=harness, workers=workers, progress=progress,
        meta={"scale": {"trees": scale.trees, "tasks": scale.tasks,
                        "base_seed": scale.base_seed,
                        "threshold": scale.threshold}})
    cases = CaseList(outcome.values)
    cases.coverage = outcome.coverage if harness is not None else None
    return cases


def _run_case_for_pool(seed: int, *, params, configs, scale,
                       record_buffers, sample_counts) -> TreeCase:
    """Module-level wrapper so :func:`sweep` workers can be pickled."""
    return run_case(seed, params, list(configs), scale,
                    record_buffers=record_buffers,
                    sample_counts=list(sample_counts))
