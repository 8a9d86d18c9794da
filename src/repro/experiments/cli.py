"""Command-line entry point: regenerate any table or figure of the paper.

Examples::

    python -m repro fig4 --trees 200 --tasks 2000
    python -m repro table2 --trees 50
    python -m repro fig7
    python -m repro all --trees 60 --tasks 1500 --out results.txt
    python -m repro fig4 --scale paper        # the full 25 000-tree run
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from ..harness import HarnessConfig
from .common import ExperimentScale
from . import ablation, fig3, fig4, fig5, fig6, fig7, table1, table2

__all__ = ["main", "build_parser", "resolve_harness", "ExperimentSpec",
           "EXPERIMENTS"]


@contextmanager
def _profiled(enabled: bool):
    """cProfile the enclosed block; top 25 by cumulative time to stderr."""
    if not enabled:
        yield
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)


def _progress(label: str):
    def update(done: int, total: int) -> None:
        sys.stderr.write(f"\r{label}: {done}/{total}")
        sys.stderr.flush()
        if done == total:
            sys.stderr.write("\n")

    return update


def _collect_snapshots(result):
    """Telemetry snapshots of an experiment result, in (seed, label) order.

    Every ensemble experiment keeps its :class:`~repro.experiments.common.
    CaseList` on ``result.cases``; snapshots only exist when the sweep ran
    with ``scale.telemetry``.  The order is deterministic, so fresh and
    resumed sweeps aggregate (and export) identically.
    """
    cases = getattr(result, "cases", None)
    if cases is None:
        return []
    snapshots = []
    for case in cases:
        for label in sorted(case.outcomes):
            snapshot = case.outcomes[label].telemetry
            if snapshot is not None:
                snapshots.append(snapshot)
    return snapshots


@dataclass(frozen=True)
class ExperimentSpec:
    """One CLI subcommand, declaratively.

    Every experiment entry point shares the unified signature
    ``run(scale, *, progress=None, workers=1)``, so the whole CLI table is
    data: a runner, a formatter, and (optionally) the name of a
    ``repro.viz`` renderer.  Calling a spec returns ``(report text, svg
    text or None)``; the viz module is only imported when ``svg=True``.
    """

    name: str
    run: Callable
    format: Callable[[object], str]
    svg_renderer: Optional[str] = None

    def __call__(self, scale: ExperimentScale, workers: int = 1,
                 svg: bool = False,
                 harness: Optional[HarnessConfig] = None,
                 telemetry_out: Optional[str] = None):
        result = self.run(scale, progress=_progress(self.name),
                          workers=workers, harness=harness)
        coverage = getattr(result, "coverage", None)
        if coverage is not None:
            # stderr, so resumed and fresh runs produce byte-identical
            # stdout reports.
            sys.stderr.write(f"{self.name}: {coverage.summary()}\n")
        text = self.format(result)
        snapshots = _collect_snapshots(result)
        if snapshots:
            from ..telemetry import (aggregate_snapshots,
                                     format_telemetry_summary)

            summary = format_telemetry_summary(
                aggregate_snapshots(snapshots))
            text += (f"\n\nTelemetry ensemble summary "
                     f"({len(snapshots)} runs)\n{summary}")
            if telemetry_out:
                from ..telemetry.export import export_auto

                written = export_auto(telemetry_out, snapshots)
                text += (f"\n[telemetry written to {telemetry_out} "
                         f"({written} records)]")
        if not svg or self.svg_renderer is None:
            return text, None
        from .. import viz

        return text, getattr(viz, self.svg_renderer)(result)


#: name → :class:`ExperimentSpec`; call as ``EXPERIMENTS[name](scale,
#: workers=..., svg=...)`` → ``(report text, svg text or None)``.
EXPERIMENTS: Dict[str, ExperimentSpec] = {spec.name: spec for spec in (
    ExperimentSpec("fig3", fig3.run, fig3.format_result, "fig3_svg"),
    ExperimentSpec("fig4", fig4.run, fig4.format_result, "fig4_svg"),
    ExperimentSpec("fig5", fig5.run, fig5.format_result, "fig5_svg"),
    ExperimentSpec("fig6", fig6.run, fig6.format_result, "fig6_svg"),
    ExperimentSpec("fig7", fig7.run, fig7.format_result, "fig7_svg"),
    ExperimentSpec("table1", table1.run, table1.format_result),
    ExperimentSpec("table2", table2.run, table2.format_result),
    ExperimentSpec("priorities", ablation.priority_rules,
                   ablation.format_priority_result),
    ExperimentSpec("overlays", ablation.overlay_strategies,
                   ablation.format_overlay_result),
    ExperimentSpec("decay", ablation.buffer_decay_ablation,
                   ablation.format_decay_result),
    ExperimentSpec("churn", ablation.churn_resilience,
                   ablation.format_churn_result),
    ExperimentSpec("faults", ablation.fault_recovery,
                   ablation.format_fault_result),
    ExperimentSpec("apps", ablation.multi_app,
                   ablation.format_multi_app_result),
)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the IPDPS'03 "
                    "bandwidth-centric scheduling paper.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all", "analyze",
                                       "simulate"],
                        help="table/figure to regenerate, or "
                             "'analyze'/'simulate' for a --tree file")
    parser.add_argument("--tree", type=str, default=None, metavar="FILE",
                        help="platform JSON (required for analyze/simulate)")
    parser.add_argument("--protocol", type=str, default="ic3",
                        help="protocol preset for 'simulate' "
                             "(ic1/ic2/ic3/non-ic/non-ic-decay/non-ic-fb3)")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size for ensemble experiments")
    parser.add_argument("--trees", type=int, default=None,
                        help="ensemble size (default: 150)")
    parser.add_argument("--tasks", type=int, default=None,
                        help="tasks per application (default: 2000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for the ensemble (default: 0)")
    parser.add_argument("--threshold", type=int, default=None,
                        help="onset threshold window (default: scaled from "
                             "the paper's 300)")
    parser.add_argument("--scale", choices=["default", "smoke", "paper"],
                        default="default",
                        help="preset scale; --trees/--tasks override it")
    parser.add_argument("--topology",
                        choices=["tree", "star", "chain", "leafspine"],
                        default="tree",
                        help="platform shape per seed: the paper's random "
                             "trees (default) or star / chain / leaf-spine "
                             "graph platforms run through the contention-"
                             "aware graph engine with the shape's protocol "
                             "adaptation")
    parser.add_argument("--apps", type=int, default=None, metavar="N",
                        help="concurrent applications sharing each "
                             "platform, for the 'apps' ablation (default "
                             "2) and 'simulate' (default 1); the bag is "
                             "split evenly with ascending priorities")
    parser.add_argument("--allocator", action="append", default=None,
                        choices=["selfish", "maxmin", "fairshare"],
                        help="per-app bandwidth allocator; repeatable for "
                             "the 'apps' ablation (default: selfish and "
                             "maxmin), single-valued for 'simulate'")
    parser.add_argument("--arrivals", type=str, default=None, metavar="SPEC",
                        help="run 'simulate' open-loop: stream tasks from "
                             "an arrival process instead of a finite bag "
                             "(poisson:rate=R,horizon=H | burst:... | "
                             "diurnal:rates=a/b/c,phase=P,horizon=H | "
                             "periodic:interval=I,horizon=H); the report "
                             "gains latency/drop SLO rows")
    parser.add_argument("--admission", type=str, default=None, metavar="SPEC",
                        help="admission policy for --arrivals (always | "
                             "queue:limit=N | token:rate=R,burst=B; "
                             "default: admit everything)")
    parser.add_argument("--faults", type=int, default=None, metavar="SEED",
                        help="inject a seeded chaos fault schedule "
                             "(crashes, link failures/repairs, degrades) "
                             "into 'simulate'; graph platforms get the "
                             "routed edge/switch events")
    parser.add_argument("--check-invariants", action="store_true",
                        help="assert task conservation after every fault "
                             "delivery and loss reclamation ('simulate' "
                             "with --faults)")
    parser.add_argument("--warp", action="store_true",
                        help="enable steady-state warp: fast-forward the "
                             "periodic middle of each run (results are "
                             "identical to exact simulation)")
    parser.add_argument("--telemetry", action="store_true",
                        help="attach telemetry probes to ensemble sweeps "
                             "(fig4/fig5/fig6/table1/table2: reports gain "
                             "an aggregate summary) and to 'simulate' "
                             "(utilization rows); probes are read-only — "
                             "results are unchanged")
    parser.add_argument("--telemetry-out", type=str, default=None,
                        metavar="FILE",
                        help="export telemetry (implies --telemetry): "
                             ".jsonl per-run snapshots, .csv global "
                             "series, anything else Chrome trace-event "
                             "JSON for Perfetto / chrome://tracing")
    parser.add_argument("--telemetry-sample-dt", type=int, default=None,
                        metavar="N",
                        help="telemetry sampling period in virtual "
                             "timesteps (default: 200 for ensembles, "
                             "50 for 'simulate')")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top 25 "
                             "functions by cumulative time to stderr "
                             "(forces --workers 1)")
    parser.add_argument("--checkpoint-dir", type=str, default=None,
                        metavar="DIR",
                        help="journal per-seed results into DIR so an "
                             "interrupted sweep can be resumed")
    parser.add_argument("--resume", action="store_true",
                        help="replay the journal in --checkpoint-dir and "
                             "run only the missing seeds")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="retries per seed after a crash/timeout "
                             "(default: 2)")
    parser.add_argument("--seed-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock watchdog per seed; overdue seeds "
                             "are killed and retried")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    parser.add_argument("--svg", type=str, default=None, metavar="DIR",
                        help="also render figures as SVG into this directory")
    return parser


def resolve_scale(args: argparse.Namespace) -> ExperimentScale:
    presets = {
        "default": ExperimentScale(),
        "smoke": ExperimentScale.smoke(),
        "paper": ExperimentScale.paper(),
    }
    scale = presets[args.scale]
    if args.trees is not None:
        scale = scale.with_trees(args.trees)
    if args.tasks is not None:
        scale = scale.with_tasks(args.tasks)
    if args.seed:
        scale = replace(scale, base_seed=args.seed)
    if args.threshold is not None:
        scale = replace(scale, threshold_window=args.threshold)
    if getattr(args, "warp", False):
        scale = replace(scale, warp=True)
    if getattr(args, "topology", "tree") != "tree":
        scale = replace(scale, topology=args.topology)
    telemetry = resolve_telemetry(args)
    if telemetry is not None:
        scale = replace(scale, telemetry=telemetry)
    return scale


def resolve_telemetry(args: argparse.Namespace):
    """The run's :class:`~repro.telemetry.config.TelemetryConfig`, or
    ``None`` when neither ``--telemetry`` nor ``--telemetry-out`` was
    given.  Ensemble sweeps get the sampling-only default — the exact
    event tap is per-run detail that ensemble aggregation never reads."""
    if not (getattr(args, "telemetry", False)
            or getattr(args, "telemetry_out", None)):
        return None
    from ..telemetry.config import TelemetryConfig

    sample_dt = getattr(args, "telemetry_sample_dt", None)
    if sample_dt is None:
        return TelemetryConfig()
    return TelemetryConfig(sample_dt=sample_dt)


def resolve_harness(args: argparse.Namespace) -> HarnessConfig:
    """Build the crash-safety config from CLI flags.

    The CLI always runs under a harness, so worker deaths are retried
    rather than aborting a long sweep; checkpointing only engages when
    ``--checkpoint-dir`` is given.
    """
    return HarnessConfig(
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        max_retries=args.max_retries,
        seed_timeout=args.seed_timeout,
    )


def _run_tree_command(args) -> str:
    from .analyze import analyze_tree, load_tree, simulation_report

    if args.tree:
        tree = load_tree(args.tree)
    elif getattr(args, "topology", "tree") != "tree":
        # No file needed for the generated graph shapes: --topology
        # picks the generator, --seed the instance.
        from ..platform.graph import generate_platform

        tree = generate_platform(args.topology, seed=args.seed)
    else:
        raise SystemExit(
            f"'{args.experiment}' requires --tree FILE (or --topology "
            f"star/chain/leafspine to generate a platform)")
    if args.experiment == "analyze":
        return analyze_tree(tree)
    tasks = args.tasks if args.tasks is not None else 2000
    telemetry = None
    if getattr(args, "telemetry", False) or getattr(args, "telemetry_out",
                                                    None):
        # Single-run inspection wants the full picture: per-node series
        # plus the exact event tap (the Perfetto counter tracks and the
        # utilization cross-check both come from these), sampled finer
        # than the ensemble default.
        from ..telemetry.config import TelemetryConfig

        sample_dt = getattr(args, "telemetry_sample_dt", None)
        telemetry = (TelemetryConfig.tracing() if sample_dt is None
                     else TelemetryConfig.tracing(sample_dt=sample_dt))
    allocators = getattr(args, "allocator", None)
    if allocators and len(allocators) > 1:
        raise SystemExit("'simulate' takes a single --allocator")
    return simulation_report(
        tree, args.protocol, tasks, telemetry=telemetry,
        telemetry_out=getattr(args, "telemetry_out", None),
        apps=args.apps if args.apps is not None else 1,
        allocator=allocators[0] if allocators else None,
        faults=getattr(args, "faults", None),
        check_invariants=getattr(args, "check_invariants", False),
        arrivals=getattr(args, "arrivals", None),
        admission=getattr(args, "admission", None),
        warp=getattr(args, "warp", False))


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment in ("analyze", "simulate"):
        # Single-run commands profile too: ``simulate --topology
        # leafspine --profile`` is the first place to look when the
        # contention kernel shows up hot.
        with _profiled(args.profile):
            text = _run_tree_command(args)
        print(text)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        return 0
    scale = resolve_scale(args)
    harness = resolve_harness(args)
    workers = args.workers
    if args.profile and workers != 1:
        # cProfile only sees the calling process; pool workers would hide
        # the very frames being profiled.
        sys.stderr.write("--profile forces --workers 1\n")
        workers = 1
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    experiments = dict(EXPERIMENTS)
    if args.apps is not None or args.allocator:
        # --apps / --allocator parameterize the multi-app ablation; every
        # other ensemble experiment is single-application by design.
        from functools import partial

        spec = experiments["apps"]
        experiments["apps"] = replace(spec, run=partial(
            spec.run,
            apps=args.apps if args.apps is not None else 2,
            allocators=tuple(args.allocator) if args.allocator
            else ("selfish", "maxmin")))
    reports = []
    for name in names:
        start = time.time()
        with _profiled(args.profile):
            report, svg_text = experiments[name](
                scale, workers=workers, svg=args.svg is not None,
                harness=harness, telemetry_out=args.telemetry_out)
        elapsed = time.time() - start
        if args.svg and svg_text is not None:
            import os

            os.makedirs(args.svg, exist_ok=True)
            svg_path = os.path.join(args.svg, f"{name}.svg")
            with open(svg_path, "w") as handle:
                handle.write(svg_text)
            report += f"\n[figure written to {svg_path}]"
        reports.append(f"{report}\n\n[{name} completed in {elapsed:.1f}s]")
    text = ("\n\n" + "#" * 72 + "\n\n").join(reports)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
