"""Analysis of user-supplied platforms: the library as a planning tool.

``python -m repro analyze --tree platform.json`` reports everything the
theory knows about a platform (optimal rate, per-node allocation,
bottleneck classification, best upgrades); ``python -m repro simulate
--tree platform.json --protocol ic3 --tasks 5000`` runs an autonomous
protocol on it and compares achieved throughput against the optimum.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Dict, Optional

from ..api import simulate
from ..apps import Application
from ..errors import ExperimentError
from ..metrics import detect_onset, phase_breakdown, window_rate
from ..platform import PlatformGraph, PlatformTree, from_json
from ..protocols import ProtocolConfig, Tracer, topology_overlay
from ..telemetry.config import TelemetryConfig
from ..steady_state import (
    allocate,
    classify_bottlenecks,
    solve_tree,
    top_improvements,
)
from .reporting import fmt_num, fmt_opt, format_table

__all__ = ["PROTOCOL_PRESETS", "load_tree", "analyze_tree",
           "simulation_report"]

#: Named protocol presets accepted by the CLI.
PROTOCOL_PRESETS: Dict[str, ProtocolConfig] = {
    "ic1": ProtocolConfig.interruptible(1),
    "ic2": ProtocolConfig.interruptible(2),
    "ic3": ProtocolConfig.interruptible(3),
    "non-ic": ProtocolConfig.non_interruptible(),
    "non-ic-decay": ProtocolConfig.non_interruptible(buffer_decay=True),
    "non-ic-fb3": ProtocolConfig.non_interruptible(3, buffer_growth=False),
}


def load_tree(path: str):
    """Read a platform from a JSON file (see :mod:`repro.platform.serialize`).

    Returns a :class:`PlatformTree` or, for ``"kind": "graph"`` documents,
    a :class:`PlatformGraph`; both CLI subcommands accept either.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ExperimentError(f"cannot read platform file {path!r}: {exc}") from exc
    return from_json(text)


def _as_overlay_tree(platform):
    """``(overlay or None, tree the theory runs on)`` for either platform
    kind.  Graphs analyze/simulate through their shape's protocol overlay;
    the steady-state numbers are then exact for contention-free shapes and
    an upper bound where flows share links."""
    if isinstance(platform, PlatformGraph):
        overlay = topology_overlay(platform)
        return overlay, overlay.tree
    return None, platform


def analyze_tree(platform) -> str:
    """Full theoretical report for one platform (tree or graph)."""
    overlay, tree = _as_overlay_tree(platform)
    solution = solve_tree(tree)
    allocation = allocate(tree, solution)
    bottlenecks = {b.node: b for b in classify_bottlenecks(tree, solution)}

    rows = []
    for node_id in range(tree.num_nodes):
        parent = tree.parent[node_id]
        rate = allocation.compute_rates[node_id]
        rows.append([
            f"P{node_id}",
            tree.w[node_id],
            tree.c[node_id] if parent is not None else "-",
            fmt_num(float(rate), 4) if rate > 0 else "starved",
            fmt_num(float(allocation.inflow_rates[node_id]), 4),
            bottlenecks[node_id].kind,
        ])
    node_table = format_table(
        ["node", "w", "c", "compute rate", "subtree inflow", "bottleneck"],
        rows, title=f"Platform analysis — {tree.num_nodes} nodes, "
                    f"optimal rate {float(solution.rate):.5f} tasks/step "
                    f"(w_tree = {solution.w_tree})")

    upgrades = top_improvements(tree, k=min(5, 2 * tree.num_nodes - 1))
    upgrade_rows = [[
        f"{'CPU' if e.attribute == 'w' else 'link'} of P{e.node}",
        fmt_num(float(e.new_value), 3),
        fmt_num(float(e.rate_delta), 6),
    ] for e in upgrades]
    upgrade_table = format_table(
        ["10% upgrade of", "new weight", "rate gain"],
        upgrade_rows, title="Best single-resource upgrades")

    report = node_table + "\n\n" + upgrade_table
    if overlay is not None:
        kind = platform.meta.get("kind", "graph")
        header = (f"Graph platform ({kind}): {platform.num_nodes} nodes "
                  f"({len(platform.hosts)} hosts, "
                  f"{len(platform.switches)} switches), "
                  f"{platform.num_links} links, "
                  f"contention={platform.contention}.\n"
                  f"Analysis below is of the protocol overlay tree "
                  f"(P<i> = overlay node i, graph host "
                  f"{', '.join(str(h) for h in overlay.hosts)}); rates "
                  f"ignore shared-link contention.\n\n")
        report = header + report
    return report


def simulation_report(platform, protocol: str, tasks: int,
                      telemetry: Optional[TelemetryConfig] = None,
                      telemetry_out: Optional[str] = None, *,
                      apps: int = 1,
                      allocator: Optional[str] = None,
                      faults=None,
                      check_invariants: bool = False,
                      arrivals=None,
                      admission=None,
                      warp: bool = False) -> str:
    """Run a named protocol preset on the platform and report the outcome.

    With ``telemetry`` set the run carries probes and the report gains
    telemetry rows; ``telemetry_out`` additionally exports the run —
    Chrome trace-event JSON by default (a :class:`~repro.protocols.trace.
    Tracer` is attached so the trace has per-node activity lanes), JSONL
    or CSV by file extension.

    ``apps > 1`` splits the bag over that many concurrent applications
    (ascending priorities, ``allocator`` choosing the per-app bandwidth
    split) and adds per-app rate, Jain-index, and price-of-anarchy rows;
    trace exports then carry one Perfetto process group per application.

    ``faults`` is a :class:`~repro.platform.faults.FaultSchedule`, or an
    int seed for :func:`~repro.platform.faults.chaos_schedule` on this
    platform; the report gains crash/recovery rows (and, with multiple
    apps, pre/post-fault fairness).  ``check_invariants`` arms the task
    conservation checker at every fault delivery.

    ``arrivals`` switches the run to service mode: tasks stream in from
    an arrival process (a spec string for
    :func:`~repro.service.parse_arrivals`, or a process object) gated by
    ``admission`` (spec string for
    :func:`~repro.service.parse_admission`, or a policy), and the report
    gains latency/drop SLO rows.

    ``warp`` turns on the steady-state warp; the report gains a ``warp``
    row with its outcome.
    """
    if protocol not in PROTOCOL_PRESETS:
        raise ExperimentError(
            f"unknown protocol {protocol!r}; choose from "
            f"{sorted(PROTOCOL_PRESETS)}")
    if admission is not None and arrivals is None:
        raise ExperimentError("--admission requires --arrivals")
    if arrivals is not None:
        if apps != 1:
            raise ExperimentError(
                "--arrivals streams a single open-loop application; it is "
                "incompatible with --apps")
        from ..service import parse_admission, parse_arrivals

        if isinstance(arrivals, str):
            arrivals = parse_arrivals(arrivals)
        if isinstance(admission, str):
            admission = parse_admission(admission)
    elif tasks < 2:
        raise ExperimentError(f"tasks must be >= 2, got {tasks}")
    if apps < 1:
        raise ExperimentError(f"apps must be >= 1, got {apps}")
    if apps == 1 and allocator is not None:
        raise ExperimentError(
            "--allocator selects the per-app bandwidth split; it needs "
            "--apps >= 2")
    config = PROTOCOL_PRESETS[protocol]
    if telemetry is not None:
        config = replace(config, telemetry=telemetry)
    if warp:
        config = replace(config, warp=True)
    if isinstance(faults, int):
        from ..platform.faults import chaos_schedule

        faults = chaos_schedule(platform, seed=faults)
    overlay, tree = _as_overlay_tree(platform)
    optimal = solve_tree(tree).rate

    if arrivals is not None:
        from ..apps import Workload

        workload = Workload(arrivals=arrivals, admission=admission)
    elif apps == 1:
        workload = tasks
    else:
        per_app = max(2, tasks // apps)
        workload = [Application(per_app, name=f"app{i}", priority=i)
                    for i in range(apps)]
        tasks = per_app * apps
    want_trace = bool(telemetry_out) and not (
        telemetry_out.endswith(".jsonl") or telemetry_out.endswith(".csv"))
    tracers = [Tracer() for _ in range(apps)] if want_trace else None
    result = simulate(platform, workload, config, allocator=allocator,
                      tracer=tracers, faults=faults,
                      check_invariants=check_invariants)

    if arrivals is not None:
        tasks = result.service.completed
    x = max(1, tasks // 3)
    steady = window_rate(result.completion_times, x)
    onset = detect_onset(result.completion_times, optimal)
    phases = phase_breakdown(result, optimal)

    # Contended fluid runs can finish at a non-integral (exact Fraction)
    # virtual time; render those as floats, keep integer steps exact.
    makespan = (result.makespan if isinstance(result.makespan, int)
                else fmt_num(float(result.makespan), 2))
    rows = [
        ["protocol", config.label],
        ["tasks", tasks if arrivals is None
         else f"{tasks} (streamed open-loop)"],
        ["makespan (steps)", makespan],
        ["optimal rate", fmt_num(float(optimal), 5)],
        ["steady-window rate", fmt_num(float(steady), 5)],
        ["normalized", fmt_num(float(steady / optimal), 4)],
        ["onset window", fmt_opt(onset, "never reached")],
        ["startup (steps)", fmt_opt(phases.startup)],
        ["wind-down (steps)", phases.wind_down],
        ["nodes used", f"{result.num_used_nodes}/{tree.num_nodes}"],
        ["max buffer pool", result.max_buffers],
        ["max buffers occupied", result.max_held],
        ["preemptions", result.preemptions],
    ]
    stats = result.service
    if stats is not None:
        rows.extend([
            ["arrivals", repr(arrivals)],
            ["admission", repr(admission) if admission is not None
             else "always admit"],
            ["offered / admitted / dropped",
             f"{stats.offered} / {stats.admitted} / {stats.dropped}"],
            ["drop rate", fmt_num(float(stats.drop_rate), 4)],
            ["latency p50 / p95 / p99",
             " / ".join(fmt_opt(q if q is None else fmt_num(q, 1))
                        for q in (stats.p50, stats.p95, stats.p99))],
            ["latency mean / max",
             f"{fmt_num(float(stats.latency_mean), 2)} / "
             f"{stats.latency_max}"],
            ["utilization (busy fraction)",
             fmt_num(float(stats.utilization), 4)],
            ["time in saturation", fmt_num(float(stats.saturation), 4)],
            ["pending high water", stats.pending_high_water],
        ])
    if faults is not None:
        rows.extend([
            ["fault events", len(faults)],
            ["crashed nodes",
             ", ".join(f"P{n}" for n in result.crashed_node_ids) or "-"],
            ["tasks re-executed", result.tasks_reexecuted],
            ["transfers wasted", result.transfers_wasted],
        ])
    if len(result.apps) > 1:
        rows.append(["applications", len(result.apps)])
        for app_result in result.apps:
            rows.append([f"{app_result.name} steady rate",
                         fmt_num(float(app_result.steady_rate), 5)])
        poa = result.price_of_anarchy
        rows.extend([
            ["Jain fairness index", fmt_num(result.jain_index, 4)],
            ["price of anarchy",
             fmt_num(poa, 4) if poa is not None else "-"],
        ])
        if faults is not None:
            from ..apps.metrics import fault_fairness

            pre, post = fault_fairness(
                [a.completion_times for a in result.apps],
                result.crash_times, result.reclaim_times, result.makespan)
            rows.extend([
                ["pre-fault fairness",
                 fmt_num(pre, 4) if pre is not None else "-"],
                ["post-recovery fairness",
                 fmt_num(post, 4) if post is not None else "-"],
            ])
    summary = result.warp
    if summary is not None:
        rows.append(["warp",
                     f"{'applied' if summary.applied else 'not applied'} "
                     f"({summary.reason}), {summary.fingerprints_taken} "
                     f"fingerprints taken, {summary.periods} periods "
                     f"skipped"])
    snapshot = result.telemetry
    if snapshot is not None:
        util = snapshot.utilization()
        rows.extend([
            ["telemetry samples", snapshot.samples],
            ["telemetry sample dt", snapshot.effective_dt],
            ["mean node utilization",
             fmt_num(sum(util) / len(util), 4) if util else "-"],
        ])
    text = format_table(["metric", "value"], rows,
                        title="Protocol simulation report")
    if telemetry_out:
        written = _export_run(telemetry_out, result, tracers, want_trace)
        text += f"\n[telemetry written to {telemetry_out} ({written} records)]"
    return text


def _export_run(telemetry_out: str, result, tracers, want_trace: bool) -> int:
    """Export one report run: per-app Perfetto process groups for
    multi-application trace exports, :func:`export_auto` otherwise."""
    from ..telemetry.export import export_auto, write_multi_app_trace

    if len(result.apps) > 1:
        if want_trace:
            entries = [(app_result.name, app_result.telemetry, tracer)
                       for app_result, tracer in zip(result.apps, tracers)]
            return write_multi_app_trace(telemetry_out, entries)
        snapshots = [a.telemetry for a in result.apps
                     if a.telemetry is not None]
        return export_auto(telemetry_out, snapshots)
    return export_auto(telemetry_out, result.telemetry or [],
                       tracer=tracers[0] if want_trace else None)

