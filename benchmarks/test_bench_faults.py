"""Ablation benchmark — abrupt failures and autonomous recovery.

Random trees suffer mid-run crashes of first-level nodes at increasing
crash rates.  A crash kills one node, losing what it buffered, computed
and had in flight; its subtree is cut off and finishes only what it
holds (one crash model on every path, see DESIGN.md).  The IC/FB=3
protocol must reclaim every lost task instance, finish the full
application, and converge to the *surviving* platform's optimal rate.
"""

from repro import simulate
from repro.experiments import ExperimentScale, ablation
from repro.experiments.reporting import format_table
from repro.metrics.faults import recovery_report
from repro.platform import CrashEvent, FaultSchedule
from repro.platform.generator import PAPER_DEFAULTS, generate_tree
from repro.protocols import ProtocolConfig


def test_bench_fault_recovery(benchmark, bench_scale, report):
    scale = ExperimentScale(trees=max(5, bench_scale.trees // 3),
                            tasks=bench_scale.tasks)
    result = benchmark.pedantic(
        lambda: ablation.fault_recovery(scale),
        rounds=1, iterations=1)
    report(ablation.format_fault_result(result))

    assert result.all_completed
    assert result.total_reexecuted > 0
    assert result.within_five_percent >= int(0.6 * len(result.efficiencies))


def _crash_rate_sweep(scale: ExperimentScale, crash_counts):
    """For each crash count, crash that many first-level nodes mid-run,
    cutting their subtrees off."""
    config = ProtocolConfig.interruptible(3)
    rows = []
    for crashes in crash_counts:
        efficiencies = []
        reexecuted = 0
        completed = True
        for i in range(scale.trees):
            tree = generate_tree(PAPER_DEFAULTS, seed=scale.base_seed + i)
            victims = tree.children[tree.root][:crashes]
            faults = FaultSchedule([
                CrashEvent(at_time=200 + 100 * k, node=victim)
                for k, victim in enumerate(victims)])
            result = simulate(tree, scale.tasks, config, faults=faults)
            completed &= sum(result.per_node_computed) == scale.tasks
            rep = recovery_report(result)
            if rep.post_recovery_efficiency is not None:
                efficiencies.append(rep.post_recovery_efficiency)
            reexecuted += rep.tasks_reexecuted
        mean_eff = (sum(efficiencies) / len(efficiencies)
                    if efficiencies else float("nan"))
        rows.append((crashes, completed, reexecuted, mean_eff))
    return rows


def test_bench_crash_rate_sweep(benchmark, bench_scale, report):
    scale = ExperimentScale(trees=max(5, bench_scale.trees // 5),
                            tasks=bench_scale.tasks)
    crash_counts = (0, 1, 2, 3)
    rows = benchmark.pedantic(
        lambda: _crash_rate_sweep(scale, crash_counts),
        rounds=1, iterations=1)
    report(format_table(
        ["crashed root children", "all completed", "tasks re-executed",
         "rate vs surviving optimal"],
        [[crashes, conserved, reexec, f"{eff:.3f}"]
         for crashes, conserved, reexec, eff in rows],
        title=(f"Crash-rate sweep (IC/FB=3, {scale.trees} trees, "
               f"{scale.tasks} tasks)")))

    for crashes, completed, reexecuted, mean_eff in rows:
        assert completed, f"lost tasks at {crashes} crashes"
        assert mean_eff > 0.75, f"rate collapsed at {crashes} crashes"
    # With no crashes nothing may be re-executed.
    assert rows[0][2] == 0
    # Heavier crash rates destroy (weakly) more work overall.
    assert rows[-1][2] >= rows[1][2] > 0
