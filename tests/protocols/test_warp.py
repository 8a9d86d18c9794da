"""Steady-state warp: exactness contract, guards, and memory gating.

The warp's whole value rests on one promise: a warped run and its exact
twin produce identical :meth:`SimulationResult.fingerprint`\\ s — same
completion times, same per-node tallies, same makespan — just faster.  The
property test here hammers that promise across random trees, both protocol
variants, and several buffer counts; the rest pins the guard rails (warp
must stand down under faults, mutations, churn, and tracing) and the
``record_completion_times`` memory gate.
"""

import random

from dataclasses import replace
from fractions import Fraction

import pytest

from repro import simulate
from repro.experiments.fig4 import FIG4_CONFIGS
from repro.metrics import node_utilization, steady_state_rate
from repro.platform.examples import figure2a_tree
from repro.platform.faults import CrashEvent, FaultSchedule
from repro.platform.generator import (PAPER_DEFAULTS, TreeGeneratorParams,
                                      generate_tree)
from repro.platform.mutation import Mutation, MutationSchedule
from repro.platform.tree import PlatformTree
from repro.protocols import ProtocolConfig, Tracer
from repro.protocols.engine import ProtocolEngine
from repro.sim import warp as warp_module
from repro.sim.warp import LEDGER_CAP, FAR_HORIZON, WarpSummary
from repro.steady_state import solve_tree

IC3 = ProtocolConfig.interruptible(3)
IC3_WARP = ProtocolConfig.interruptible(3, warp=True)


def _random_case(rng, index):
    """One (tree, config, num_tasks) triple for the property test."""
    params = TreeGeneratorParams(
        min_nodes=rng.randint(3, 10),
        max_nodes=rng.randint(10, 35),
        max_comm=rng.choice([2, 4, 8]),
        max_comp=rng.choice([4, 8, 16]),
        comp_divisor=rng.choice([1, 4, 16]),
    )
    tree = generate_tree(params, seed=10_000 + index)
    buffers = rng.randint(1, 4)
    if rng.random() < 0.5:
        config = ProtocolConfig.interruptible(buffers)
    else:
        config = ProtocolConfig.non_interruptible(min(buffers, 3))
    return tree, config, rng.choice([200, 500, 1200])


class TestWarpedEqualsExact:
    def test_property_fingerprints_identical(self):
        """Warped and exact runs agree bit-for-bit on >= 200 random cases.

        Also checks the warp is not vacuous: with short-period trees it
        must actually engage on a meaningful fraction of the ensemble
        (otherwise this test would pass with the warp hook disconnected).
        """
        rng = random.Random(0xBADC0DE)
        applied = 0
        total = 220
        for index in range(total):
            tree, config, tasks = _random_case(rng, index)
            exact = simulate(tree, tasks, config)
            warped = simulate(tree, tasks, replace(config, warp=True))
            assert exact.fingerprint() == warped.fingerprint(), (
                f"warp diverged: case {index}, {config.label}, "
                f"{tree.num_nodes} nodes, {tasks} tasks: {warped.warp}")
            assert warped.warp is not None
            if warped.warp.applied:
                applied += 1
                assert warped.warp.tasks_skipped == (
                    warped.warp.periods * warped.warp.period_tasks)
                # Theorem 1 referees the warp: a period's rate k/T is a
                # schedule's steady rate, so it cannot beat the optimum.
                assert Fraction(warped.warp.period_tasks,
                                warped.warp.period_time) <= (
                    solve_tree(tree).rate), f"case {index}: {warped.warp}"
        assert applied >= total // 5, (
            f"warp engaged on only {applied}/{total} short-period cases")

    def test_figure2a_long_run_warps(self):
        exact = simulate(figure2a_tree(), 5000, IC3)
        warped = simulate(figure2a_tree(), 5000, IC3_WARP)
        assert exact.fingerprint() == warped.fingerprint()
        summary = warped.warp
        assert summary.applied
        assert summary.periods > 0
        assert summary.period_tasks > 0
        assert summary.events_skipped > 0
        # The root's effectively-infinite compute sentinel is a far timer;
        # detection must survive it (this run is the regression witness for
        # the far-horizon split).
        assert figure2a_tree().w[0] > FAR_HORIZON
        assert warped.makespan == exact.makespan

    def test_fractional_weights_warp_exactly(self):
        # Non-integer times take the generic timeline replay.
        tree = PlatformTree(
            [Fraction(7, 2), Fraction(3, 2), 2, Fraction(5, 3)],
            [(0, 1, Fraction(1, 2)), (0, 2, 1), (1, 3, Fraction(2, 3))])
        exact = simulate(tree, 3000, IC3)
        warped = simulate(tree, 3000, IC3_WARP)
        assert warped.warp.applied
        assert type(warped.warp.period_time) is Fraction
        assert warped.fingerprint() == exact.fingerprint()

    def test_warp_off_by_default_leaves_no_summary(self):
        result = simulate(figure2a_tree(), 300, IC3)
        assert result.warp is None

    def test_no_recurrence_reports_reason(self):
        # non-IC with unbounded growth on this tree adds a buffer every
        # period forever — the state genuinely never recurs, and the warp
        # must degrade to exact simulation with a reason, not guess.
        config = ProtocolConfig.non_interruptible(warp=True)
        result = simulate(figure2a_tree(), 800, config)
        exact = simulate(figure2a_tree(),
                         800, ProtocolConfig.non_interruptible())
        assert result.warp is not None
        assert not result.warp.applied
        assert result.warp.reason
        assert result.warp.periods == 0
        assert result.fingerprint() == exact.fingerprint()

    def test_metrics_agree_between_warped_and_exact(self):
        exact = simulate(figure2a_tree(), 5000, IC3)
        warped = simulate(figure2a_tree(), 5000, IC3_WARP)
        assert list(node_utilization(warped)) == list(node_utilization(exact))
        rate = steady_state_rate(warped)
        assert rate == Fraction(warped.warp.period_tasks,
                                warped.warp.period_time)
        # The detected period's rate is a real throughput: within the
        # window-measured band of the exact run.
        assert rate > 0

    def test_far_transfer_leg_enters_the_outline(self, monkeypatch):
        """A transfer leg longer than ``FAR_HORIZON`` is a far timer with
        an argument, described by ``_canon_arg`` like any timer's.

        Under non-IC the root's port is held by the leg to node 2 for the
        whole run while the root alone keeps computing.  The outline
        leaves the leg's shrinking delta out but holds its elapsed time,
        so it never recurs and no sample reads an agent: the full state
        could not recur either, as the root's own view holds the elapsed
        time too.  The run must stay exact.
        """
        described = []
        canon = warp_module._canon_arg

        def spy(arg, now):
            described.append(arg)
            return canon(arg, now)

        monkeypatch.setattr(warp_module, "_canon_arg", spy)
        tree = PlatformTree([3, 2, 1], [(0, 1, 1), (0, 2, 2 * FAR_HORIZON)])
        config = ProtocolConfig.non_interruptible(1)
        exact = simulate(tree, 2000, config)
        warped = simulate(tree, 2000, replace(config, warp=True))
        assert warped.fingerprint() == exact.fingerprint()
        assert any(getattr(arg, "child", None) is not None
                   and arg.child.id == 2 for arg in described)
        assert warped.warp.full_fingerprints == 0
        assert not warped.warp.applied


class TestGuards:
    def test_faults_disable_warp(self):
        faults = FaultSchedule([CrashEvent(at_time=150, node=2)])
        warped = simulate(figure2a_tree(), 2000, IC3_WARP, faults=faults)
        exact = simulate(figure2a_tree(), 2000, IC3, faults=faults)
        assert not warped.warp.applied
        assert warped.warp.reason == "disabled: dynamic platform schedule active"
        assert warped.fingerprint() == exact.fingerprint()

    def test_mutations_disable_warp(self):
        sched = MutationSchedule([
            Mutation(node=1, attribute="c", value=3, after_tasks=200)])
        warped = simulate(figure2a_tree(), 2000, IC3_WARP, mutations=sched)
        exact = simulate(figure2a_tree(), 2000, IC3, mutations=sched)
        assert not warped.warp.applied
        assert warped.warp.reason == "disabled: dynamic platform schedule active"
        assert warped.fingerprint() == exact.fingerprint()

    def test_tracer_disables_warp(self):
        engine = ProtocolEngine(figure2a_tree(), IC3_WARP, 1000)
        engine.sinks.append(Tracer())
        result = engine.run()
        assert not result.warp.applied
        assert result.warp.reason == "disabled: tracing active"

    def test_ledger_cap_is_a_backstop(self):
        # Default-parameter trees have lcm-scale periods; the search must
        # give up cleanly instead of hoarding fingerprints forever.
        assert LEDGER_CAP >= 1024
        tree = generate_tree(
            TreeGeneratorParams(min_nodes=40, max_nodes=40), seed=7)
        warped = simulate(tree, 2000, IC3_WARP)
        exact = simulate(tree, 2000, IC3)
        assert warped.fingerprint() == exact.fingerprint()

    def test_summary_is_frozen(self):
        summary = WarpSummary(applied=False, reason="x")
        with pytest.raises(AttributeError):
            summary.applied = True


class TestSearchCost:
    """The period search is bounded by the run's own work, and bounding it
    moves neither the period found nor the warp applied."""

    @pytest.mark.parametrize("config, taken",
                             zip(FIG4_CONFIGS, (138, 123, 126, 128)),
                             ids=[config.label for config in FIG4_CONFIGS])
    def test_paper_tree_search_stays_cheap(self, config, taken):
        # A 2000-task run on a paper tree never recurs; a constant stride
        # schedule took 1,328-1,486 fingerprints here.  Its calendar never
        # comes round again either, so every sample stops at its outline;
        # each is still charged as a full fingerprint, so the same
        # completions are sampled as when every sample read every agent.
        tree = generate_tree(PAPER_DEFAULTS, seed=3)
        exact = simulate(tree, 2000, config)
        warped = simulate(tree, 2000, replace(config, warp=True))
        assert warped.fingerprint() == exact.fingerprint()
        assert not warped.warp.applied
        assert warped.warp.fingerprints_taken <= 300
        assert warped.warp.fingerprints_taken == taken
        assert warped.warp.full_fingerprints == 0

    def test_recurring_outline_alone_never_warps(self):
        # Here the outline (anchor, high-water marks, calendar) recurs
        # again and again, but the agents' state does not before the
        # repository runs out: the search reads full states and stays
        # exact.
        tree = generate_tree(TreeGeneratorParams(
            min_nodes=9, max_nodes=23, max_comm=2, max_comp=8,
            comp_divisor=1), seed=10_024)
        config = ProtocolConfig.non_interruptible(3)
        exact = simulate(tree, 500, config)
        warped = simulate(tree, 500, replace(config, warp=True))
        assert warped.fingerprint() == exact.fingerprint()
        assert warped.warp.full_fingerprints > 0
        assert not warped.warp.applied

    def test_million_task_warp_is_pinned(self):
        # A full state is read only once its outline recurred, so a state
        # first seen with a new outline enters the full-state ledger at
        # its second sighting and arms at its third.
        tree = generate_tree(TreeGeneratorParams(
            min_nodes=60, max_nodes=60, max_comm=8, max_comp=16,
            comp_divisor=16), seed=1)
        summary = simulate(tree, 1_000_000, IC3_WARP).warp
        assert summary.applied
        assert (summary.periods, summary.period_tasks,
                summary.warp_completed, summary.events_skipped) == (
                    199994, 5, 17, 2199934)

    def test_replayed_timeline_matches_exact(self):
        # The warped result computes the skipped periods' times from one
        # template period instead of storing them; over ~10k periods every
        # replayed time must equal, index by index, the exact run's.
        tree = generate_tree(TreeGeneratorParams(
            min_nodes=60, max_nodes=60, max_comm=8, max_comp=16,
            comp_divisor=16), seed=1)
        exact = simulate(tree, 50_000, IC3)
        warped = simulate(tree, 50_000, IC3_WARP)
        assert warped.warp.applied and warped.warp.period_tasks > 1
        assert warped.warp.periods > 2 * 4096
        assert warped.completion_times == exact.completion_times


class TestCompletionTimeGate:
    def test_streaming_aggregates_survive_without_timelines(self):
        full = simulate(figure2a_tree(), 1500, IC3)
        lean = simulate(figure2a_tree(), 1500, IC3,
                        record_completion_times=False)
        assert lean.completion_times == ()
        assert lean.makespan == full.makespan
        assert lean.last_completion_time == full.makespan
        assert lean.per_node_computed == full.per_node_computed
        assert lean.events_processed == full.events_processed

    def test_gate_composes_with_warp(self):
        full = simulate(figure2a_tree(), 1500, IC3_WARP)
        lean = simulate(figure2a_tree(), 1500, IC3_WARP,
                        record_completion_times=False)
        assert lean.warp.applied
        assert lean.completion_times == ()
        assert lean.makespan == full.makespan
        assert list(node_utilization(lean)) == list(node_utilization(full))
