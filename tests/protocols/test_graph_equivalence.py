"""Tree-vs-graph bit-identity: the graph engine's correctness anchor.

A tree expressed as a :class:`PlatformGraph` must produce the *same
fingerprint* as the tree engine — same makespan, same completion times,
same buffer high waters, same preemption counts.  Every link of a
tree-degenerate graph carries at most one flow (the single send port
serializes a parent's transfers), so contention never changes a rate,
no timer is rescheduled, and the event calendars coincide exactly.  The
generated-tree rows of that contract live in the golden table,
``tests/test_equivalence_table.py`` (``tree=graph/...``).
"""

import pytest

from repro import simulate
from repro.apps import MultiAppEngine
from repro.platform import PlatformGraph, PlatformTree, generate_platform
from repro.platform.generator import generate_tree
from repro.protocols import ProtocolConfig

CONFIGS = [
    ProtocolConfig.interruptible(3),
    ProtocolConfig.non_interruptible(),
    ProtocolConfig.non_interruptible(buffer_decay=True),
]
TASKS = 300


def _labels():
    return [c.label for c in CONFIGS]


class TestTreeBitIdentity:
    @pytest.mark.parametrize("config", CONFIGS, ids=_labels())
    def test_buffer_timeline_identical(self, config):
        tree = generate_tree(seed=5)
        want = simulate(tree, TASKS, config,
                        record_buffer_timeline=True).fingerprint()
        got = simulate(PlatformGraph.from_tree(tree), TASKS, config,
                       record_buffer_timeline=True).fingerprint()
        assert got == want

    def test_explicit_from_tree_embedding(self):
        tree = PlatformTree([4, 2, 6, 8, 3],
                            [(0, 1, 1), (0, 2, 3), (2, 3, 5), (2, 4, 2)])
        graph = PlatformGraph.from_tree(tree)
        config = ProtocolConfig.interruptible(2)
        want = simulate(tree, TASKS, config).fingerprint()
        got = simulate(graph, TASKS, config).fingerprint()
        assert got == want

    def test_no_rate_ever_changes_on_a_tree(self):
        tree = generate_tree(seed=3)
        engine = MultiAppEngine(tree, TASKS, ProtocolConfig.interruptible(3))
        engine.run()
        assert engine.contention.rate_changes == 0


class TestShapeDegeneracy:
    def test_star_graph_matches_fork_tree(self):
        leaves = [(1, 4), (5, 2), (3, 8), (2, 2)]
        config = ProtocolConfig.non_interruptible()
        want = simulate(PlatformTree.fork(2, leaves), TASKS,
                        config).fingerprint()
        got = simulate(PlatformGraph.star(2, leaves), TASKS,
                       config).fingerprint()
        assert got == want

    def test_chain_graph_matches_linear_chain_tree(self):
        weights, costs = [2, 3, 1, 4], [1, 2, 1]
        config = ProtocolConfig.interruptible(2)
        want = simulate(PlatformTree.linear_chain(weights, costs), TASKS,
                        config).fingerprint()
        got = simulate(PlatformGraph.chain(weights, costs), TASKS,
                       config).fingerprint()
        assert got == want


class TestContendedDeterminism:
    """Shared-link runs have no tree twin, but must still be reproducible."""

    def test_leafspine_repeat_runs_identical(self):
        graph = generate_platform("leafspine", seed=9)
        config = ProtocolConfig.interruptible(3)
        a = simulate(graph, 200, config).fingerprint()
        b = simulate(graph, 200, config).fingerprint()
        assert a == b

    def test_leafspine_actually_contends(self):
        graph = generate_platform("leafspine", seed=9)
        # The head-election overlay runs root→head and head→mate flows
        # concurrently over shared access links; the relay overlay would
        # degenerate to a one-level fork serialized by the root's port.
        engine = MultiAppEngine(graph, 200, ProtocolConfig.interruptible(3))
        engine.run()
        assert engine.contention.rate_changes > 0

    def test_fairshare_never_faster_than_maxmin(self):
        maxmin = generate_platform("leafspine", seed=4)
        fairshare = maxmin.copy()
        fairshare.contention = "fairshare"
        config = ProtocolConfig.interruptible(3)
        mm = simulate(maxmin, 200, config)
        fs = simulate(fairshare, 200, config)
        assert fs.makespan >= mm.makespan

    def test_warp_stands_down_on_graphs(self):
        from dataclasses import replace
        graph = generate_platform("leafspine", seed=9)
        config = replace(ProtocolConfig.interruptible(3), warp=True)
        result = simulate(graph, 200, config)
        assert result.warp.applied is False
        assert "contention" in result.warp.reason
        assert result.fingerprint() == simulate(
            graph, 200, ProtocolConfig.interruptible(3)).fingerprint()


class TestWorkerInvariance:
    def test_sweep_workers_bit_identical_on_graphs(self):
        # The PR 3 workers=1 == workers=N invariant extends to graph
        # topologies: max-min's deterministic tie-break keeps per-seed
        # results independent of pool scheduling.
        from repro.experiments.common import ExperimentScale, sweep

        scale = ExperimentScale(trees=4, tasks=120, topology="star")
        configs = [ProtocolConfig.interruptible(2)]
        serial = sweep(configs, scale, workers=1)
        pooled = sweep(configs, scale, workers=2)
        assert serial == pooled
