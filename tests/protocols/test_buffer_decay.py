"""Tests for buffer decay (§2.2's "optimally, buffer decay" — implemented).

Decay sheds buffers a node grew but no longer needs: after a configurable
streak of completions/forwards during which the node was never starved, the
next freed buffer is destroyed instead of re-requested.
"""

from fractions import Fraction

import pytest

from repro import simulate
from repro.errors import ProtocolError
from repro.platform import Mutation, MutationSchedule, figure2a_tree, generate_tree
from repro.platform.generator import TreeGeneratorParams
from repro.protocols import ProtocolConfig, ProtocolEngine
from repro.steady_state import solve_tree

DECAYING = ProtocolConfig.non_interruptible(buffer_decay=True)


class TestConfig:
    def test_decay_requires_growth(self):
        with pytest.raises(ProtocolError):
            ProtocolConfig.non_interruptible(buffer_growth=False,
                                             buffer_decay=True)

    def test_threshold_validated(self):
        with pytest.raises(ProtocolError):
            ProtocolConfig.non_interruptible(buffer_decay=True,
                                             decay_threshold=0)

    def test_default_off(self):
        result = simulate(figure2a_tree(), 200,
                          ProtocolConfig.non_interruptible())
        assert result.buffers_decayed == 0


class TestDecayBehaviour:
    def test_decay_sheds_buffers(self):
        base = simulate(figure2a_tree(), 2000,
                        ProtocolConfig.non_interruptible())
        decayed = simulate(figure2a_tree(), 2000, DECAYING)
        assert decayed.buffers_decayed > 0
        assert decayed.max_buffers <= base.max_buffers

    def test_pool_never_below_initial(self):
        engine = ProtocolEngine(figure2a_tree(), DECAYING, 1000)
        result = engine.run()
        for node in engine.nodes:
            if not node.is_root:
                assert node.buffers_total >= 1

    def test_ledger_invariant_with_decay(self, watch_calendar):
        engine = ProtocolEngine(figure2a_tree(), DECAYING, 500)

        def check(time, item):
            for node in engine.nodes:
                if not node.is_root:
                    assert node.buffers_total == (
                        node.tasks_held + node.requested + node.incoming)

        watch_calendar(engine.env, check)
        engine.run()

    def test_rate_preserved_under_decay(self):
        """Decay must not cost steady-state throughput on Figure 2(a)."""
        tree = figure2a_tree()
        optimal = solve_tree(tree).rate
        result = simulate(tree, 3000, DECAYING)
        times = result.completion_times
        x = 1000
        rate = Fraction(x, times[2 * x - 1] - times[x - 1])
        assert rate / optimal > Fraction(99, 100)

    def test_decay_on_random_trees_conserves_tasks(self):
        params = TreeGeneratorParams(min_nodes=10, max_nodes=40)
        for seed in (1, 5, 9):
            tree = generate_tree(params, seed=seed)
            result = simulate(tree, 300, DECAYING)
            assert sum(result.per_node_computed) == 300

    def test_higher_threshold_decays_less(self):
        eager = simulate(figure2a_tree(),
                         2000, ProtocolConfig.non_interruptible(
                             buffer_decay=True, decay_threshold=2))
        lazy = simulate(figure2a_tree(),
                        2000, ProtocolConfig.non_interruptible(
                            buffer_decay=True, decay_threshold=50))
        assert eager.buffers_decayed >= lazy.buffers_decayed


class TestDecayAfterContentionPasses:
    def test_pool_shrinks_when_slow_phase_ends(self):
        """Grow during a slow-link phase, shed once the link recovers.

        Child C's edge starts expensive (forcing B to stockpile), then
        becomes cheap at task 500: B's surplus buffers should decay.
        """
        tree = figure2a_tree()
        tree.set_edge_cost(2, 40)  # long C sends → B needs a deep stock
        schedule = MutationSchedule([
            Mutation(node=2, attribute="c", value=2, after_tasks=500)])
        engine = ProtocolEngine(tree, DECAYING, 4000, mutations=schedule)
        result = engine.run()
        node_b = engine.nodes[1]
        assert result.per_node_max_buffers[1] > 3  # grew during contention
        assert node_b.buffers_decayed > 0          # shed afterwards
        assert node_b.buffers_total < result.per_node_max_buffers[1]
