"""Engine-level tests: exact timelines, conservation, determinism, results."""

import dataclasses
import gc
import hashlib
import pickle
import weakref
from array import array
from fractions import Fraction

import numpy
import pytest

from repro import simulate
from repro.apps import Application, MultiAppEngine
from repro.errors import ProtocolError
from repro.platform import (PlatformTree, figure1_tree, figure2a_tree,
                            generate_platform, generate_tree)
from repro.platform.generator import TreeGeneratorParams
from repro.protocols import ProtocolConfig, ProtocolEngine
from repro.protocols.result import update_repr
from repro.sim.events import FastFraction
from repro.sim.warp import PeriodicTimeline

IC3 = ProtocolConfig.interruptible(3)
SLOW = 10**9  # effectively-infinite compute time


class TestTrivialPlatforms:
    def test_zero_tasks(self):
        result = simulate(PlatformTree.single_node(5), 0, IC3)
        assert result.num_tasks == 0
        assert result.makespan == 0
        assert result.completion_times == ()
        assert result.mean_rate() == 0.0

    def test_negative_tasks_rejected(self):
        with pytest.raises(ProtocolError):
            simulate(PlatformTree.single_node(5), -1, IC3)

    def test_single_node_computes_serially(self):
        result = simulate(PlatformTree.single_node(5), 4, IC3)
        assert result.completion_times == (5, 10, 15, 20)
        assert result.per_node_computed == (4,)

    def test_root_and_one_child_exact_timeline(self):
        """Hand-traced: root w=2 and child (c=1, w=2), 4 tasks, IC/FB=1.

        t=0 root CPU takes task A; root sends task B (arrives t=1).
        t=1 child computes B (done t=3); child re-requests; root sends C
            (arrives t=2, buffered).
        t=2 root finishes A, takes the last task D (done t=4).
        t=3 child finishes B, starts buffered C (done t=5).
        """
        tree = PlatformTree.linear_chain([2, 2], [1])
        result = simulate(tree, 4, ProtocolConfig.interruptible(1))
        assert result.completion_times == (2, 3, 4, 5)
        assert result.per_node_computed == (2, 2)

    def test_pipeline_keeps_fast_child_busy(self):
        """Compute-less root feeding a fast child over a c=1 link: after the
        first arrival the child completes one task every w=1 steps."""
        tree = PlatformTree.linear_chain([SLOW, 1], [1])
        result = simulate(tree, 6, IC3)
        # Root CPU swallows one task forever; the other 5 flow to the child.
        child_times = result.completion_times[:5]
        assert child_times == (2, 3, 4, 5, 6)


class TestConservation:
    @pytest.mark.parametrize("config", [
        IC3,
        ProtocolConfig.interruptible(1),
        ProtocolConfig.non_interruptible(),
        ProtocolConfig.non_interruptible(2, buffer_growth=False),
    ], ids=lambda c: c.label)
    def test_all_tasks_complete_exactly_once(self, config):
        tree = generate_tree(TreeGeneratorParams(min_nodes=10, max_nodes=40),
                             seed=9)
        result = simulate(tree, 300, config)
        assert sum(result.per_node_computed) == 300
        assert len(result.completion_times) == 300

    def test_completion_times_nondecreasing(self):
        result = simulate(figure1_tree(), 500, IC3)
        times = result.completion_times
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_makespan_is_last_completion(self):
        result = simulate(figure1_tree(), 100, IC3)
        assert result.makespan == result.completion_times[-1]


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        tree = generate_tree(TreeGeneratorParams(min_nodes=10, max_nodes=60),
                             seed=4)
        a = simulate(tree, 400, IC3)
        b = simulate(tree, 400, IC3)
        assert a.completion_times == b.completion_times
        assert a.per_node_computed == b.per_node_computed
        assert a.preemptions == b.preemptions

    def test_caller_tree_never_mutated(self):
        tree = figure1_tree()
        snapshot = tree.copy()
        simulate(tree, 200, ProtocolConfig.non_interruptible())
        assert tree == snapshot


class TestEngineLifecycle:
    def test_engine_single_use(self):
        engine = ProtocolEngine(figure1_tree(), IC3, 10)
        engine.run()
        with pytest.raises(ProtocolError):
            engine.run()

    def test_result_metadata(self):
        result = simulate(figure1_tree(), 50, IC3)
        assert result.config is IC3
        assert result.events_processed > 0
        assert result.transfers > 0

    def test_buffer_timeline_recording(self):
        tree = figure2a_tree()
        result = simulate(tree, 200, ProtocolConfig.non_interruptible(),
                          record_buffer_timeline=True)
        timeline = result.buffer_high_water_at_completion
        assert len(timeline) == 200
        assert all(a <= b for a, b in zip(timeline, timeline[1:]))
        assert timeline[-1] == result.max_buffers

    def test_buffer_timeline_off_by_default(self):
        result = simulate(figure2a_tree(), 50,
                          ProtocolConfig.non_interruptible())
        assert result.buffer_high_water_at_completion == ()


class TestBufferBehaviour:
    def test_fixed_buffers_never_grow(self):
        result = simulate(figure2a_tree(), 300,
                          ProtocolConfig.interruptible(3))
        assert result.max_buffers == 3
        assert all(b == 3 for b in result.per_node_max_buffers)

    def test_growth_cap_respected(self):
        cfg = ProtocolConfig.non_interruptible(1, max_buffers=2)
        result = simulate(figure2a_tree(), 300, cfg)
        assert result.max_buffers <= 2

    def test_non_ic_growth_on_figure2a(self):
        """Growth must provide at least the 3 buffers Figure 2(a) demands."""
        result = simulate(figure2a_tree(), 500,
                          ProtocolConfig.non_interruptible())
        assert result.per_node_max_buffers[1] >= 3

    def test_root_never_grows(self):
        result = simulate(figure2a_tree(), 300,
                          ProtocolConfig.non_interruptible())
        assert result.per_node_max_buffers[0] == 1


class TestPreemption:
    def test_non_ic_never_preempts(self):
        result = simulate(figure2a_tree(), 300,
                          ProtocolConfig.non_interruptible())
        assert result.preemptions == 0

    def test_ic_preempts_on_figure2a(self):
        """B's requests must interrupt the long sends to C."""
        result = simulate(figure2a_tree(), 300,
                          ProtocolConfig.interruptible(1))
        assert result.preemptions > 0


class TestUsedSubtree:
    def test_used_nodes_match_theory_on_figure1(self):
        from repro.steady_state import allocate

        result = simulate(figure1_tree(), 2000, IC3)
        # Theory says P0, P1, P5 carry all the optimal flow; simulation may
        # touch a couple more during startup but the workhorses must be used.
        for node_id in allocate(figure1_tree()).used_nodes:
            assert node_id in result.used_node_ids

    def test_used_depth(self):
        result = simulate(figure1_tree(), 500, IC3)
        assert 0 < result.used_depth <= figure1_tree().max_depth

    def test_num_used_nodes(self):
        result = simulate(figure1_tree(), 500, IC3)
        assert result.num_used_nodes == len(result.used_node_ids)


class TestFinishedEngineRelease:
    """Once :func:`simulate` returns, refcounting alone frees the engine it
    built: a finished run is not left as cyclic garbage."""

    @pytest.fixture
    def engines(self, monkeypatch):
        """Weak references to every engine (and lane) a run builds."""
        refs = []
        for cls in (ProtocolEngine, MultiAppEngine):
            def run(self, _run=cls.run):
                refs.append(weakref.ref(self))
                refs.extend(weakref.ref(lane)
                            for lane in getattr(self, "lanes", ()))
                return _run(self)
            monkeypatch.setattr(cls, "run", run)
        return refs

    @pytest.mark.parametrize("workload, config", [
        (500, ProtocolConfig.interruptible(3, warp=True)),
        ([Application(tasks=200), Application(tasks=200)], IC3),
    ], ids=["tree-warp", "multi-app"])
    def test_engine_dies_with_collector_off(self, engines, workload,
                                            config):
        gc.collect()
        gc.disable()
        try:
            simulate(figure2a_tree(), workload, config)
            assert engines
            assert [ref() for ref in engines] == [None] * len(engines)
        finally:
            gc.enable()


class TestCompactTimelines:
    """An exact run records its int timelines in an ``array('q')`` and
    returns them as a :class:`PeriodicTimeline` with zero periods; any
    value the array cannot hold moves that timeline to a list."""

    def test_exact_int_run_packs_every_timeline(self):
        result = simulate(generate_tree(seed=3), 2000, IC3,
                          record_buffer_timeline=True)
        for timeline in (result.completion_times,
                         result.buffer_high_water_at_completion,
                         result.held_high_water_at_completion):
            assert type(timeline) is PeriodicTimeline
            assert type(timeline.head) is array and timeline.periods == 0
            assert len(timeline) == 2000

    def test_exact_int_run_equals_its_tuple(self):
        timeline = simulate(generate_tree(seed=3), 2000,
                            IC3).completion_times
        expected = tuple(timeline)
        assert all(type(t) is int for t in expected)
        assert timeline == expected and expected == timeline
        assert hash(timeline) == hash(expected)
        assert repr(timeline) == repr(expected)
        assert len(timeline) == len(expected) == 2000
        assert list(timeline) == list(expected)
        restored = pickle.loads(pickle.dumps(timeline))
        assert type(restored.head) is array and restored == expected
        assert len(pickle.dumps(timeline)) < 9 * 2000 + 200
        ours, theirs = hashlib.sha256(), hashlib.sha256()
        update_repr(ours, timeline)
        theirs.update(repr(expected).encode("utf-8"))
        assert ours.hexdigest() == theirs.hexdigest()

    def test_exact_int_run_indexes_like_its_tuple(self):
        timeline = simulate(generate_tree(seed=3), 2000,
                            IC3).completion_times
        expected = tuple(timeline)
        for i in (0, 1, 999, 1999, -1, -2, -2000):
            assert timeline[i] == expected[i] and type(timeline[i]) is int
        for i in (2000, -2001):
            with pytest.raises(IndexError):
                timeline[i]
        for cut in (slice(None), slice(5, 50, 3), slice(-10, None),
                    slice(None, None, -7), slice(1500, 10, -3),
                    slice(3000, 4000)):
            got = timeline[cut]
            assert type(got) is tuple and got == expected[cut]

    def test_contended_fractions_fall_back_with_unchanged_fingerprint(self):
        graph = generate_platform("leafspine", seed=7)
        result = simulate(graph, 300, IC3)
        timeline = result.completion_times
        assert type(timeline.head) is tuple
        assert any(type(t) is FastFraction for t in timeline)
        plain = dataclasses.replace(result, completion_times=tuple(timeline))
        assert result.fingerprint() == plain.fingerprint() == (
            "658f24b9f8e8da7b5d4ac0c8bf5138746979106890661483ecffaf9407a981bc")

    @pytest.mark.parametrize("value", [
        2**63, -2**63 - 1, True, 1.5, Fraction(3, 2), FastFraction(7, 2),
        numpy.int64(5)], ids=repr)
    def test_value_an_array_cannot_hold_moves_to_a_list(self, value):
        engine = ProtocolEngine(PlatformTree.single_node(5), IC3, 3,
                                record_buffer_timeline=True)
        for now in (1, value, 2):
            engine.env.now = now
            engine.buffer_high_water = now
            engine._on_completion(engine.nodes[0])
        for name in ("completion_times", "buffer_timeline"):
            assert type(getattr(engine, name)) is list
            timeline = engine._timeline(name)
            assert type(timeline.head) is tuple
            assert [type(t) for t in timeline] == [int, type(value), int]
            assert repr(timeline) == repr((1, value, 2))
        assert type(engine.held_timeline) is array
        assert type(PeriodicTimeline.exact([1, value]).head) is tuple

    def test_int64_bounds_stay_packed(self):
        engine = ProtocolEngine(PlatformTree.single_node(5), IC3, 2)
        for now in (2**63 - 1, -2**63):
            engine.env.now = now
            engine._on_completion(engine.nodes[0])
        timeline = engine._timeline("completion_times")
        assert type(timeline.head) is array
        assert timeline == (2**63 - 1, -2**63)
        assert type(PeriodicTimeline.exact(timeline).head) is array
