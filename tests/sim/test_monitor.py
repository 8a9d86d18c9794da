"""Tests for kernel instrumentation hooks."""

import functools

import pytest

from repro.platform import CrashEvent, FaultSchedule
from repro.platform.generator import TreeGeneratorParams, generate_tree
from repro.protocols import ProtocolConfig, ProtocolEngine
from repro.sim import Environment
from repro.sim.monitor import KindCounter, TraceRecorder, attach, detach


class _Probe:
    def ping(self):
        pass

    def pong(self):
        pass


class TestTraceRecorder:
    def test_records_time_and_kind(self):
        env = Environment()
        rec = TraceRecorder()
        attach(env, rec)
        out = []
        env.call_in(2, _Probe().ping)
        env.call_in(5, out.append, 1)
        env.call_in(7, functools.partial(out.append, 2))
        env.run()
        assert [t for t, _ in rec.records] == [2, 5, 7]
        # Keyed by the callback's qualified name, else its type name.
        assert [k for _, k in rec.records] == [
            "_Probe.ping", "list.append", "partial"]

    def test_limit_drops_oldest(self):
        env = Environment()
        rec = TraceRecorder(limit=3)
        attach(env, rec)
        for i in range(5):
            env.call_in(i + 1, lambda: None)
        env.run()
        assert len(rec) == 3
        assert rec.dropped == 2
        assert rec.records[0][0] == 3

    def test_unlimited(self):
        env = Environment()
        rec = TraceRecorder(limit=None)
        attach(env, rec)
        for i in range(10):
            env.call_in(1, lambda: None)
        env.run()
        assert len(rec) == 10 and rec.dropped == 0


class TestKindCounter:
    def test_counts_by_class(self):
        env = Environment()
        counter = KindCounter()
        attach(env, counter)
        probe = _Probe()
        env.call_in(1, probe.ping)
        env.call_in(1, probe.pong)
        env.call_in(2, probe.ping)
        env.run(until=3)
        assert counter.counts["_Probe.ping"] == 2
        assert counter.counts["_Probe.pong"] == 1
        # run(until=t) dispatches its stop entry like any timer.
        assert counter.counts["Environment._stop_at"] == 1
        assert counter.total() == 4


    def test_crash_run_names_its_callbacks(self):
        tree = generate_tree(TreeGeneratorParams(min_nodes=20, max_nodes=20),
                             seed=7)
        faults = FaultSchedule([CrashEvent(at_time=200, node=3)])
        engine = ProtocolEngine(tree, ProtocolConfig.interruptible(3), 300,
                                faults=faults)
        counter = KindCounter()
        attach(engine.env, counter)
        result = engine.run()
        assert counter.total() == result.events_processed
        assert counter.counts["ProtocolEngine._apply_crash"] == 1
        assert counter.counts["NodeAgent._liveness_sweep"] >= 1
        assert counter.counts["NodeAgent._cpu_done"] == 300


class TestAttachDetach:
    def test_attach_conflict_raises(self):
        env = Environment()
        attach(env, KindCounter())
        with pytest.raises(ValueError):
            attach(env, KindCounter())

    def test_attach_same_hook_twice_ok(self):
        env = Environment()
        hook = KindCounter()
        attach(env, hook)
        attach(env, hook)

    def test_detach(self):
        env = Environment()
        attach(env, KindCounter())
        detach(env)
        assert env.trace_hook is None
        attach(env, KindCounter())  # free slot again
