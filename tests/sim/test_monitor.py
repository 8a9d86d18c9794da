"""A census of a run's calendar entries by callback.

The ``watch_calendar`` fixture calls a hook on every live entry before it
runs; these tests key each entry by its callback's ``__qualname__``
(``NodeAgent._liveness_sweep``), falling back to the callback's type name
for callables without one.
"""

import functools
from collections import Counter

from repro.platform import CrashEvent, FaultSchedule
from repro.platform.generator import TreeGeneratorParams, generate_tree
from repro.protocols import ProtocolConfig, ProtocolEngine
from repro.sim import Environment


def _kind(timer):
    fn = timer.fn
    return getattr(fn, "__qualname__", None) or type(fn).__name__


def _census(watch_calendar, env):
    counts = Counter()

    def count(_time, timer):
        counts[_kind(timer)] += 1

    watch_calendar(env, count)
    return counts


class _Probe:
    def ping(self):
        pass

    def pong(self):
        pass


class TestTraceRecorder:
    def test_records_time_and_kind(self, watch_calendar):
        env = Environment()
        records = []
        watch_calendar(env, lambda time, timer: records.append(
            (time, _kind(timer))))
        out = []
        env.call_in(2, _Probe().ping)
        env.call_in(5, out.append, 1)
        env.call_in(7, functools.partial(out.append, 2))
        env.run()
        assert [t for t, _ in records] == [2, 5, 7]
        # Keyed by the callback's qualified name, else its type name.
        assert [k for _, k in records] == [
            "_Probe.ping", "list.append", "partial"]


class TestKindCounter:
    def test_counts_by_class(self, watch_calendar):
        env = Environment()
        counts = _census(watch_calendar, env)
        probe = _Probe()
        env.call_in(1, probe.ping)
        env.call_in(1, probe.pong)
        env.call_in(1, probe.pong).cancel()  # never dispatched
        env.call_in(2, probe.ping)
        env.run()
        assert counts["_Probe.ping"] == 2
        assert counts["_Probe.pong"] == 1
        assert sum(counts.values()) == env.processed_count == 3

    def test_crash_run_names_its_callbacks(self, watch_calendar):
        tree = generate_tree(TreeGeneratorParams(min_nodes=20, max_nodes=20),
                             seed=7)
        faults = FaultSchedule([CrashEvent(at_time=200, node=3)])
        engine = ProtocolEngine(tree, ProtocolConfig.interruptible(3), 300,
                                faults=faults)
        counts = _census(watch_calendar, engine.env)
        result = engine.run()
        assert sum(counts.values()) == result.events_processed
        assert counts["ProtocolEngine._apply_crash"] == 1
        assert counts["NodeAgent._liveness_sweep"] >= 1
        assert counts["NodeAgent._cpu_done"] == 300
