"""Differential oracle: three routes into the simulator, one fingerprint.

A generated tree runs as

* ``simulate(tree, n)`` — the tree engine;
* ``simulate(PlatformGraph.from_tree(tree), n)`` — the same tree embedded
  as a graph, through the graph engine with its contention manager;
* ``simulate(tree, Application(n))`` — one explicit application, the
  multi-application engine with a single lane.

All three must give one :meth:`SimulationResult.fingerprint`, fault-free,
under generated link outage schedules (:class:`LinkFailureEvent`/
:class:`LinkRepairEvent` windows), under generated crash schedules, and
under crashes plus outages, for the four Figure 4 protocols plus a
buffer-decay variant.  Every fault run checks task conservation after
each fault event.
"""

from hypothesis import given, settings, strategies as st

from repro import simulate
from repro.apps import Application
from repro.experiments.fig4 import FIG4_CONFIGS
from repro.errors import PlatformError
from repro.platform import (CrashEvent, FaultSchedule, LinkFailureEvent,
                            LinkRepairEvent, PlatformGraph)
from repro.platform.generator import TreeGeneratorParams, generate_tree
from repro.protocols import ProtocolConfig

TREES = TreeGeneratorParams(min_nodes=2, max_nodes=30, max_comm=20,
                            max_comp=600)
CONFIGS = FIG4_CONFIGS + (ProtocolConfig.non_interruptible(buffer_decay=True),)

configs = st.sampled_from(CONFIGS)
seeds = st.integers(0, 100_000)
tasks = st.integers(50, 400)
#: ``(node pick, start, length)`` of up to four outage windows.
outages = st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 1_500),
                             st.integers(1, 800)), max_size=4)
#: ``(node pick, time)`` of up to three crashes.
crashes = st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 1_500)),
                   min_size=1, max_size=3)


def _outage_schedule(tree, windows) -> FaultSchedule:
    """Non-overlapping fail/repair pairs on non-root nodes' parent links."""
    targets = [n for n in range(tree.num_nodes) if n != tree.root]
    by_node = {}
    for pick, start, length in windows:
        by_node.setdefault(targets[pick % len(targets)], []).append(
            (start, start + length))
    events = []
    for node, spans in by_node.items():
        free_from = 0
        for start, end in sorted(spans):
            if start <= free_from:
                continue  # overlaps the previous outage of this link
            events += [LinkFailureEvent(at_time=start, node=node),
                       LinkRepairEvent(at_time=end, node=node)]
            free_from = end
    return FaultSchedule(events)


def _crash_schedule(tree, picks, windows=()) -> FaultSchedule:
    """Crashes of distinct non-root nodes, plus each outage window that
    the schedule's validity rule still accepts beside them."""
    targets = [n for n in range(tree.num_nodes) if n != tree.root]
    crashed = {}
    for pick, at_time in picks:
        crashed.setdefault(targets[pick % len(targets)], at_time)
    events = [CrashEvent(at_time=t, node=n) for n, t in crashed.items()]
    for window in windows:
        candidate = events + list(_outage_schedule(tree, [window]))
        try:
            FaultSchedule(candidate).validate(tree)
        except PlatformError:
            continue
        events = candidate
    return FaultSchedule(events)


def _fingerprints(tree, n, config, **kwargs):
    return {simulate(tree, n, config, **kwargs).fingerprint(),
            simulate(PlatformGraph.from_tree(tree), n, config,
                     **kwargs).fingerprint(),
            simulate(tree, Application(n), config, **kwargs).fingerprint()}


@given(seed=seeds, config=configs, n=tasks)
@settings(max_examples=25, deadline=None)
def test_fault_free_routes_agree(seed, config, n):
    tree = generate_tree(TREES, seed=seed)
    assert len(_fingerprints(tree, n, config)) == 1


@given(seed=seeds, config=configs, n=tasks, windows=outages)
@settings(max_examples=25, deadline=None)
def test_outage_routes_agree(seed, config, n, windows):
    tree = generate_tree(TREES, seed=seed)
    faults = _outage_schedule(tree, windows)
    assert len(_fingerprints(tree, n, config, faults=faults,
                             check_invariants=True)) == 1


@given(seed=seeds, config=configs, n=tasks, picks=crashes)
@settings(max_examples=25, deadline=None)
def test_crash_routes_agree(seed, config, n, picks):
    tree = generate_tree(TREES, seed=seed)
    faults = _crash_schedule(tree, picks)
    assert len(_fingerprints(tree, n, config, faults=faults,
                             check_invariants=True)) == 1


@given(seed=seeds, config=configs, n=tasks, picks=crashes, windows=outages)
@settings(max_examples=25, deadline=None)
def test_crash_and_outage_routes_agree(seed, config, n, picks, windows):
    tree = generate_tree(TREES, seed=seed)
    faults = _crash_schedule(tree, picks, windows)
    assert len(_fingerprints(tree, n, config, faults=faults,
                             check_invariants=True)) == 1
