"""Differential oracle: three routes into the simulator, one fingerprint.

A generated tree runs as

* ``simulate(tree, n)`` — the tree engine;
* ``simulate(PlatformGraph.from_tree(tree), n)`` — the same tree embedded
  as a graph, through the graph engine with its contention manager;
* ``simulate(tree, Application(n))`` — one explicit application, the
  multi-application engine with a single lane.

All three must give one :meth:`SimulationResult.fingerprint`, both
fault-free and under generated link outage schedules
(:class:`LinkFailureEvent`/:class:`LinkRepairEvent` windows), for the
four Figure 4 protocols plus a buffer-decay variant.

Crash schedules stay out on purpose: the two fault paths do not agree on
what a crash destroys.  The tree engine kills the victim's whole
subtree, while the routed :class:`~repro.protocols.graph_engine.
GraphFaultDriver` keeps the orphans alive and re-parents them, so the
fingerprints legitimately differ until one crash model is chosen.
"""

from hypothesis import given, settings, strategies as st

from repro import simulate
from repro.apps import Application
from repro.experiments.fig4 import FIG4_CONFIGS
from repro.platform import (FaultSchedule, LinkFailureEvent, LinkRepairEvent,
                            PlatformGraph)
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
