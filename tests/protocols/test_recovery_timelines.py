"""Pinned recovery timelines of fault runs.

Each pin is ``replace(result, events_processed=0).fingerprint()``: every
completion, reclaim and crash time, per-node tally and waste counter of
the run, but not its calendar size.  The chaos pins were taken while
every parent still swept its children every ``request_timeout`` until
the bag completed, so they show that scheduling a sweep only while a
child is unreachable removes events that changed nothing.  Both fault
paths are covered: the tree engine (paper trees, a crash plus a
transient outage) and the routed graph driver (seeded chaos schedules,
one and three applications).  The tree pins follow the one crash model
(a crash kills one host; its children park), so they equal the same
cells run through ``PlatformGraph.from_tree``.
"""

from dataclasses import replace

import pytest

from repro import simulate
from repro.apps import Application
from repro.platform import (CrashEvent, FaultSchedule, LinkFailureEvent,
                            LinkRepairEvent)
from repro.platform.faults import chaos_schedule
from repro.platform.generator import PAPER_DEFAULTS, generate_tree
from repro.platform.graph import PlatformGraph, generate_platform
from repro.protocols import ProtocolConfig

IC3 = ProtocolConfig.interruptible(3)

#: Fault runs stay within a few events per task once no-op sweeps are
#: gone; the always-on sweep needed 59 to 11,141 on these cells.
MAX_EVENTS_PER_TASK = 20

TREE_PINS = {
    0: "d3fc3ca34d02012ed80714531b04690e54dff15723507e018f730125c18ca578",
    1: "0a35b671740eb773d5a06ac0fcec1bfe8afffbd9ce299a185ba8ee92f90fbff3",
    2: "a0a7f6f76f939c0928221c882c362625ecefa1b9d73932679e5c920d7bda96f7",
    3: "7246425cf9aad533d245c7917d8940a90e61e5f7b1d066bc14f3312c32fb44c2",
    4: "05d4baef07dd3a144bd48c5b7f456c82dd7e78bad08056e5e8937fc4eb334788",
}

CHAOS_PINS = {
    ("tree", 1):
        "f30df100fa98dd689a7a33493e704b6878851c23ecef1b81e34064dc5e12eab8",
    ("tree", 3):
        "2c892d28a3a721d6ed6db8bded3dc804282615646634149665b82b324f7ebf15",
    ("star", 1):
        "4b877dd766f5fd2ba96cc550f15c40081777f39c29ef39117eaf1bafa23e875a",
    ("star", 3):
        "0079f52e2f11a81695d66cf152523505a34946f177f7f60f32beacdfd915d447",
    ("chain", 1):
        "9addfe110b3c93820f4e3e92be092cd1949906e3209b74a03d0e2292e0b25760",
    ("chain", 3):
        "39b555894493889576690320a71393a95755e3005a7c73f6b3267f5b6bb88556",
    ("leafspine", 1):
        "0d4094f492029a6a0c81abc15e47e915e0e0a7a4383a70b062fea85b039c97d0",
    ("leafspine", 3):
        "c81c31d54dc9d1f30ee72084ca80d048703721f8ca20ff0b0ff8309cded5232a",
}


def _timeline(result) -> str:
    return replace(result, events_processed=0).fingerprint()


def _check_events(result) -> None:
    assert result.events_processed <= MAX_EVENTS_PER_TASK * result.num_tasks


@pytest.mark.parametrize("seed", sorted(TREE_PINS))
def test_paper_tree_crash_and_outage(seed):
    tree = generate_tree(PAPER_DEFAULTS, seed=seed)
    root_children = tree.children[tree.root]
    events = [CrashEvent(at_time=200, node=root_children[0])]
    if len(root_children) > 1:
        events += [LinkFailureEvent(at_time=150, node=root_children[1]),
                   LinkRepairEvent(at_time=450, node=root_children[1])]
    result = simulate(tree, 1000, IC3, faults=FaultSchedule(events))
    assert _timeline(result) == TREE_PINS[seed]
    _check_events(result)


@pytest.mark.parametrize("topology,apps", sorted(CHAOS_PINS))
def test_chaos_seed1(topology, apps):
    if topology == "tree":
        platform = PlatformGraph.from_tree(generate_tree(seed=1))
    else:
        platform = generate_platform(topology, seed=1)
    schedule = chaos_schedule(platform, seed=1017, events=6)
    tasks = 45
    workload = tasks if apps == 1 else [
        Application(tasks // apps, name=f"app{i}", priority=i,
                    arrival=i * 100)
        for i in range(apps)]
    result = simulate(platform, workload, IC3, faults=schedule)
    assert _timeline(result) == CHAOS_PINS[topology, apps]
    _check_events(result)
