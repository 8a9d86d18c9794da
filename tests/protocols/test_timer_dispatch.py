"""Simulations put only :class:`~repro.sim.Timer` entries on the calendar.

Every engine, the routed fault driver, the open-loop driver and the
telemetry sampler schedule through ``Environment.call_in``/``call_at``,
the kernel's one scheduling API.  Each case below watches every
dispatched entry through the ``watch_calendar`` fixture.
"""

import dataclasses

import pytest

from repro.apps import Application, MultiAppEngine
from repro.platform import (
    CrashEvent,
    EdgeFailureEvent,
    EdgeRepairEvent,
    FaultSchedule,
    generate_platform,
)
from repro.platform.generator import TreeGeneratorParams, generate_tree
from repro.protocols import ProtocolConfig, ProtocolEngine
from repro.service import DiurnalArrivals, TokenBucket
from repro.sim import Timer
from repro.telemetry import TelemetryConfig

IC3 = ProtocolConfig.interruptible(3)


def _tree():
    return generate_tree(TreeGeneratorParams(min_nodes=20, max_nodes=20),
                         seed=7)


def tree_crash():
    faults = FaultSchedule([CrashEvent(at_time=200, node=3)])
    engine = ProtocolEngine(_tree(), IC3, 300, faults=faults)
    return engine, lambda result: result.crashed_node_ids


def graph_link_faults():
    graph = generate_platform("leafspine", seed=7)  # max-min contention
    faults = FaultSchedule([EdgeFailureEvent(at_time=30, link=0),
                            EdgeRepairEvent(at_time=300, link=0)])
    engine = MultiAppEngine(graph, 150, IC3, faults=faults)
    return engine, lambda result: result.transfers_wasted


def multi_app():
    apps = [Application(100, name="a", priority=0),
            Application(100, name="b", priority=1)]
    engine = MultiAppEngine(_tree(), apps, IC3, allocator="selfish")
    return engine, lambda result: len(result.apps) == 2


def open_loop_telemetry():
    arrivals = DiurnalArrivals(rates=(0.05, 0.6, 0.15), phase_len=500,
                               horizon=3000, seed=3)
    engine = ProtocolEngine(
        _tree(), dataclasses.replace(IC3, telemetry=TelemetryConfig()), 0,
        arrivals=arrivals, admission=TokenBucket(rate="1/4", burst=16))
    return engine, lambda result: (result.service.completed
                                   and result.telemetry is not None)


@pytest.mark.parametrize("build", [tree_crash, graph_link_faults, multi_app,
                                   open_loop_telemetry],
                         ids=lambda build: build.__name__)
def test_every_dispatched_entry_is_a_timer(watch_calendar, build):
    engine, exercised = build()
    dispatched = []
    watch_calendar(engine.env, lambda _time, item: dispatched.append(
        item.__class__))
    result = engine.run()
    assert exercised(result)  # the case ran the path it names
    assert set(dispatched) == {Timer}
