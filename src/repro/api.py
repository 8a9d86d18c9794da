"""The public simulation front door: one :func:`simulate` for everything.

``repro.simulate(platform, workload, config)`` is the only function that
runs a simulation.  It dispatches on

* the workload shape — an :class:`~repro.apps.Application`, a list of
  them, or a ``Workload(apps=...)`` runs the multi-application engine
  (:class:`~repro.apps.engine.MultiAppEngine`, one lane per app);
* the platform type — for a plain int (that many unit tasks) or a
  :class:`~repro.apps.Workload` without explicit applications, a
  :class:`~repro.platform.tree.PlatformTree` runs the tree engine and a
  :class:`~repro.platform.graph.PlatformGraph` runs the same
  multi-application engine with one lane.

One default application is bit-identical by fingerprint to the plain
int; it only adds the per-app result slice.
"""

from __future__ import annotations

from typing import Optional, Union

from .errors import ProtocolError
from .platform.graph import Overlay, PlatformGraph
from .platform.tree import PlatformTree
from .protocols.config import ProtocolConfig
from .protocols.engine import ProtocolEngine
from .protocols.result import SimulationResult

__all__ = ["simulate"]


def simulate(platform: Union[PlatformTree, PlatformGraph],
             workload, config: ProtocolConfig, *,
             mutations=None, churn=None, faults=None,
             overlay: Optional[Overlay] = None,
             allocator: Optional[str] = None,
             tracer=None,
             record_buffer_timeline: bool = False,
             record_completion_times: bool = True,
             check_invariants: bool = False) -> SimulationResult:
    """Run one protocol simulation on any platform with any workload.

    Parameters
    ----------
    platform:
        A :class:`PlatformTree` (the paper's model) or a
        :class:`PlatformGraph` (overlay + shared-link contention).
    workload:
        A plain int (that many unit tasks), an
        :class:`~repro.apps.Application`, a list of applications, or a
        :class:`~repro.apps.Workload`.
    config:
        The protocol configuration shared by every application.
    mutations / churn:
        Dynamic platform schedules — tree-engine features, rejected on
        graph platforms and multi-application workloads.
    faults:
        A :class:`~repro.platform.faults.FaultSchedule`.  Trees take the
        node-addressed events; graph platforms additionally take the
        edge-addressed ones (:class:`~repro.platform.faults.
        EdgeFailureEvent`, ``EdgeRepairEvent``, ``SwitchCrashEvent``,
        ``DegradeEvent``), consumed by a routed
        :class:`~repro.protocols.graph_engine.GraphFaultDriver` — on
        multi-application workloads one shared driver hits every app.
    check_invariants:
        Run the task-conservation checker after every fault delivery and
        loss reclamation (the chaos-harness invariant; off by default —
        it walks every agent).
    overlay:
        Optional explicit overlay for graph platforms (default: the
        shape-appropriate one via
        :func:`~repro.protocols.topologies.topology_overlay`).
    allocator:
        Per-app bandwidth split for multi-application runs (``selfish``,
        ``maxmin`` or ``fairshare``; default: the platform's contention
        mode).  Rejected on single-app paths, where the platform's own
        contention mode already decides.
    tracer:
        Optional :class:`~repro.protocols.trace.Tracer` attached before
        the run (per-node activity lanes for Perfetto export).  On a
        multi-application workload, pass a sequence of tracers — one per
        application, giving each app its own lane set — or a single
        tracer shared by every application.
    record_buffer_timeline / record_completion_times:
        Record the per-completion high-water marks (off by default) and
        completion times (on).  Each timeline is a
        :class:`~repro.sim.warp.PeriodicTimeline`.  An exact run with
        integer times records it in an ``array('q')``, ~8 bytes a task,
        which is what turning completion times off saves; rational times
        (contended graphs) are kept as Python objects.  A warped run
        needs no such switch to bound its memory: it stores each
        timeline's skipped span as one period.
    """
    if not isinstance(config, ProtocolConfig):
        raise ProtocolError(
            "simulate(platform, workload, config) takes a ProtocolConfig "
            f"third, got {config!r}; the workload (a task count, "
            "Application or Workload) comes second")

    from .apps.spec import Workload
    workload = Workload.of(workload)
    if allocator is not None and not workload.is_multi:
        raise ProtocolError(
            "allocator= selects the per-app bandwidth split of a "
            "multi-application run; single-app graph runs use the "
            "platform's own contention mode")

    if workload.is_multi or isinstance(platform, PlatformGraph):
        if mutations or churn:
            raise ProtocolError(
                "dynamic platform schedules (mutations/churn) are "
                "single-application tree-engine features; multi-application "
                "workloads and graph platforms do not support them")
        from .apps.engine import MultiAppEngine
        engine = MultiAppEngine(
            platform, workload, config, allocator=allocator,
            overlay=overlay,
            record_buffer_timeline=record_buffer_timeline,
            record_completion_times=record_completion_times,
            faults=faults, check_invariants=check_invariants)
        lanes = engine.lanes
    else:
        if overlay is not None:
            raise ProtocolError("overlay= only applies to graph platforms")
        engine = ProtocolEngine(
            platform, config, workload.total_tasks,
            mutations=mutations, churn=churn, faults=faults,
            record_buffer_timeline=record_buffer_timeline,
            record_completion_times=record_completion_times,
            check_invariants=check_invariants,
            arrivals=workload.arrivals, admission=workload.admission)
        lanes = [engine]
    if tracer is not None:
        if not isinstance(tracer, (list, tuple)):
            tracer = [tracer] * len(lanes)
        elif len(tracer) != len(lanes):
            raise ProtocolError(
                f"got {len(tracer)} tracers for {len(lanes)} applications")
        for lane, lane_tracer in zip(lanes, tracer):
            lane.tracer = lane_tracer
    result = engine.run()
    engine._release()
    return result
