"""The engine of every graph and multi-application run: N lanes of the
bandwidth-centric protocol sharing one platform.

Each application gets a lane, a full and independent set of protocol
agents (:class:`~repro.protocols.graph_engine.GraphProtocolEngine`) over
the *same* overlay tree, so every physical node runs N autonomous
bandwidth-centric schedulers, one per app — Legrand & Touati's
non-cooperative regime.  A single-application graph run is simply the
N=1 case: one lane, with nothing shared with anyone.

The engine owns what the lanes share: the calendar, the private graph
copy, the overlay, **one** :class:`~repro.platform.contention.
LinkContention` manager over the physical links (so cross-app rate
changes reschedule exactly the timers they must) and, under faults, one
:class:`~repro.protocols.graph_engine.GraphFaultDriver`.  The per-app
bandwidth split is the manager's allocator policy:

* ``selfish`` — strict-priority filling by ``(app priority, app
  index)``: each app grabs bandwidth greedily in priority order, the
  literal multi-app reading of bandwidth-centric autonomy;
* ``maxmin`` / ``fairshare`` — the cooperative allocators, applied
  across all apps' flows at once.

A plain task count returns its lane's result as is; explicit
applications add the per-app slices and the cooperative optimum.  One
default application is bit-identical by fingerprint to the plain count,
which on a tree-shaped graph is bit-identical to the tree engine (the
golden table in ``tests/test_equivalence_table.py`` pins both).
"""

from __future__ import annotations

import dataclasses
import sys
from typing import List, Optional, Sequence, Union

from ..errors import ProtocolError
from ..platform.contention import LinkContention
from ..platform.faults import FaultSchedule
from ..platform.graph import Overlay, PlatformGraph
from ..platform.tree import PlatformTree
from ..protocols.config import PriorityRule, ProtocolConfig
from ..protocols.engine import _MIN_RECURSION_LIMIT
from ..protocols.graph_engine import GraphFaultDriver, GraphProtocolEngine
from ..protocols.result import SimulationResult
from ..sim.core import Environment
from ..sim.warp import REASON_MULTI_APP, PeriodicTimeline, WarpSummary
from ..steady_state.solver import solve_tree
from .metrics import steady_window_rate
from .spec import Application, AppResult, Workload

__all__ = ["MultiAppEngine"]


class MultiAppEngine:
    """One simulation of N concurrent applications on a shared platform.

    Accepts a :class:`PlatformTree` (embedded via
    :meth:`PlatformGraph.from_tree`) or :class:`PlatformGraph` plus a
    :class:`Workload` (or anything :meth:`Workload.of` coerces).  Runs
    every application's lane on one calendar.  Explicit applications get
    a per-app :class:`AppResult` slice, merged into a single
    :class:`SimulationResult` whose ``apps``/``cooperative_rate`` fields
    feed the Jain-index and price-of-anarchy properties; a plain task
    count returns its one lane's result.

    A ``faults`` schedule is consumed by one shared
    :class:`~repro.protocols.graph_engine.GraphFaultDriver`: a physical
    fault (link, switch or host) hits every application at once, and each
    lane's agents recover independently — per-app lanes reclaim their own
    losses and re-route on the same healed fabric.  Platform mutations and
    churn remain single-app tree-engine features.
    """

    def __init__(self, platform: Union[PlatformGraph, PlatformTree],
                 workload, config: ProtocolConfig, *,
                 allocator: Optional[str] = None,
                 overlay: Optional[Overlay] = None,
                 record_buffer_timeline: bool = False,
                 record_completion_times: bool = True,
                 faults: Optional[FaultSchedule] = None,
                 check_invariants: bool = False):
        workload = Workload.of(workload)
        self.workload = workload
        self.apps = workload.applications
        self.config = config
        self.record_buffer_timeline = record_buffer_timeline
        self.record_completion_times = record_completion_times
        self.check_invariants = check_invariants
        if isinstance(platform, PlatformTree):
            platform = PlatformGraph.from_tree(platform)
        if faults:
            if any(a.arrivals is not None for a in self.apps):
                raise ProtocolError(
                    "open-loop arrivals cannot be combined with "
                    "mutation/churn/fault schedules")
            if config.priority_rule is PriorityRule.FIFO:
                raise ProtocolError(
                    "faults with FIFO ordering are unsupported (reconciling "
                    "a failed node's queued requests is ill-defined)")
            # One private copy, mutated by the shared driver, seen by all
            # lanes.
            platform = platform.copy()
        self.graph = platform
        if overlay is None:
            from ..protocols.topologies import topology_overlay
            overlay = topology_overlay(platform)
        self.overlay = overlay
        self.allocator = allocator if allocator is not None \
            else platform.contention
        if faults and any(a.source is not None and a.source != platform.root
                          for a in self.apps):
            # The shared GraphFaultDriver maps fabric events through ONE
            # overlay; a lane re-rooted at a different source would see
            # fault effects through the wrong host mapping.
            raise ProtocolError(
                "faults with non-root application sources are unsupported")
        #: How many ways each physical CPU is time-shared (apps with no
        #: tasks never compute, so they claim no CPU slice — but an
        #: open-loop app computes even though its initial bag is empty).
        self.cpu_share = sum(1 for a in self.apps
                             if a.tasks > 0 or a.arrivals is not None) or 1
        #: Relay overlays re-rooted at non-default source nodes, shared
        #: by same-source lanes (host set identical to the canonical
        #: overlay's, so per-node rows remap positionally at collect).
        self._source_overlays = {}
        self.env = Environment()
        self.contention = LinkContention(platform.link_capacities(),
                                         self.allocator)
        self.fault_driver: Optional[GraphFaultDriver] = None
        if faults:
            faults.validate_graph(platform, self.overlay)
            self.fault_driver = GraphFaultDriver(
                platform, self.overlay, faults, self.contention,
                check_invariants=check_invariants)
        self.lanes: List[GraphProtocolEngine] = [
            GraphProtocolEngine(self, app, i)
            for i, app in enumerate(self.apps)]
        canon_index = {h: i for i, h in enumerate(self.overlay.hosts)}
        for lane in self.lanes:
            #: Position of each lane row in canonical-overlay host order
            #: (``None`` = identity, the all-apps-source-at-root case).
            lane.host_remap = (
                None if lane.overlay is self.overlay
                else [canon_index[h] for h in lane.overlay.hosts])
        self._finished = False

    def lane_overlay(self, app: Application) -> Overlay:
        """The overlay an application's lane runs on: the canonical one,
        or a relay overlay re-rooted at the app's source node."""
        source = app.source
        if source is None or source == self.graph.root:
            return self.overlay
        cached = self._source_overlays.get(source)
        if cached is None:
            cached = self._source_overlays[source] = (
                self.graph.overlay(root=source))
        return cached

    @property
    def num_tasks(self) -> int:
        return self.workload.total_tasks

    # ----------------------------------------------------------------- run
    def run(self) -> SimulationResult:
        if self._finished:
            raise ProtocolError("engine already ran; build a new one")
        self._finished = True
        for lane in self.lanes:
            lane._finished = True
            lane._resolve_warp()

        limit = sys.getrecursionlimit()
        if limit < _MIN_RECURSION_LIMIT:
            sys.setrecursionlimit(_MIN_RECURSION_LIMIT)
        try:
            if self.fault_driver is not None:
                # Before any lane's t=0 demand, and never behind a lane's
                # staggered arrival: the fabric can fail before a late
                # app even starts.
                self.fault_driver.arm(self.env)
            for lane in self.lanes:
                if lane.app.arrival == 0:
                    lane._arm()
                else:
                    self.env.call_at(lane.app.arrival, lane._arm)
            self.env.run()
        finally:
            sys.setrecursionlimit(limit)
        return self._collect()

    def _release(self) -> None:
        """Break the finished run's reference cycles, lane by lane (see
        :meth:`ProtocolEngine._release`)."""
        for lane in self.lanes:
            lane._release()
        if self.fault_driver is not None:
            self.fault_driver.lanes = []

    # ------------------------------------------------------------- results
    def _collect(self) -> SimulationResult:
        lane_results = [lane._collect() for lane in self.lanes]
        if not self.workload.is_multi:
            # A plain task count is one lane, and its result is the run's.
            return lane_results[0]
        cooperative = solve_tree(self.overlay.tree).rate
        app_results = tuple(
            self._app_result(lane, result)
            for lane, result in zip(self.lanes, lane_results))

        if len(self.lanes) == 1:
            # The degenerate case IS the single-app run: reuse its result
            # record verbatim (apps of length 1 stay out of the
            # fingerprint, so bit-identity is preserved by construction).
            return dataclasses.replace(
                lane_results[0], apps=app_results,
                cooperative_rate=cooperative)

        merged_completions = sorted(
            t for result in lane_results for t in result.completion_times)
        sampler_fires = sum(lane.probe.sampler_fires for lane in self.lanes
                            if lane.probe is not None)
        exhausted = [r.repository_exhausted_at for r in lane_results]
        warp = None
        if self.config.warp:
            warp = WarpSummary(applied=False, reason=REASON_MULTI_APP)
        last_completion = max(
            (r.last_completion_time for r in lane_results), default=0)
        services = [r.service for r in lane_results if r.service is not None]
        merged_service = None
        if services:
            from ..service.slo import ServiceStats
            merged_service = ServiceStats.merged(services,
                                                 makespan=last_completion)
        # Lanes re-rooted at a distinct source index their per-node rows
        # in their own overlay's host order; remap into canonical order
        # before summing (identity when every app sources at the root).
        rows = [
            [_remap_row(r.per_node_computed, lane.host_remap)
             for lane, r in zip(self.lanes, lane_results)],
            [_remap_row(r.per_node_max_buffers, lane.host_remap)
             for lane, r in zip(self.lanes, lane_results)],
            [_remap_row(r.per_node_max_held, lane.host_remap)
             for lane, r in zip(self.lanes, lane_results)],
        ]
        return SimulationResult(
            tree=self.overlay.tree,
            config=self.config,
            num_tasks=self.num_tasks,
            completion_times=PeriodicTimeline.exact(merged_completions),
            per_node_computed=_sum_rows(rows[0]),
            per_node_max_buffers=_sum_rows(rows[1]),
            per_node_max_held=_sum_rows(rows[2]),
            buffer_high_water_at_completion=PeriodicTimeline.exact(()),
            held_high_water_at_completion=PeriodicTimeline.exact(()),
            departed_node_ids=(),
            buffers_decayed=sum(r.buffers_decayed for r in lane_results),
            preemptions=sum(r.preemptions for r in lane_results),
            transfers=sum(r.transfers for r in lane_results),
            events_processed=self.env.processed_count - sampler_fires,
            repository_exhausted_at=(max(exhausted)
                                     if all(t is not None for t in exhausted)
                                     else None),
            last_completion_time=max(
                (r.last_completion_time for r in lane_results), default=0),
            warp=warp,
            telemetry=None,
            service=merged_service,
            # Physical faults are shared: every lane books the same crash
            # list at the same instants, so take lane 0's copy; the
            # recovery work (re-executions, wasted transfers, reclaim
            # instants) is per-lane and sums/merges.  Fault-free runs
            # keep the empty defaults and an unchanged fingerprint.
            crashed_node_ids=lane_results[0].crashed_node_ids,
            crash_times=lane_results[0].crash_times,
            tasks_reexecuted=sum(r.tasks_reexecuted for r in lane_results),
            transfers_wasted=sum(r.transfers_wasted for r in lane_results),
            reclaim_times=tuple(sorted(
                t for r in lane_results for t in r.reclaim_times)),
            apps=app_results,
            cooperative_rate=cooperative,
        )

    def _app_result(self, lane: GraphProtocolEngine,
                    result: SimulationResult) -> AppResult:
        app = lane.app
        driver = lane.service_driver
        return AppResult(
            app=app,
            index=lane.app_index,
            completion_times=result.completion_times,
            per_node_computed=result.per_node_computed,
            makespan=result.makespan,
            steady_rate=steady_window_rate(
                result.completion_times,
                # Open-loop lanes stream their bag; the realized task
                # count is whatever admission let through.
                num_tasks=(app.tasks if driver is None
                           else driver.admitted),
                arrival=app.arrival, makespan=result.makespan),
            preemptions=result.preemptions,
            transfers=result.transfers,
            telemetry=result.telemetry,
            service=result.service,
        )


def _sum_rows(rows: Sequence[Sequence[int]]) -> tuple:
    """Elementwise sum of equal-length per-node tuples."""
    return tuple(sum(col) for col in zip(*rows))


def _remap_row(row: Sequence[int], remap) -> Sequence[int]:
    """Reorder a lane row so entry ``i`` lands at canonical position
    ``remap[i]``; identity when ``remap`` is None."""
    if remap is None or not row:
        return row
    out = [0] * len(row)
    for value, pos in zip(row, remap):
        out[pos] = value
    return tuple(out)
