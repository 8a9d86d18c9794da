"""Time-series probes: hook a protocol run and fill a metrics registry.

Two probe layers (see :class:`~repro.telemetry.config.TelemetryConfig`):

* the **sampler** — a periodic virtual-time timer on the DES kernel's
  calendar that reads engine/agent state every ``sample_dt`` steps:
  kernel event counts, completed tasks, buffer occupancy, queue depths,
  per-node CPU-busy / starvation flags.  The sampler is read-only, so a
  sampled run makes exactly the same scheduling decisions as an
  unsampled one; the engine subtracts the sampler's own calendar entries
  from ``events_processed``, which makes the run's
  :meth:`~repro.protocols.result.SimulationResult.fingerprint` equal to
  the telemetry-off fingerprint (tested).
* the **event tap** — an object with the
  :meth:`~repro.protocols.trace.Tracer.record` interface that the engine
  fans protocol trace events into when ``trace_events=True``.  It
  integrates *exact* per-node compute/send busy intervals and per-kind
  event counts, at the cost of one callback per protocol event.

Both layers write into one :class:`~repro.telemetry.registry.MetricsRegistry`;
:meth:`TelemetryProbe.finalize` folds everything into an immutable,
picklable :class:`TelemetrySnapshot` that rides on the simulation result
through the crash-safe harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..protocols import trace as _trace
from .config import TelemetryConfig
from .registry import MetricsRegistry

__all__ = ["TelemetryProbe", "TelemetrySnapshot", "SeriesData"]

#: One materialized time series: ``(times, values)``, same length.
SeriesData = Tuple[Tuple[int, ...], Tuple[float, ...]]

#: Global series names the sampler maintains.
_GLOBAL_SERIES = ("completed", "events", "buffer_occupancy", "queue_depth")


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable telemetry record of one finished run.

    Everything is plain ints/floats/tuples/dicts so snapshots pickle
    cheaply through the crash-safe harness's journals and compare by
    value (the JSONL exporter round-trips them exactly).
    """

    #: Number of platform nodes at the end of the run.
    num_nodes: int
    #: Virtual time of the last task completion.
    makespan: int
    #: Configured sampling period.
    sample_dt: int
    #: Effective period after decimation doublings (== ``sample_dt`` for
    #: runs that stayed within the sample budget).
    effective_dt: int
    #: Number of sampler firings.
    samples: int
    #: Global scalar tallies (event-kind counts under ``trace_events``,
    #: plus run totals like ``"completed"`` and ``"preemptions"``).
    counters: Dict[str, int] = field(default_factory=dict)
    #: name → per-node tuple (length :attr:`num_nodes`).
    per_node: Dict[str, Tuple[float, ...]] = field(default_factory=dict)
    #: Global time series: name → ``(times, values)``.
    series: Dict[str, SeriesData] = field(default_factory=dict)
    #: Per-node time series: name → node → ``(times, values)``.
    node_series: Dict[str, Dict[int, SeriesData]] = field(default_factory=dict)

    def utilization(self) -> Tuple[float, ...]:
        """Per-node fraction of the run spent computing.

        Derived from ``per_node["compute_busy_time"]`` over the makespan;
        matches :func:`repro.metrics.usage.node_utilization` on static
        platforms (exactly under ``trace_events``, where busy time is
        integrated from the event stream rather than derived).
        """
        busy = self.per_node.get("compute_busy_time")
        if busy is None or self.makespan <= 0:
            return tuple(0.0 for _ in range(self.num_nodes))
        return tuple(b / self.makespan for b in busy)


class TelemetryProbe:
    """Live probe attached to one :class:`~repro.protocols.engine.ProtocolEngine`.

    Built by the engine when its config carries a
    :class:`~repro.telemetry.config.TelemetryConfig`; not constructed by
    user code.  The engine calls :meth:`start` as the run begins and
    :meth:`finalize` after the event loop drains.
    """

    def __init__(self, engine, config: TelemetryConfig):
        self.engine = engine
        self.config = config
        self.registry = MetricsRegistry()
        #: Calendar entries consumed by the sampler itself; the engine
        #: subtracts this from ``events_processed`` so sampling never
        #: shows up in the result's fingerprint.
        self.sampler_fires = 0
        self._dt = config.sample_dt
        self._decimations_seen = 0

        cap = config.max_samples
        reg = self.registry
        self._lead = reg.series("completed", max_samples=cap)
        self._global = {name: reg.series(name, max_samples=cap)
                        for name in _GLOBAL_SERIES}

        # Event-tap state (exact interval integration).
        self._compute_open: Dict[int, int] = {}
        self._send_open: Dict[int, int] = {}
        self._compute_busy: Dict[int, int] = {}
        self._send_busy: Dict[int, int] = {}
        self._kind_counters: Dict[str, object] = {}

        # Sampled per-node time tallies, indexed by node id (node ids are
        # list positions in ``engine.nodes``, including churn joins).
        # Weighted by the live period, so decimation-era samples count for
        # their longer coverage.  Lists, not dicts: the sampler touches
        # every node every fire, and this loop is the whole overhead story.
        self._busy_time: List[int] = []
        self._starve_time: List[int] = []

        # Contention-solver counter tracks, created on first sample: the
        # graph engine assigns ``engine.contention`` *after* the base
        # constructor builds this probe, so the lookup must be lazy.
        self._contention_series: Optional[tuple] = None
        # Service-mode counter tracks (open-loop runs only), same lazy
        # pattern: the driver is attached after probe construction.
        self._service_series: Optional[tuple] = None

    # -------------------------------------------------------------- tap
    @property
    def tap(self):
        """The trace-stream tap, or ``None`` when event tracing is off."""
        return self if self.config.trace_events else None

    def record(self, time, kind: str, node: int, peer=None) -> None:
        """Tracer-interface entry point: one protocol event."""
        counter = self._kind_counters.get(kind)
        if counter is None:
            counter = self.registry.counter(f"events.{kind}")
            self._kind_counters[kind] = counter
        counter.value += 1
        if kind is _trace.COMPUTE_START or kind == _trace.COMPUTE_START:
            self._compute_open[node] = time
        elif kind == _trace.COMPUTE_DONE:
            start = self._compute_open.pop(node, None)
            if start is not None:
                self._compute_busy[node] = (
                    self._compute_busy.get(node, 0) + time - start)
        elif kind == _trace.SEND_START or kind == _trace.SEND_RESUME:
            self._send_open[node] = time
        elif kind == _trace.SEND_DONE or kind == _trace.PREEMPT:
            start = self._send_open.pop(node, None)
            if start is not None:
                self._send_busy[node] = (
                    self._send_busy.get(node, 0) + time - start)

    # ---------------------------------------------------------- sampling
    def start(self) -> None:
        """Schedule the first sample (called by the engine at t=0)."""
        self.engine.env.call_in(self._dt, self._sample)

    def _sample(self) -> None:
        self.sampler_fires += 1
        engine = self.engine
        env = engine.env
        now = env.now
        dt = self._dt

        held_total = 0
        queue_total = 0
        per_node_on = self.config.per_node_series
        reg = self.registry
        cap = self.config.max_samples
        busy_time = self._busy_time
        starve_time = self._starve_time
        nodes = engine.nodes
        if len(busy_time) < len(nodes):  # churn joins grow the platform
            grow = len(nodes) - len(busy_time)
            busy_time.extend([0] * grow)
            starve_time.extend([0] * grow)
        for i, agent in enumerate(nodes):
            held = agent.tasks_held
            held_total += held
            queue_total += agent.child_requests
            if agent.cpu_busy:
                busy_time[i] += dt
            elif (agent.alive and not agent.departed
                  and (agent.undispensed if agent.is_root else held) == 0):
                # Idle CPU with nothing to run: starved for work (for the
                # root this only happens once the repository is empty).
                starve_time[i] += dt
            if per_node_on:
                reg.series("buffer_occupancy", node=i,
                           max_samples=cap).append(now, held)
                reg.series("queue_depth", node=i,
                           max_samples=cap).append(now, agent.child_requests)

        manager = getattr(engine, "contention", None)
        if manager is not None:
            tracks = self._contention_series
            if tracks is None:
                tracks = self._contention_series = (
                    reg.series("contention_solves", max_samples=cap),
                    reg.series("contention_memo_hits", max_samples=cap))
            tracks[0].append(
                now, manager.settles_full + manager.settles_incremental)
            tracks[1].append(now, manager.memo_hits)

        driver = getattr(engine, "service_driver", None)
        if driver is not None:
            tracks = self._service_series
            if tracks is None:
                tracks = self._service_series = (
                    reg.series("service_in_system", max_samples=cap),
                    reg.series("service_admitted", max_samples=cap),
                    reg.series("service_dropped", max_samples=cap))
            tracks[0].append(now, len(driver.pending))
            tracks[1].append(now, driver.admitted)
            tracks[2].append(now, driver.dropped)

        series = self._global
        series["completed"].append(now, engine.completed)
        # The sampler's own firings are excluded so the series matches
        # what an unsampled run would have processed by ``now``.
        series["events"].append(now, env.processed_count - self.sampler_fires)
        series["buffer_occupancy"].append(now, held_total)
        series["queue_depth"].append(now, queue_total)

        # All series share the sampler's cadence, so when the lead series
        # decimates (sample budget hit) every other series did too; halve
        # the sampling rate from here on.
        if self._lead.decimations != self._decimations_seen:
            self._decimations_seen = self._lead.decimations
            self._dt = dt * 2

        # Open-loop runs grow ``num_tasks`` as arrivals are admitted:
        # keep sampling while the stream has events left even if the
        # current backlog happens to be drained.
        if (engine.completed < engine.num_tasks
                or (driver is not None and not driver.exhausted)):
            env.call_in(self._dt, self._sample)

    # ---------------------------------------------------------- finalize
    def finalize(self) -> TelemetrySnapshot:
        """Fold live probe state into an immutable snapshot."""
        engine = self.engine
        nodes = engine.nodes
        num_nodes = len(nodes)
        makespan = engine.last_completion_time

        counters: Dict[str, int] = {
            name: value for (name, node), value
            in self.registry.counters().items() if node is None
        }
        counters["completed"] = engine.completed
        counters["preemptions"] = sum(a.preemptions for a in nodes)
        counters["transfers"] = sum(a.transfers_started for a in nodes)
        counters["samples"] = self.sampler_fires

        # Contention-solver statistics (graph engines only): every stat
        # lands as a ``contention.*`` counter so kernel regressions —
        # memo hit rate collapsing, the solve count climbing — are
        # visible in exported snapshots and traces.
        manager = getattr(engine, "contention", None)
        if manager is not None:
            for name, value in manager.stats().items():
                counters[f"contention.{name}"] = value

        # Service-mode tallies (open-loop runs only): admission and
        # latency-fold scalars as ``service.*`` counters.
        driver = getattr(engine, "service_driver", None)
        if driver is not None:
            counters["service.offered"] = driver.offered
            counters["service.admitted"] = driver.admitted
            counters["service.dropped"] = driver.dropped
            counters["service.completed"] = driver.completed
            counters["service.pending_high_water"] = driver.pending_high_water

        if self.config.trace_events:
            compute_busy = tuple(
                float(self._compute_busy.get(a.id, 0)) for a in nodes)
            send_busy = tuple(
                float(self._send_busy.get(a.id, 0)) for a in nodes)
        else:
            # Sampling-only mode: a completed task occupied the CPU for
            # exactly ``w`` steps, so the integral is derivable without
            # paying for the per-event tap.  (Mid-run ``w`` mutations make
            # this approximate; the tap stays exact.)
            compute_busy = tuple(float(a.computed * a.w) for a in nodes)
            send_busy = ()

        if len(self._busy_time) < num_nodes:  # zero-fire or post-join runs
            grow = num_nodes - len(self._busy_time)
            self._busy_time.extend([0] * grow)
            self._starve_time.extend([0] * grow)
        per_node: Dict[str, Tuple[float, ...]] = {
            "computed": tuple(float(a.computed) for a in nodes),
            "compute_busy_time": compute_busy,
            "preemptions": tuple(float(a.preemptions) for a in nodes),
            "max_buffers": tuple(float(a.max_buffers_seen) for a in nodes),
            "cpu_busy_sampled_time": tuple(
                float(t) for t in self._busy_time[:num_nodes]),
            "starve_sampled_time": tuple(
                float(t) for t in self._starve_time[:num_nodes]),
        }
        if send_busy:
            per_node["send_busy_time"] = send_busy

        series: Dict[str, SeriesData] = {}
        node_series: Dict[str, Dict[int, SeriesData]] = {}
        for (name, node), data in self.registry.series_data().items():
            if node is None:
                series[name] = data
            else:
                node_series.setdefault(name, {})[node] = data

        if self.config.per_node_series and makespan > 0:
            # Final utilization sample at the makespan: the counter track
            # Perfetto shows ends on exactly the value
            # :func:`repro.metrics.usage.node_utilization` reports.
            util: Dict[int, SeriesData] = {}
            for agent in nodes:
                frac = compute_busy[agent.id] / makespan
                util[agent.id] = ((makespan,), (frac,))
            node_series["cpu_util"] = util

        return TelemetrySnapshot(
            num_nodes=num_nodes,
            makespan=makespan,
            sample_dt=self.config.sample_dt,
            effective_dt=self._dt,
            samples=self.sampler_fires,
            counters=counters,
            per_node=per_node,
            series=series,
            node_series=node_series,
        )
