"""Time-series probes: watch a protocol run, fold it into a snapshot.

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
* the **event tap** — when ``trace_events=True`` the probe joins the
  engine's ``sinks`` (ahead of any user tracer) and receives every
  protocol trace event through the
  :meth:`~repro.protocols.trace.Tracer.record` interface.  It integrates
  *exact* per-node compute/send busy intervals and per-kind event counts,
  at the cost of one callback per protocol event.

The probe holds its counts in a plain dict and its series as
:class:`TimeSeries`; :meth:`TelemetryProbe.finalize` folds everything
into an immutable, picklable :class:`TelemetrySnapshot` that rides on the
simulation result through the crash-safe harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..protocols import trace as _trace
from .config import TelemetryConfig

__all__ = ["TelemetryProbe", "TelemetrySnapshot", "TimeSeries", "SeriesData"]

#: One materialized time series: ``(times, values)``, same length.
SeriesData = Tuple[Tuple[int, ...], Tuple[float, ...]]

#: Global series names the sampler maintains.
_GLOBAL_SERIES = ("completed", "events", "buffer_occupancy", "queue_depth")


class TimeSeries:
    """Bounded ``(time, value)`` series with halving decimation.

    ``append`` assumes non-decreasing times (virtual time only moves
    forward).  When the series exceeds ``max_samples`` it drops every
    other retained sample — oldest first within the kept set — so the
    series always spans the full run at a coarser resolution instead of
    truncating its head or tail.
    """

    __slots__ = ("max_samples", "times", "values", "decimations")

    def __init__(self, max_samples: Optional[int] = None):
        self.max_samples = max_samples
        self.times: List[int] = []
        self.values: List[float] = []
        self.decimations = 0

    def append(self, time, value) -> None:
        self.times.append(time)
        self.values.append(value)
        if self.max_samples is not None and len(self.times) > self.max_samples:
            self.decimate()

    def decimate(self) -> None:
        """Keep every other sample (the newest is always retained)."""
        start = 1 - len(self.times) % 2
        self.times = self.times[start::2]
        self.values = self.values[start::2]
        self.decimations += 1

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return iter(zip(self.times, self.values))

    def as_tuples(self) -> SeriesData:
        """Immutable ``(times, values)`` pair for snapshots."""
        return tuple(self.times), tuple(self.values)


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
        #: Calendar entries consumed by the sampler itself; the engine
        #: subtracts this from ``events_processed`` so sampling never
        #: shows up in the result's fingerprint.
        self.sampler_fires = 0
        self._dt = config.sample_dt
        self._decimations_seen = 0

        #: Global series by name; :meth:`start` adds the contention and
        #: service tracks of runs that have them.
        self._series = {name: TimeSeries(config.max_samples)
                        for name in _GLOBAL_SERIES}
        self._lead = self._series["completed"]
        self._contention_series: Optional[tuple] = None
        self._service_series: Optional[tuple] = None
        # Per-node series (``per_node_series``), indexed by node id.
        self._buffer_series: List[TimeSeries] = []
        self._queue_series: List[TimeSeries] = []

        # Event-tap state (exact interval integration).
        self._compute_open: Dict[int, int] = {}
        self._send_open: Dict[int, int] = {}
        self._compute_busy: Dict[int, int] = {}
        self._send_busy: Dict[int, int] = {}
        self._kind_counts: Dict[str, int] = {}
        if config.trace_events:
            engine.sinks.append(self)

        # Sampled per-node time tallies, indexed by node id (node ids are
        # list positions in ``engine.nodes``, including churn joins).
        # Weighted by the live period, so decimation-era samples count for
        # their longer coverage.  Lists, not dicts: the sampler touches
        # every node every fire, and this loop is the whole overhead story.
        self._busy_time: List[int] = []
        self._starve_time: List[int] = []

    # -------------------------------------------------------------- tap
    def record(self, time, kind: str, node: int, peer=None) -> None:
        """Tracer-interface entry point: one protocol event."""
        counts = self._kind_counts
        counts[kind] = counts.get(kind, 0) + 1
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
    def _tracks(self, *names: str) -> tuple:
        series = self._series
        for name in names:
            series[name] = TimeSeries(self.config.max_samples)
        return tuple(series[name] for name in names)

    def start(self) -> None:
        """Add the run's contention and service tracks and schedule the
        first sample (called by the engine at t=0)."""
        engine = self.engine
        if getattr(engine, "contention", None) is not None:
            self._contention_series = self._tracks(
                "contention_solves", "contention_memo_hits")
        if engine.service_driver is not None:
            self._service_series = self._tracks(
                "service_in_system", "service_admitted", "service_dropped")
        engine.env.call_in(self._dt, self._sample)

    def _sample(self) -> None:
        self.sampler_fires += 1
        engine = self.engine
        env = engine.env
        now = env.now
        dt = self._dt

        held_total = 0
        queue_total = 0
        per_node_on = self.config.per_node_series
        busy_time = self._busy_time
        starve_time = self._starve_time
        buffer_series = self._buffer_series
        queue_series = self._queue_series
        nodes = engine.nodes
        if len(busy_time) < len(nodes):  # churn joins grow the platform
            grow = len(nodes) - len(busy_time)
            busy_time.extend([0] * grow)
            starve_time.extend([0] * grow)
            if per_node_on:
                cap = self.config.max_samples
                for _ in range(grow):
                    buffer_series.append(TimeSeries(cap))
                    queue_series.append(TimeSeries(cap))
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
                buffer_series[i].append(now, held)
                queue_series[i].append(now, agent.child_requests)

        tracks = self._contention_series
        if tracks is not None:
            manager = engine.contention
            tracks[0].append(
                now, manager.settles_full + manager.settles_incremental)
            tracks[1].append(now, manager.memo_hits)

        driver = engine.service_driver
        tracks = self._service_series
        if tracks is not None:
            tracks[0].append(now, len(driver.pending))
            tracks[1].append(now, driver.admitted)
            tracks[2].append(now, driver.dropped)

        series = self._series
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
            f"events.{kind}": count
            for kind, count in sorted(self._kind_counts.items())
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
        driver = engine.service_driver
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

        series: Dict[str, SeriesData] = {
            name: data.as_tuples()
            for name, data in sorted(self._series.items())}
        node_series: Dict[str, Dict[int, SeriesData]] = {}
        if self._buffer_series:
            node_series["buffer_occupancy"] = {
                i: data.as_tuples()
                for i, data in enumerate(self._buffer_series)}
            node_series["queue_depth"] = {
                i: data.as_tuples()
                for i, data in enumerate(self._queue_series)}

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
