"""repro — bandwidth-centric autonomous scheduling on tree overlays.

A complete, from-scratch reproduction of *"Autonomous Protocols for
Bandwidth-Centric Scheduling of Independent-task Applications"*
(Kreaseck, Carter, Casanova, Ferrante — IPDPS 2003), including:

* :mod:`repro.sim` — a discrete-event simulation kernel (SimGrid substitute),
* :mod:`repro.platform` — node/edge-weighted platform trees, the paper's
  random generator, dynamic mutations, churn, fault schedules, overlays,
* :mod:`repro.steady_state` — the optimal steady-state theory (Theorem 1 and
  the bottom-up tree solver) in exact rational arithmetic,
* :mod:`repro.protocols` — the autonomous non-interruptible (non-IC) and
  interruptible (IC) communication protocols plus ablation baselines,
* :mod:`repro.metrics` — windowed throughput, steady-state onset detection,
  buffer and used-subtree statistics, fault-recovery reports,
* :mod:`repro.experiments` — harness regenerating every table and figure of
  the paper's evaluation section,
* :mod:`repro.harness` — crash-safe sweep infrastructure: checkpointed
  journals, a supervised worker pool with per-seed retry/backoff, and
  resume of interrupted ensembles (:class:`~repro.harness.HarnessConfig`),
* :mod:`repro.telemetry` — disabled-by-default observability:
  read-only run probes, JSONL/CSV/Perfetto exporters, and ensemble
  aggregation (:class:`~repro.telemetry.TelemetryConfig`),
* :mod:`repro.service` — service mode: open-loop streaming arrival
  processes, admission control, and O(1)-memory latency SLO folds
  (:class:`~repro.service.PoissonArrivals`,
  :class:`~repro.service.TokenBucket`,
  :class:`~repro.service.ServiceStats`).

Quickstart::

    from repro import generate_tree, solve_tree, simulate, ProtocolConfig

    tree = generate_tree(seed=7)
    optimal = solve_tree(tree)
    result = simulate(tree, 2000, ProtocolConfig.interruptible(buffers=3))
    print(result.makespan, float(optimal.rate))

Concurrent applications share the platform through the same front door::

    from repro import Application

    apps = [Application(1000, name="alpha"), Application(1000, name="beta")]
    result = simulate(tree, apps, config, allocator="selfish")
    print(result.jain_index, result.price_of_anarchy)

Fault injection and recovery metrics are first-class::

    from repro import CrashEvent, FaultSchedule, recovery_report

    faults = FaultSchedule([CrashEvent(at_time=200, node=3)])
    report = recovery_report(simulate(tree, 2000, config, faults=faults))
"""

from ._exports import export as _export
from ._version import __version__
from .errors import (
    ExperimentError,
    PlatformError,
    ProtocolError,
    ReproError,
    SimulationError,
    SolverError,
)

#: Lazy exports, defining module → public names (see :mod:`repro._exports`):
#: ``import repro`` imports none of them; each name resolves on first access
#: and is cached in this module's globals.
_lazy_names = _export(globals(), {
    # platform model
    ".platform.tree": ("PlatformTree", "TreeNode"),
    ".platform.graph": ("PlatformGraph", "Overlay", "generate_platform"),
    ".platform.contention": ("LinkContention", "max_min_rates",
                             "fair_share_rates", "selfish_rates"),
    ".platform.generator": ("generate_tree", "TreeGeneratorParams"),
    ".platform.mutation": ("Mutation", "MutationSchedule"),
    ".platform.churn": ("ChurnSchedule", "JoinEvent", "LeaveEvent"),
    # fault injection
    ".platform.faults": ("FaultSchedule", "CrashEvent",
                         "LinkFailureEvent", "LinkRepairEvent",
                         "EdgeFailureEvent", "EdgeRepairEvent",
                         "SwitchCrashEvent", "DegradeEvent",
                         "chaos_schedule"),
    # steady-state theory
    ".steady_state.solver": ("solve_tree", "SteadyStateSolution"),
    ".steady_state.fork": ("solve_fork", "ForkSolution"),
    # the simulation front door: every run starts here
    ".api": ("simulate",),
    # multi-application scheduling
    ".apps.spec": ("Application", "Workload", "AppResult"),
    ".apps.engine": ("MultiAppEngine",),
    ".apps.metrics": ("jain_index", "price_of_anarchy",
                      "fault_fairness"),
    # protocols
    ".protocols.config": ("ProtocolConfig", "ProtocolVariant",
                          "PriorityRule"),
    ".protocols.engine": ("ProtocolEngine",),
    ".protocols.graph_engine": ("GraphProtocolEngine",
                                "GraphFaultDriver"),
    ".protocols.result": ("SimulationResult",),
    ".protocols.trace": ("Tracer", "TraceEvent", "ascii_gantt"),
    # steady-state warp
    ".sim.warp": ("WarpSummary", "WarpController"),
    # measurement
    ".metrics.windows": ("steady_state_rate",),
    ".metrics.usage": ("node_utilization",),
    ".metrics.faults": ("RecoveryReport", "recovery_report",
                        "recovery_latencies", "post_recovery_rate",
                        "degraded_windows"),
    # service mode: open-loop arrivals, admission control, latency SLOs
    ".service.arrivals": ("ArrivalProcess", "PoissonArrivals",
                          "BurstArrivals", "DiurnalArrivals",
                          "PeriodicArrivals", "parse_arrivals"),
    ".service.admission": ("AdmissionPolicy", "AlwaysAdmit",
                           "QueueDepthBound", "TokenBucket",
                           "parse_admission"),
    ".service.slo": ("LatencySketch", "ServiceStats"),
    # telemetry subsystem
    ".telemetry.config": ("TelemetryConfig",),
    ".telemetry.probes": ("TelemetrySnapshot",),
    ".telemetry.aggregate": ("aggregate_snapshots",),
    ".telemetry.export": ("chrome_trace", "write_chrome_trace",
                          "dump_jsonl", "load_jsonl"),
    # experiment harness
    ".experiments.common": ("ExperimentScale",),
    # crash-safe sweep harness
    ".harness.runner": ("HarnessConfig",),
    ".harness.pool": ("RetryPolicy", "RunCoverage", "SeedFailure"),
    ".harness.checkpoint": ("CheckpointStore",),
})

__all__ = [
    "__version__",
    "ReproError",
    "SimulationError",
    "PlatformError",
    "SolverError",
    "ProtocolError",
    "ExperimentError",
    *sorted(_lazy_names),
]
