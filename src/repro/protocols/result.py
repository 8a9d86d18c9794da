"""Result record of one protocol simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .._digest import sha256
from ..platform.tree import PlatformTree
from ..sim.warp import PeriodicTimeline, WarpSummary
from .config import ProtocolConfig

if TYPE_CHECKING:  # annotation-only: the telemetry package imports protocols
    from ..apps.spec import AppResult
    from ..service.slo import ServiceStats
    from ..telemetry.probes import TelemetrySnapshot

__all__ = ["SimulationResult"]

#: Items of a long sequence part whose ``repr`` is built at once.
_REPR_CHUNK = 4096


def update_repr(digest, part) -> None:
    """Feed ``digest`` exactly the bytes of ``repr(part)``.

    A tuple or :class:`~repro.sim.warp.PeriodicTimeline` part goes in
    ``_REPR_CHUNK`` items at a time, so a million-task timeline never
    has its whole ``repr`` (nor the tuple behind it) in memory at once.
    """
    if type(part) is not tuple and type(part) is not PeriodicTimeline:
        digest.update(repr(part).encode("utf-8"))
        return
    items = iter(part)
    digest.update(b"(")
    separator = b""
    while True:
        chunk = tuple(islice(items, _REPR_CHUNK))
        if not chunk:
            break
        digest.update(separator)
        digest.update(", ".join(map(repr, chunk)).encode("utf-8"))
        separator = b", "
    digest.update(b",)" if len(part) == 1 else b")")


@dataclass(frozen=True)
class SimulationResult:
    """Everything a protocol run produced, ready for the metrics layer.

    Completion times are in virtual timesteps and non-decreasing;
    ``completion_times[i]`` is when the ``i+1``-th task finished computing.
    Every run returns each timeline as a
    :class:`~repro.sim.warp.PeriodicTimeline`, equal in every respect to
    the tuple of its items: an exact run's has zero periods and its whole
    record as the head (an ``array('q')`` when the items are ints), a
    warped run's stores the skipped span as one period.
    """

    #: The platform as it stood at the *end* of the run (mutations applied).
    tree: PlatformTree
    config: ProtocolConfig
    num_tasks: int
    #: Time of each task completion (length == num_tasks; empty if not
    #: recorded), as a ``PeriodicTimeline`` on every run.
    completion_times: Sequence[int]
    #: Tasks computed by each node (length == tree.num_nodes).
    per_node_computed: Tuple[int, ...]
    #: High-water buffer *pool* size of each node (grown buffers).
    per_node_max_buffers: Tuple[int, ...]
    #: High-water of *simultaneously occupied* buffers of each node — the
    #: "buffers used" figure Tables 1 and 2 are read against (the root's
    #: repository is not buffered, so its entry is 0).
    per_node_max_held: Tuple[int, ...]
    #: Global pool high-water as of each completion (empty if not
    #: recorded; a ``PeriodicTimeline``, like ``completion_times``).
    buffer_high_water_at_completion: Sequence[int]
    #: Global occupied high-water as of each completion (likewise).
    held_high_water_at_completion: Sequence[int]
    #: Nodes that left the pool during the run (graceful churn departures).
    departed_node_ids: Tuple[int, ...]
    #: Total buffers shed by decay across all nodes (0 unless enabled).
    buffers_decayed: int
    #: Total preemptions across all nodes (0 under non-IC).
    preemptions: int
    #: Total transfers started (resumed legs not re-counted).
    transfers: int
    #: Calendar entries processed by the kernel.
    events_processed: int
    #: Virtual time at which the repository handed out its last task
    #: (``None`` for empty runs); everything after it is wind-down.
    repository_exhausted_at: Optional[int] = None
    #: Nodes destroyed by :class:`~repro.platform.faults.CrashEvent`\ s,
    #: one per crash, in death order.
    crashed_node_ids: Tuple[int, ...] = ()
    #: Task instances destroyed by faults and re-dispensed by the root.
    tasks_reexecuted: int = 0
    #: Transfers (in flight or shelved) killed by crashes, link outages,
    #: or dead-child declarations — pure wasted link time.
    transfers_wasted: int = 0
    #: Virtual time of each :class:`~repro.platform.faults.CrashEvent`.
    crash_times: Tuple[int, ...] = ()
    #: Virtual time of each reclaim (lost work re-entering the repository);
    #: ``reclaim - crash`` is the protocol's detection/recovery latency.
    reclaim_times: Tuple[int, ...] = ()
    #: Virtual time of the final completion, tracked as a running fold so
    #: aggregate metrics survive ``record_completion_times=False`` runs.
    last_completion_time: int = 0
    #: Steady-state warp outcome (``None`` unless ``config.warp`` was set).
    #: Excluded from :meth:`fingerprint` by design: a warped run and its
    #: exact twin must fingerprint identically.
    warp: Optional[WarpSummary] = None
    #: Telemetry snapshot (``None`` unless ``config.telemetry`` was set).
    #: Also excluded from :meth:`fingerprint`: probes are read-only and the
    #: sampler's own calendar entries are subtracted from
    #: :attr:`events_processed`, so a telemetry-on run fingerprints
    #: identically to its telemetry-off twin.
    telemetry: Optional["TelemetrySnapshot"] = None
    #: Service-level stats of an open-loop run (``None`` for closed
    #: bags).  *Included* in :meth:`fingerprint` when present: the warp
    #: equivalence contract extends to the entire latency fold, so a
    #: warped service run must reproduce the exact run's sketch
    #: bit-for-bit.
    service: Optional["ServiceStats"] = None
    #: Per-application results of a multi-application run, in application
    #: order.  A single-app run through the legacy engines leaves this
    #: empty; the multi-app engine fills it even for N=1 (where the rest
    #: of the record is bit-identical to the single-app engine's).
    apps: Tuple["AppResult", ...] = ()

    @property
    def makespan(self) -> int:
        """Virtual time of the last completion (0 for an empty run)."""
        if self.completion_times:
            return self.completion_times[-1]
        return self.last_completion_time

    @property
    def max_buffers(self) -> int:
        """Largest buffer pool any node grew during the run."""
        return max(self.per_node_max_buffers, default=0)

    @property
    def max_held(self) -> int:
        """Largest number of buffers any node had occupied at once."""
        return max(self.per_node_max_held, default=0)

    @property
    def used_node_ids(self) -> List[int]:
        """Nodes that computed at least one task (Figure 6's "used nodes")."""
        return [i for i, n in enumerate(self.per_node_computed) if n > 0]

    @property
    def num_used_nodes(self) -> int:
        return sum(1 for n in self.per_node_computed if n > 0)

    @property
    def used_depth(self) -> int:
        """Maximum depth among used nodes (0 if only the root computed)."""
        used = self.used_node_ids
        return max((self.tree.depth(i) for i in used), default=0)

    def mean_rate(self) -> float:
        """Overall tasks-per-timestep over the whole run (0 if trivial)."""
        if self.makespan == 0:
            return 0.0
        return self.num_tasks / self.makespan

    def fingerprint(self) -> str:
        """sha256 over every deterministic field of the run.

        Two runs of the same (tree, config, workload) are bit-identical
        exactly when their fingerprints match — the crash-safe harness's
        resume and workers=1-vs-N equivalence tests compare these instead
        of whole objects.
        """
        digest = sha256()
        fields = (
            self.config.label, self.num_tasks,
            self.completion_times, self.per_node_computed,
            self.per_node_max_buffers, self.per_node_max_held,
            self.buffer_high_water_at_completion,
            self.held_high_water_at_completion,
            self.departed_node_ids, self.buffers_decayed,
            self.preemptions, self.transfers, self.events_processed,
            self.repository_exhausted_at, self.crashed_node_ids,
            self.tasks_reexecuted, self.transfers_wasted,
            self.crash_times, self.reclaim_times,
            self.last_completion_time,
        )
        groups = [fields]
        if self.service is not None:
            # Closed-bag runs must fingerprint exactly as they did before
            # service mode existed, so the service fold only enters the
            # digest when an arrival process was actually driving.
            groups.append(self.service.fingerprint_parts())
        if len(self.apps) > 1:
            # N=1 multi-app runs must fingerprint bit-identically to the
            # single-app engine, so per-app parts only enter the digest
            # when there genuinely is more than one application.
            groups.extend(app.fingerprint_parts() for app in self.apps)
        for part in chain.from_iterable(groups):
            update_repr(digest, part)
            digest.update(b"\x1f")
        return digest.hexdigest()

    @property
    def jain_index(self) -> Optional[float]:
        """Jain fairness index over per-app steady-state rates.

        ``(Σx)² / (n·Σx²)`` — 1.0 when every application achieves the
        same rate, ``1/n`` when one app starves the rest.  ``None``
        unless this was a multi-application run.
        """
        if len(self.apps) < 2:
            return None
        from ..apps.metrics import jain_index
        return jain_index([app.steady_rate for app in self.apps])

    @property
    def cooperative_rate(self) -> Optional[Fraction]:
        """The cooperative optimum, ``solve_tree(self.tree).rate``, solved
        on each read; ``None`` unless the run had explicit applications."""
        if not self.apps:
            return None
        from ..steady_state.solver import solve_tree
        return solve_tree(self.tree).rate

    @property
    def price_of_anarchy(self) -> Optional[float]:
        """Cooperative optimal aggregate rate / achieved aggregate rate.

        ≥ 1; how much total throughput the non-cooperative split left on
        the table.  ``None`` unless at least one per-app rate is positive.
        """
        from ..apps.metrics import price_of_anarchy
        return price_of_anarchy(
            [app.steady_rate for app in self.apps], self.cooperative_rate)

    def surviving_tree(self) -> PlatformTree:
        """The platform with every crashed node's subtree pruned — what
        the steady-state model (``solve_tree``) should be fed to predict
        the post-recovery rate: a crash cuts its children off, and they
        only finish what they hold.  Node ids are relabelled by the
        pruning."""
        if not self.crashed_node_ids:
            return self.tree
        return self.tree.pruned_many(self.crashed_node_ids)
