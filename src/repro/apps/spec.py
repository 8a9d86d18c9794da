"""Application and workload specifications for multi-application runs.

The paper schedules one bag of independent tasks; production traffic is
*many* concurrent bags contending for the same platform (Legrand &
Touati's non-cooperative bag-of-tasks game).  :class:`Application`
describes one bag — how many tasks, how big each is, when the bag
arrives, and how urgent it is — and :class:`Workload` is what the public
:func:`repro.simulate` front door accepts in place of the old positional
``num_tasks`` int: a plain int, one application, or a list of them all
coerce via :meth:`Workload.of`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from ..errors import ProtocolError

__all__ = ["Application", "Workload", "AppResult"]


@dataclass(frozen=True)
class Application:
    """One bag of independent tasks submitted to the shared platform.

    The defaults make a single default application behave exactly like
    the legacy ``num_tasks`` int: size-1 tasks, present at t=0, neutral
    priority, sourced at the repository root.
    """

    #: Number of tasks in the bag (the finite workload).  0 is only
    #: meaningful together with ``arrivals`` (open-loop apps stream).
    tasks: int = 0
    #: Display name (defaults to ``app<i>`` at result time).
    name: str = ""
    #: Relative task size: scales both the per-task compute time and the
    #: transfer volume.  1 reproduces the paper's unit tasks.
    size: Union[int, Fraction] = 1
    #: Virtual time at which the bag arrives (its agents start
    #: requesting).  0 means present from the start.
    arrival: int = 0
    #: Priority under the ``selfish`` allocator — lower is more urgent,
    #: matching the protocol's ascending ``(c, node id)`` keys.  Ignored
    #: by ``maxmin``/``fairshare``.
    priority: int = 0
    #: Source node hosting the bag's repository.  ``None`` means the
    #: platform root; any other host makes the bag's tasks fan out from
    #: that node over shortest routes (graph platforms).
    source: Optional[int] = None
    #: Open-loop arrival process replacing the finite bag (service
    #: mode).  Mutually exclusive with a non-zero ``tasks``.
    arrivals: Optional[object] = None
    #: Admission policy for open-loop arrivals (default: admit all).
    admission: Optional[object] = None

    def __post_init__(self):
        if self.tasks < 0:
            raise ProtocolError(
                f"application tasks must be >= 0, got {self.tasks}")
        if self.size <= 0:
            raise ProtocolError(
                f"application task size must be > 0, got {self.size}")
        if self.arrival < 0:
            raise ProtocolError(
                f"application arrival must be >= 0, got {self.arrival}")
        if self.arrivals is not None and self.tasks:
            raise ProtocolError(
                "an open-loop application streams its tasks: pass "
                f"arrivals= with tasks=0, not tasks={self.tasks}")
        if self.admission is not None and self.arrivals is None:
            raise ProtocolError("admission= requires arrivals=")

    def label(self, index: int) -> str:
        """Display name, falling back to ``app<index>``."""
        return self.name or f"app{index}"

    def __repr__(self):
        # Stable repr contract: checkpoint journals digest workload
        # reprs, so fields added after the multi-app release only
        # appear when set — a closed-bag spec digests exactly as it
        # did before service mode existed.
        parts = [f"tasks={self.tasks!r}", f"name={self.name!r}",
                 f"size={self.size!r}", f"arrival={self.arrival!r}",
                 f"priority={self.priority!r}", f"source={self.source!r}"]
        if self.arrivals is not None:
            parts.append(f"arrivals={self.arrivals!r}")
        if self.admission is not None:
            parts.append(f"admission={self.admission!r}")
        return f"Application({', '.join(parts)})"


@dataclass(frozen=True)
class Workload:
    """What to run: either a plain bag of ``tasks`` unit tasks (the
    single-application case) or a tuple of :class:`Application`\\ s.

    ``Workload.of`` coerces a plain int, one application or a sequence of
    them, so callers can pass whichever shape is handiest.
    """

    #: Unit tasks of the single default application (ignored when
    #: ``apps`` is non-empty).
    tasks: int = 0
    #: Explicit applications; empty means the single default app.
    apps: Tuple[Application, ...] = ()
    #: Open-loop arrival process for the single default application
    #: (service mode).  Mutually exclusive with ``apps`` — per-app
    #: streams go on the :class:`Application` specs instead.
    arrivals: Optional[object] = None
    #: Admission policy paired with ``arrivals``.
    admission: Optional[object] = None

    def __post_init__(self):
        if not self.apps and self.tasks < 0:
            raise ProtocolError(
                f"workload tasks must be >= 0, got {self.tasks}")
        if self.arrivals is not None:
            if self.apps:
                raise ProtocolError(
                    "per-app arrival processes go on the Application "
                    "specs, not the Workload")
            if self.tasks:
                raise ProtocolError(
                    "an open-loop workload streams its tasks: pass "
                    f"arrivals= with tasks=0, not tasks={self.tasks}")
        elif self.admission is not None:
            raise ProtocolError("admission= requires arrivals=")

    def __repr__(self):
        # Same stable-repr contract as Application (checkpoint digests).
        parts = [f"tasks={self.tasks!r}", f"apps={self.apps!r}"]
        if self.arrivals is not None:
            parts.append(f"arrivals={self.arrivals!r}")
        if self.admission is not None:
            parts.append(f"admission={self.admission!r}")
        return f"Workload({', '.join(parts)})"

    @classmethod
    def of(cls, value) -> "Workload":
        """Coerce an int / Application / sequence / Workload."""
        if isinstance(value, Workload):
            return value
        if isinstance(value, int):
            return cls(tasks=value)
        if isinstance(value, Application):
            return cls(apps=(value,))
        try:
            apps = tuple(value)
        except TypeError:
            raise ProtocolError(
                f"cannot build a Workload from {value!r}") from None
        if not all(isinstance(a, Application) for a in apps):
            raise ProtocolError(
                "a workload sequence must contain only Applications")
        if not apps:
            raise ProtocolError("a workload needs at least one application")
        return cls(apps=apps)

    @property
    def applications(self) -> Tuple[Application, ...]:
        """The applications to run — synthesizing the single default app
        from ``tasks`` when none were given explicitly."""
        if self.apps:
            return self.apps
        return (Application(tasks=self.tasks, arrivals=self.arrivals,
                            admission=self.admission),)

    @property
    def is_multi(self) -> bool:
        """True when applications were specified explicitly (even one:
        it may carry a non-default size/arrival/priority)."""
        return bool(self.apps)

    @property
    def total_tasks(self) -> int:
        return sum(app.tasks for app in self.applications)


@dataclass(frozen=True)
class AppResult:
    """Per-application slice of a multi-application run."""

    #: The spec this result belongs to.
    app: Application
    #: Position in the workload's application tuple.
    index: int
    #: Completion times of this app's tasks (absolute sim time), as the
    #: lane's :class:`~repro.sim.warp.PeriodicTimeline`.
    completion_times: Sequence[int]
    #: Tasks of this app computed by each overlay node.
    per_node_computed: Tuple[int, ...]
    #: Absolute sim time of the app's last completion (0 if no tasks).
    makespan: int
    #: Steady-state rate over the middle window of the app's run
    #: (tasks per timestep, exact; 0 for trivial runs).
    steady_rate: Fraction
    #: Preemptions / transfers attributable to this app's agents.
    preemptions: int = 0
    transfers: int = 0
    #: Per-app telemetry snapshot (``None`` unless telemetry was on).
    #: Excluded from :meth:`fingerprint_parts` like the run-level one.
    telemetry: Optional[object] = None
    #: Per-app service stats (``None`` unless the app is open-loop).
    service: Optional[object] = None

    @property
    def name(self) -> str:
        return self.app.label(self.index)

    @property
    def duration(self) -> int:
        """Makespan relative to the app's arrival."""
        if self.makespan == 0 and not self.completion_times:
            return 0
        return self.makespan - self.app.arrival

    def fingerprint_parts(self) -> tuple:
        """Deterministic parts folded into the run fingerprint (N > 1
        only — see :meth:`SimulationResult.fingerprint`)."""
        parts = (self.name, self.index, self.app.tasks, self.app.size,
                 self.app.arrival, self.app.priority,
                 self.completion_times, self.per_node_computed,
                 self.makespan, self.steady_rate,
                 self.preemptions, self.transfers)
        # Post-multi-app fields fold in only when set, so pre-service
        # fingerprints are preserved bit-for-bit.
        if self.app.source is not None:
            parts += ("source", self.app.source)
        if self.service is not None:
            parts += self.service.fingerprint_parts()
        return parts
