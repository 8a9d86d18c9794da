"""Protocol configuration: variant, buffers, growth, and priority rules.

The paper's two protocols (§3) plus two non-paper baseline priority rules
used by the ablation benchmarks:

* ``BANDWIDTH_CENTRIC`` — children prioritized by ascending edge cost ``c``
  (the paper's rule; ties broken by node id);
* ``COMPUTE_CENTRIC`` — children prioritized by ascending compute time ``w``
  (the "obvious" rule the bandwidth-centric principle argues against);
* ``FIFO`` — requests served strictly in arrival order (no priorities).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..errors import ProtocolError

if TYPE_CHECKING:  # import only for annotations: telemetry imports protocols
    from ..telemetry.config import TelemetryConfig

__all__ = ["ProtocolVariant", "PriorityRule", "ProtocolConfig"]


class ProtocolVariant(enum.Enum):
    """Communication model of §3.1 / §3.2."""

    #: A started transfer always runs to completion (§3.1).
    NON_INTERRUPTIBLE = "non-IC"
    #: Higher-priority requests preempt in-flight transfers; partial
    #: transfers are shelved and later resumed (§3.2).
    INTERRUPTIBLE = "IC"


class PriorityRule(enum.Enum):
    """How a parent orders its children when delegating tasks."""

    BANDWIDTH_CENTRIC = "bandwidth-centric"
    COMPUTE_CENTRIC = "compute-centric"
    FIFO = "fifo"


@dataclass(frozen=True)
class ProtocolConfig:
    """Full description of one autonomous protocol instance.

    Use the factory classmethods for the paper's named configurations:
    ``ProtocolConfig.interruptible(buffers=3)`` is the headline "IC, FB=3"
    protocol; ``ProtocolConfig.non_interruptible()`` is "non-IC, IB=1" with
    buffer growth.
    """

    variant: ProtocolVariant
    #: Buffers per node at start ("IB" for growing, "FB" for fixed setups).
    initial_buffers: int = 1
    #: Whether nodes may grow extra buffers (§3.1 growth rules 1–3).
    buffer_growth: bool = True
    #: Optional hard cap on buffers per node (``None`` = unbounded growth).
    max_buffers: Optional[int] = None
    #: Child-ordering rule (the paper always uses bandwidth-centric).
    priority_rule: PriorityRule = PriorityRule.BANDWIDTH_CENTRIC
    #: Buffer decay (§2.2: "a correct protocol must allow for buffer growth
    #: and, optimally, buffer decay" — the paper never implements it; we
    #: do).  After ``decay_threshold`` consecutive task completions /
    #: forwards during which the node was never starved, the next freed
    #: buffer is destroyed instead of re-requested, down to the initial
    #: pool size.  Purely local information, like everything else.
    buffer_decay: bool = False
    #: Consecutive surplus (or idle-arrival) events required per shed
    #: buffer.  Must exceed the node's steady-state cycle length in
    #: completions, or decay oscillates against genuinely needed stock.
    decay_threshold: int = 8
    #: Growth damping: after growing a buffer, a node may not grow again
    #: until it has received another task.  The paper states its growth
    #: events were chosen to "discourage over-growth" without spelling out
    #: the damping; read literally (undamped), a node that immediately
    #: forwards every arrival to perpetually-requesting children grows on
    #: every single task it handles — far beyond Table 2's magnitudes.
    #: Capping growth at one per arrival cycle reproduces the paper's
    #: buffer-usage trends across computation-to-communication classes and
    #: its ~20% reached-optimal figure for non-IC.  Set to ``False`` for
    #: the undamped literal reading.
    growth_cooldown: bool = True
    #: Liveness-probe period (virtual time) of the fault-recovery protocol:
    #: while a :class:`~repro.platform.faults.FaultSchedule` is active, a
    #: parent's liveness sweeps fall on a grid of this period (scheduled
    #: only while a child is unreachable and not yet suspected).  Ignored
    #: (no probes, no timers) when the run has no fault schedule.
    request_timeout: int = 50
    #: Consecutive failed probes before a suspect child is declared dead
    #: and its subtree's lost tasks are reclaimed to the root.
    max_retries: int = 3
    #: Multiplier applied to the probe delay after each failed probe
    #: (exponential backoff; ``1`` probes at a constant period).
    backoff_factor: int = 2
    #: Steady-state warp (:mod:`repro.sim.warp`): once the run's state
    #: fingerprint recurs, whole periods of the periodic steady state are
    #: advanced analytically instead of event by event.  Results are
    #: provably identical (`SimulationResult.fingerprint()` matches the
    #: exact run); long quiescent runs get dramatically faster.  Warp
    #: stands down automatically under mutations, churn, faults, or any
    #: recorder in the engine's ``sinks``, so it is always safe to leave on —
    #: it defaults off only to keep pre-warp calendars bit-identical for
    #: auditing.
    warp: bool = False
    #: Telemetry probes (:mod:`repro.telemetry`): ``None`` (the default)
    #: runs with zero instrumentation; a
    #: :class:`~repro.telemetry.config.TelemetryConfig` attaches sampling
    #: probes (and, optionally, the exact event tap, which joins the
    #: engine's ``sinks``) to the run, and the result gains a
    #: :class:`~repro.telemetry.probes.TelemetrySnapshot`.  Sampling is
    #: read-only, so fingerprints are unaffected; warp stands down while
    #: probes are attached, like it does for tracing.
    telemetry: Optional["TelemetryConfig"] = None

    def __post_init__(self):
        if self.initial_buffers < 1:
            raise ProtocolError(
                f"initial_buffers must be >= 1, got {self.initial_buffers}")
        if self.max_buffers is not None and self.max_buffers < self.initial_buffers:
            raise ProtocolError(
                f"max_buffers ({self.max_buffers}) below initial_buffers "
                f"({self.initial_buffers})")
        if self.decay_threshold < 1:
            raise ProtocolError(
                f"decay_threshold must be >= 1, got {self.decay_threshold}")
        if self.buffer_decay and not self.buffer_growth:
            raise ProtocolError(
                "buffer_decay without buffer_growth would only shrink the "
                "fixed pool; enable growth or drop decay")
        if self.request_timeout < 1:
            raise ProtocolError(
                f"request_timeout must be >= 1, got {self.request_timeout}")
        if self.max_retries < 1:
            raise ProtocolError(
                f"max_retries must be >= 1, got {self.max_retries}")
        if self.backoff_factor < 1:
            raise ProtocolError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if (self.variant is ProtocolVariant.INTERRUPTIBLE
                and self.priority_rule is PriorityRule.FIFO):
            # FIFO has no priorities, so nothing can ever preempt: the
            # combination silently degrades to non-IC, which would make
            # ablation results misleading. Reject it instead.
            raise ProtocolError(
                "FIFO ordering cannot preempt; use NON_INTERRUPTIBLE with FIFO")

    # ------------------------------------------------------------ factories
    @classmethod
    def interruptible(cls, buffers: int = 3, **kwargs) -> "ProtocolConfig":
        """The paper's "IC, FB=n" protocol (fixed buffers, no growth)."""
        return cls(ProtocolVariant.INTERRUPTIBLE, initial_buffers=buffers,
                   buffer_growth=False, **kwargs)

    @classmethod
    def non_interruptible(cls, initial_buffers: int = 1, *,
                          buffer_growth: bool = True,
                          max_buffers: Optional[int] = None,
                          **kwargs) -> "ProtocolConfig":
        """The paper's "non-IC, IB=n" protocol (growing buffers by default)."""
        return cls(ProtocolVariant.NON_INTERRUPTIBLE,
                   initial_buffers=initial_buffers,
                   buffer_growth=buffer_growth, max_buffers=max_buffers,
                   **kwargs)

    @property
    def label(self) -> str:
        """Short display label matching the paper's legends."""
        if self.variant is ProtocolVariant.INTERRUPTIBLE:
            base = f"IC, FB={self.initial_buffers}"
        elif self.buffer_growth:
            base = f"non-IC, IB={self.initial_buffers}"
        else:
            base = f"non-IC, FB={self.initial_buffers}"
        if self.priority_rule is not PriorityRule.BANDWIDTH_CENTRIC:
            base += f" [{self.priority_rule.value}]"
        return base
