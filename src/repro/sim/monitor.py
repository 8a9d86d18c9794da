"""Lightweight instrumentation for the discrete-event kernel.

The kernel exposes a single :attr:`Environment.trace_hook` slot; this module
provides ready-made hooks: an event-count/time histogram recorder and a
bounded in-memory trace useful in tests and when debugging protocol runs.

Every calendar entry is a :class:`~repro.sim.Timer`, so both hooks key an
entry by its callback's ``__qualname__`` (``NodeAgent._liveness_sweep``),
falling back to the callback's type name for callables without one.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, Optional, Tuple

__all__ = ["TraceRecorder", "KindCounter", "attach", "detach"]


def _kind(timer: Any) -> str:
    fn = timer.fn
    return getattr(fn, "__qualname__", None) or type(fn).__name__


class TraceRecorder:
    """Records ``(time, kind)`` tuples for every processed entry.

    Parameters
    ----------
    limit:
        Maximum number of records retained (oldest dropped first); ``None``
        keeps everything.  Protocol runs process millions of entries, so a
        bound is strongly recommended outside of unit tests.
    """

    def __init__(self, limit: Optional[int] = 10_000):
        self.limit = limit
        self.records: List[Tuple[Any, str]] = []
        self.dropped = 0

    def __call__(self, time: Any, timer: Any) -> None:
        records = self.records
        records.append((time, _kind(timer)))
        if self.limit is not None and len(records) > self.limit:
            del records[0]
            self.dropped += 1

    def __len__(self) -> int:
        return len(self.records)


class KindCounter:
    """Counts processed calendar entries by callback."""

    def __init__(self):
        self.counts: Counter = Counter()

    def __call__(self, time: Any, timer: Any) -> None:
        self.counts[_kind(timer)] += 1

    def total(self) -> int:
        """Total number of entries observed."""
        return sum(self.counts.values())


def attach(env, hook) -> None:
    """Install ``hook`` as the environment's trace hook.

    Raises :class:`ValueError` if a different hook is already installed, to
    avoid silently replacing someone else's instrumentation.
    """
    if env.trace_hook is not None and env.trace_hook is not hook:
        raise ValueError("environment already has a trace hook installed")
    env.trace_hook = hook


def detach(env) -> None:
    """Remove any installed trace hook."""
    env.trace_hook = None
