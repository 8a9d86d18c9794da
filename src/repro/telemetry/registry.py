"""Metrics registry: counters and time series.

The registry is the storage layer of the telemetry subsystem: probes
(:mod:`repro.telemetry.probes`) create named instruments here, exporters
(:mod:`repro.telemetry.export`) read them back out.  Instruments are
keyed by ``(name, node)`` so per-node families ("buffer_occupancy of node
3") and global metrics ("completed") share one namespace.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ReproError

__all__ = ["Counter", "TimeSeries", "MetricsRegistry"]

#: Key of one instrument: ``(name, node)``; ``node`` is ``None`` for
#: global (non-per-node) metrics.
Key = Tuple[str, Optional[int]]


class Counter:
    """Monotonically increasing integer tally."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.value}>"


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

    def as_tuples(self) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """Immutable ``(times, values)`` pair for snapshots."""
        return tuple(self.times), tuple(self.values)


class MetricsRegistry:
    """Namespace of live instruments, keyed by ``(name, node)``.

    Accessors are get-or-create: probes call ``registry.counter("x")``
    freely without a registration step.  Asking for an existing name with
    a different instrument type raises — one name, one meaning.
    """

    def __init__(self):
        self._instruments: Dict[Key, object] = {}

    # ------------------------------------------------------------- access
    def _get_or_create(self, name: str, node: Optional[int], factory, kind):
        key = (name, node)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        elif not isinstance(instrument, kind):
            raise ReproError(
                f"metric {name!r} (node={node}) already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}")
        return instrument

    def counter(self, name: str, node: Optional[int] = None) -> Counter:
        return self._get_or_create(name, node, Counter, Counter)

    def series(self, name: str, node: Optional[int] = None,
               max_samples: Optional[int] = None) -> TimeSeries:
        return self._get_or_create(name, node,
                                   lambda: TimeSeries(max_samples), TimeSeries)

    # ------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, key) -> bool:
        if isinstance(key, str):
            key = (key, None)
        return key in self._instruments

    def items(self) -> Iterator[Tuple[Key, object]]:
        """Instruments in deterministic (sorted-key) order."""
        def order(entry):
            (name, node), _ = entry
            return (name, -1 if node is None else node)

        return iter(sorted(self._instruments.items(), key=order))

    def counters(self) -> Dict[Key, int]:
        """All counter values, keyed by ``(name, node)``."""
        return {key: inst.value for key, inst in self.items()
                if isinstance(inst, Counter)}

    def series_data(self) -> Dict[Key, Tuple[Tuple[int, ...],
                                             Tuple[float, ...]]]:
        """All series as immutable ``(times, values)`` pairs."""
        return {key: inst.as_tuples() for key, inst in self.items()
                if isinstance(inst, TimeSeries)}

