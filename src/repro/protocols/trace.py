"""Protocol event tracing: what every node did, when.

Attach a :class:`Tracer` to a :class:`~repro.protocols.engine.ProtocolEngine`
to record the protocol's micro-behaviour — requests, transfer starts /
preemptions / resumptions / completions, compute activity, buffer growth
and platform mutations.  The tracer filters by event kind (requests are
high-volume) and bounds memory.

:func:`ascii_gantt` renders per-node activity lanes over a time interval,
which makes the §3 protocols *visible*: interruptible runs show long sends
to expensive children sliced up by bursts to cheap ones.

Example::

    engine = ProtocolEngine(tree, config, 100)
    tracer = Tracer()
    engine.sinks.append(tracer)
    engine.run()
    print(ascii_gantt(tracer, num_nodes=tree.num_nodes, t0=0, t1=200))
"""

from __future__ import annotations

from collections import deque
from typing import (Deque, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from ..errors import ProtocolError

__all__ = [
    "REQUEST", "GROW", "SEND_START", "SEND_RESUME", "SEND_DONE", "PREEMPT",
    "COMPUTE_START", "COMPUTE_DONE", "MUTATION",
    "CRASH", "LINK_DOWN", "LINK_UP", "SUSPECT", "READMIT", "RECLAIM",
    "REROUTE", "DEGRADE",
    "ALL_KINDS", "TraceEvent", "Tracer", "ascii_gantt",
]

REQUEST = "request"
GROW = "grow"
SEND_START = "send-start"
SEND_RESUME = "send-resume"
SEND_DONE = "send-done"
PREEMPT = "preempt"
COMPUTE_START = "compute-start"
COMPUTE_DONE = "compute-done"
MUTATION = "mutation"
#: A node died abruptly (one event per crashed node).
CRASH = "crash"
#: The edge from ``node``'s parent went down / came back.
LINK_DOWN = "link-down"
LINK_UP = "link-up"
#: ``node`` (the parent) started suspecting ``peer`` (the child).
SUSPECT = "suspect"
#: ``node`` (the parent) re-admitted ``peer`` after a link healed.
READMIT = "readmit"
#: ``peer`` lost tasks were reclaimed into the root's repository after
#: ``node`` (the suspecting parent's child) was declared dead or healed.
RECLAIM = "reclaim"
#: ``node``'s overlay route from its parent changed after a fabric fault
#: (graph runs only; ``peer`` is the failed/repaired physical link id).
REROUTE = "reroute"
#: A link on ``node``'s overlay route was bandwidth-degraded or restored
#: (graph runs only; ``peer`` is the physical link id).
DEGRADE = "degrade"

ALL_KINDS: frozenset = frozenset({
    REQUEST, GROW, SEND_START, SEND_RESUME, SEND_DONE, PREEMPT,
    COMPUTE_START, COMPUTE_DONE, MUTATION,
    CRASH, LINK_DOWN, LINK_UP, SUSPECT, READMIT, RECLAIM,
    REROUTE, DEGRADE,
})


class TraceEvent(NamedTuple):
    """One protocol event.  ``peer`` is the other party where applicable
    (the child of a transfer, the preempting child of a preemption).

    A ``NamedTuple`` rather than a dataclass: tracing inside the event loop
    constructs one of these per recorded event, and tuple allocation is
    several times cheaper."""

    time: int
    kind: str
    node: int
    peer: Optional[int] = None


class Tracer:
    """Bounded, kind-filtered recorder of protocol events.

    Parameters
    ----------
    kinds:
        Event kinds to keep (default: everything except the high-volume
        ``REQUEST`` events).
    limit:
        Maximum events retained; older events are dropped FIFO and counted
        in :attr:`dropped`.  ``None`` keeps everything.
    """

    def __init__(self, kinds: Optional[Iterable[str]] = None,
                 limit: Optional[int] = 100_000):
        if kinds is None:
            self.kinds: Set[str] = set(ALL_KINDS - {REQUEST})
        else:
            self.kinds = set(kinds)
            unknown = self.kinds - ALL_KINDS
            if unknown:
                raise ProtocolError(f"unknown trace kinds: {sorted(unknown)}")
        self.limit = limit
        #: Event storage.  A ``deque(maxlen=limit)`` so FIFO eviction under
        #: a full buffer is O(1) — ``del list[0]`` made long bounded traces
        #: quadratic.  Supports ``len``, iteration and integer indexing like
        #: the list it replaced (slicing needs ``list(tracer.events)``).
        self.events: Deque[TraceEvent] = deque(maxlen=limit)
        self.dropped = 0

    def record(self, time, kind: str, node: int,
               peer: Optional[int] = None) -> None:
        """Store one event (no-op for filtered kinds)."""
        if kind not in self.kinds:
            return
        events = self.events
        if events.maxlen is not None and len(events) == events.maxlen:
            self.dropped += 1  # append below evicts the oldest event
        events.append(TraceEvent(time, kind, node, peer))

    # ------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self.events)

    def for_node(self, node: int) -> List[TraceEvent]:
        """Events where ``node`` is the primary actor."""
        return [e for e in self.events if e.node == node]

    def count(self, kind: str) -> int:
        """Number of recorded events of ``kind``."""
        return sum(1 for e in self.events if e.kind == kind)

    def intervals(self, node: int, start_kinds: Sequence[str],
                  end_kinds: Sequence[str]) -> List[Tuple[int, int]]:
        """Pair up start/end events of one node into busy intervals.

        An unclosed interval at the end of the trace is dropped (the run
        normally closes everything; truncated traces may not).
        """
        out: List[Tuple[int, int]] = []
        open_at: Optional[int] = None
        for event in self.events:
            if event.node != node:
                continue
            if event.kind in start_kinds and open_at is None:
                open_at = event.time
            elif event.kind in end_kinds and open_at is not None:
                out.append((open_at, event.time))
                open_at = None
        return out

    def compute_intervals(self, node: int) -> List[Tuple[int, int]]:
        """(start, end) of each computation at ``node``."""
        return self.intervals(node, (COMPUTE_START,), (COMPUTE_DONE,))

    def send_intervals(self, node: int) -> List[Tuple[int, int]]:
        """(start, end) of each *transmission leg* from ``node`` (a
        preempted transfer contributes one leg per resumption)."""
        return self.intervals(node, (SEND_START, SEND_RESUME),
                              (SEND_DONE, PREEMPT))


def ascii_gantt(tracer: Tracer, num_nodes: int, t0: int, t1: int,
                width: int = 80, nodes: Optional[Sequence[int]] = None) -> str:
    """Render per-node activity lanes between ``t0`` and ``t1``.

    Legend: ``C`` computing, ``S`` sending, ``B`` both, ``.`` idle.
    Each column covers ``(t1 - t0) / width`` timesteps; a bin is marked
    busy if any part of it overlaps a busy interval.
    """
    if t1 <= t0:
        raise ProtocolError(f"empty window [{t0}, {t1})")
    if width < 1:
        raise ProtocolError("width must be >= 1")
    if nodes is None:
        nodes = range(num_nodes)

    span = t1 - t0

    def paint(intervals, lane):
        for start, end in intervals:
            if end <= t0 or start >= t1:
                continue
            lo = max(0, (start - t0) * width // span)
            hi = min(width - 1, max(lo, ((end - t0) * width - 1) // span))
            for i in range(lo, hi + 1):
                lane[i] = True

    lines = [f"t={t0} .. {t1}  ({span} steps, {width} cols)"]
    for node in nodes:
        computing = [False] * width
        sending = [False] * width
        paint(tracer.compute_intervals(node), computing)
        paint(tracer.send_intervals(node), sending)
        cells = []
        for c_busy, s_busy in zip(computing, sending):
            if c_busy and s_busy:
                cells.append("B")
            elif c_busy:
                cells.append("C")
            elif s_busy:
                cells.append("S")
            else:
                cells.append(".")
        lines.append(f"P{node:<4}|" + "".join(cells) + "|")
    return "\n".join(lines)
