"""The layer table: which part of the simulator each profiled function is.

Self time from stdlib ``cProfile`` is grouped into layers named after this
repository's modules.  A function is charged, in this order, to

1. the layer its qualified name is listed under in ``FUNCTION_LAYERS``
   (fault and warp code that lives inside the agent and engine modules);
2. the layer of the first ``MODULE_LAYERS`` path fragment its file matches;
3. for C builtins (``sorted``, ``hash``, ``heappush``, ...) and
   dataclass-generated methods: the layers of its callers, in proportion
   to the self time each caller's calls took (the pstats caller table).
   The heap primitives are the calendar's own and are charged to it
   directly;
4. ``other``.

``ENTRY_POINTS`` lists the calls counted as "calls into" each layer.
Every qualified name in these tables must resolve, or the traced run
stops with an error.
"""

from __future__ import annotations

import functools
import importlib
import pstats
from collections import defaultdict
from typing import Dict, Iterable, Tuple

#: Layers in report order; every profiled function lands in exactly one.
LAYERS = ("sim.calendar", "sim.warp", "protocols.agents", "protocols.faults",
          "platform.contention", "platform.routing", "service", "telemetry",
          "fractions", "other")

#: Functions charged to another layer than their module's, by qualified
#: name (``module:Class.function``; a bare class takes all its methods).
FUNCTION_LAYERS = {
    "protocols.faults": (
        "repro.protocols.graph_engine:GraphFaultDriver",
        "repro.protocols.engine:ProtocolEngine._apply_crash",
        "repro.protocols.engine:ProtocolEngine._apply_link_failure",
        "repro.protocols.engine:ProtocolEngine._apply_link_repair",
        "repro.protocols.agents:NodeAgent._start_sweep",
        "repro.protocols.agents:NodeAgent._liveness_sweep",
        "repro.protocols.agents:NodeAgent._mark_suspect",
        "repro.protocols.agents:NodeAgent._probe_child",
        "repro.protocols.agents:NodeAgent._readmit_child",
        "repro.protocols.agents:NodeAgent._declare_child_dead",
    ),
    "sim.warp": (
        "repro.protocols.agents:NodeAgent.fingerprint_state",
        "repro.protocols.engine:ProtocolEngine._resolve_warp",
        "repro.service.driver:OpenLoopDriver.fingerprint_state",
        "repro.service.driver:OpenLoopDriver.next_event_delta",
        "repro.service.driver:OpenLoopDriver.warp_snapshot",
        "repro.service.driver:OpenLoopDriver.begin_template",
        "repro.service.driver:OpenLoopDriver.discard_template",
        "repro.service.driver:OpenLoopDriver.warp_periods_cap",
        "repro.service.driver:OpenLoopDriver.warp_apply",
    ),
}

#: Path fragment → layer, first match wins.  The front door (``api.py``),
#: the config/result records and the multi-app spec are charged to the
#: agents layer: they are the protocol run's own set-up and collection.
#: ``steady_state`` is there too, for the cooperative-optimum reference
#: a multi-app run computes when it collects its result.  The mutation
#: and churn schedules join the fault schedule: each engine validates all
#: three, whether or not they hold events.
MODULE_LAYERS = (
    ("sim.calendar", ("repro/sim/core.py", "repro/sim/events.py",
                      "repro/sim/process.py", "repro/sim/resources.py",
                      "repro/sim/store.py")),
    ("sim.warp", ("repro/sim/warp.py",)),
    ("protocols.agents", ("repro/protocols/agents.py",
                          "repro/protocols/engine.py",
                          "repro/protocols/graph_engine.py",
                          "repro/apps/engine.py",
                          "repro/api.py", "repro/protocols/config.py",
                          "repro/protocols/result.py", "repro/apps/spec.py",
                          "repro/apps/metrics.py", "repro/steady_state/")),
    ("protocols.faults", ("repro/platform/faults.py",
                          "repro/platform/mutation.py",
                          "repro/platform/churn.py")),
    ("platform.contention", ("repro/platform/contention.py",)),
    ("platform.routing", ("repro/platform/graph.py",
                          "repro/platform/overlay.py",
                          "repro/protocols/topologies.py",
                          "repro/platform/tree.py")),
    ("service", ("repro/service/",)),
    ("telemetry", ("repro/telemetry/",)),
    ("fractions", ("/fractions.py", "/numbers.py")),
)

#: Builtins that are the calendar's heap, charged to it whoever calls.
HEAP_BUILTINS = ("_heapq.heappush", "_heapq.heappop", "_heapq.heapify")

#: Calls counted as "calls into" each layer (``<layer>.calls``).
ENTRY_POINTS = {
    "sim.calendar": ("repro.sim.core:Environment.call_in",
                     "repro.sim.core:Environment.call_at",
                     "repro.sim.core:Environment.schedule"),
    "sim.warp": ("repro.sim.warp:WarpController.on_completion",),
    "protocols.agents": (
        "repro.protocols.agents:NodeAgent._cpu_done",
        "repro.protocols.agents:NodeAgent._send_done",
        "repro.protocols.graph_engine:GraphNodeAgent._send_done"),
    "protocols.faults": (
        "repro.protocols.agents:NodeAgent._liveness_sweep",
        "repro.protocols.agents:NodeAgent._probe_child",
        "repro.protocols.engine:ProtocolEngine._apply_crash",
        "repro.protocols.engine:ProtocolEngine._apply_link_failure",
        "repro.protocols.engine:ProtocolEngine._apply_link_repair",
        "repro.protocols.graph_engine:GraphFaultDriver._on_edge_failure",
        "repro.protocols.graph_engine:GraphFaultDriver._on_edge_repair",
        "repro.protocols.graph_engine:GraphFaultDriver._on_switch_crash",
        "repro.protocols.graph_engine:GraphFaultDriver._on_degrade",
        "repro.protocols.graph_engine:GraphFaultDriver._on_degrade_end",
        "repro.protocols.graph_engine:GraphFaultDriver._on_host_crash"),
    "platform.contention": (
        "repro.platform.contention:LinkContention.start",
        "repro.platform.contention:LinkContention.finish",
        "repro.platform.contention:LinkContention.pause",
        "repro.platform.contention:LinkContention.kill_crossing",
        "repro.platform.contention:LinkContention.set_capacity"),
    "platform.routing": ("repro.platform.graph:PlatformGraph.route",
                         "repro.platform.graph:PlatformGraph.route_or_none",
                         "repro.platform.graph:PlatformGraph.overlay",
                         "repro.protocols.topologies:topology_overlay"),
    "service": ("repro.service.driver:OpenLoopDriver._fire",
                "repro.service.driver:OpenLoopDriver.on_completion"),
    "telemetry": ("repro.telemetry.probes:TelemetryProbe._sample",
                  "repro.telemetry.probes:TelemetryProbe.record"),
    "fractions": ("fractions:Fraction.__new__",),
}

#: Single functions the derived per-layer ratios read call counts of.
TIMER_CANCEL = "repro.sim.core:Timer.cancel"
TIMERS_SCHEDULED = ("repro.sim.core:Environment.call_in",
                    "repro.sim.core:Environment.call_at")
LIVENESS_SWEEP = "repro.protocols.agents:NodeAgent._liveness_sweep"

Key = Tuple[str, int, str]


def _code_keys(qualname: str) -> Tuple[Key, ...]:
    """pstats keys of the function (or every method of the class) named
    ``module:attr.path``.

    A name that no longer resolves raises (``ImportError``,
    ``AttributeError`` or ``LookupError``) rather than silently counting
    nothing: after a rename, the tables above must be updated, or a layer's
    metric would read as a drop to 0.
    """
    module_name, _, path = qualname.partition(":")
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = getattr(obj, part)
    functions = vars(obj).values() if isinstance(obj, type) else (obj,)
    keys = []
    for function in functions:
        function = getattr(function, "__func__", function)  # static/class
        code = getattr(function, "__code__", None)
        if code is not None:
            keys.append((code.co_filename, code.co_firstlineno, code.co_name))
    if not keys:
        raise LookupError(f"{qualname} names no Python function")
    return tuple(keys)


def _keys(qualnames: Iterable[str]) -> Tuple[Key, ...]:
    return tuple(key for name in qualnames for key in _code_keys(name))


def _module_layer(filename: str) -> str:
    path = filename.replace("\\", "/")
    for layer, fragments in MODULE_LAYERS:
        if any(fragment in path for fragment in fragments):
            return layer
    return ""


@functools.lru_cache(maxsize=None)
def _overrides() -> Dict[Key, str]:
    return {key: layer for layer, names in FUNCTION_LAYERS.items()
            for key in _keys(names)}


def layer_of(key: Key) -> str:
    """The layer a function's own code is charged to; "" for a builtin or
    a generated method, whose self time is charged to its callers."""
    filename, _line, name = key
    layer = _overrides().get(key)
    if layer:
        return layer
    if filename == "~":
        return "sim.calendar" if any(
            heap in name for heap in HEAP_BUILTINS) else ""
    if filename.startswith("<"):
        return ""
    return _module_layer(filename) or "other"


def self_time_by_layer(stats: pstats.Stats) -> Dict[str, float]:
    """Seconds of self time per layer (every layer present, ``other`` too)."""
    table = stats.stats
    resolved: Dict[Key, Dict[str, float]] = {}

    def split(key: Key, visiting: frozenset) -> Dict[str, float]:
        """Share of ``key``'s self time per layer (summing to 1)."""
        if key in resolved:
            return resolved[key]
        shares: Dict[str, float] = defaultdict(float)
        layer = layer_of(key)
        if layer:
            shares[layer] = 1.0
        else:
            callers = {caller_key: caller
                       for caller_key, caller in table[key][4].items()
                       if caller_key in table and caller_key not in visiting}
            total = sum(caller[2] for caller in callers.values())
            for caller_key, caller in callers.items():
                weight = caller[2] / total if total else 1.0 / len(callers)
                for caller_layer, share in split(
                        caller_key, visiting | {key}).items():
                    shares[caller_layer] += weight * share
            if not shares:
                shares["other"] = 1.0
        resolved[key] = shares
        return shares

    seconds = dict.fromkeys(LAYERS, 0.0)
    for key, (_cc, _nc, tottime, _ct, _callers) in table.items():
        for layer, share in split(key, frozenset()).items():
            seconds[layer] += tottime * share
    return seconds


def calls(stats: pstats.Stats, qualnames: Iterable[str]) -> int:
    """Total calls recorded for the named functions."""
    table = stats.stats
    return sum(table[key][1] for key in _keys(qualnames) if key in table)
