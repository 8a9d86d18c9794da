"""Autonomous bandwidth-centric scheduling protocols (§3 of the paper).

Runs start at the package front door, :func:`repro.simulate`::

    from repro import simulate
    from repro.protocols import ProtocolConfig

    result = simulate(tree, 10_000, ProtocolConfig.interruptible(buffers=3))
    print(result.makespan, result.max_buffers)
"""

from .._exports import export as _export

__all__ = _export(globals(), {
    ".config": ("ProtocolConfig", "ProtocolVariant", "PriorityRule"),
    ".engine": ("ProtocolEngine",),
    ".graph_engine": ("GraphProtocolEngine", "GraphFaultDriver",
                      "GraphNodeAgent"),
    ".agents": ("NodeAgent", "Transfer"),
    ".result": ("SimulationResult",),
    ".topologies": ("star_service_order", "chain_relay_config",
                    "leaf_spine_overlay", "topology_overlay",
                    "reassign_orphans"),
    ".trace": ("Tracer", "TraceEvent", "ascii_gantt", "trace"),
})
