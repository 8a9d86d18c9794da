"""The workload table of the end-to-end benchmark.

A workload is a closed batch of *cells*; a cell is one ``repro.simulate()``
call, run to completion before the next one starts.  Every input a cell
needs (platform, overlay, fault schedule, arrival spec) is built by its
``build`` function, outside the timed region, so the program only ever
receives generated inputs.  The platform seeds are pinned here rather than
taken from the command line: the golden fingerprints in ``goldens.json``
are keyed on them.  For the same reason the generator parameters and the
chaos-soak cell are written out here instead of imported from
``benchmarks/`` or ``scripts/``: the benchmark imports nothing of the
repository but the simulator under test, so an edit to those tools cannot
change its inputs between two commits being compared.

Fault-free cells are checked against a pinned ``fingerprint()``; fault
cells are checked for conservation of their bag instead, because their
event counts are expected to change once the liveness-sweep storm is
fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

from repro import simulate  # the front door every cell runs through
from repro.apps import Application, Workload
from repro.experiments.fig4 import FIG4_CONFIGS
from repro.platform import (CrashEvent, FaultSchedule, LinkFailureEvent,
                            LinkRepairEvent)
from repro.platform.faults import chaos_schedule
from repro.platform.generator import (PAPER_DEFAULTS, TreeGeneratorParams,
                                      generate_tree)
from repro.platform.graph import PlatformGraph, generate_platform
from repro.protocols import ProtocolConfig
from repro.protocols.topologies import topology_overlay
from repro.service import DiurnalArrivals, PeriodicArrivals, TokenBucket
from repro.telemetry import TelemetryConfig

#: 60-node tree with small weights, so the protocol settles into a short
#: exact period the steady-state warp can find.
WARP_TREE_PARAMS = TreeGeneratorParams(min_nodes=60, max_nodes=60,
                                       max_comm=8, max_comp=16,
                                       comp_divisor=16)
#: The 30-node variant the 1M-arrival periodic service day runs on.
SMALL_WARP_TREE_PARAMS = TreeGeneratorParams(min_nodes=30, max_nodes=30,
                                             max_comm=8, max_comp=16,
                                             comp_divisor=16)
#: 320-host leaf-spine fabric: per-event solver cost, not task count,
#: dominates.
BIG_LEAFSPINE_PARAMS = TreeGeneratorParams(min_nodes=320, max_nodes=320)
SIXTY_NODE_PARAMS = TreeGeneratorParams(min_nodes=60, max_nodes=60)

IC3 = ProtocolConfig.interruptible(3)


@dataclass(frozen=True)
class Cell:
    """One ``simulate()`` call of a workload.

    ``build`` returns the positional and keyword arguments of the call.
    ``conserve`` marks a fault cell, checked for bag conservation instead
    of a golden fingerprint.
    """

    name: str
    build: Callable[[], Tuple[tuple, dict]]
    conserve: bool = False


def _call(*args, **kwargs) -> Tuple[tuple, dict]:
    return args, kwargs


# ---------------------------------------------------------------- tree_sweep

def _paper_cell(seed: int, config: ProtocolConfig, tasks: int = 2000):
    return _call(generate_tree(PAPER_DEFAULTS, seed=seed), tasks, config)


def _tree_sweep():
    return tuple(
        Cell(f"paper{seed}-{_slug(config)}",
             lambda seed=seed, config=config: _paper_cell(seed, config))
        for seed in range(10) for config in FIG4_CONFIGS)


def _slug(config: ProtocolConfig) -> str:
    return config.label.replace(", ", "-").replace("=", "")


# ---------------------------------------------------------------- warp_sweep

def _warp_sweep():
    cells = [
        Cell(f"paper{seed}-{_slug(config)}-warp",
             lambda seed=seed, config=config: _paper_cell(
                 seed, replace(config, warp=True)))
        for seed in (1, 3) for config in FIG4_CONFIGS]
    cells.append(Cell(
        "warptree1-1M-warp",
        lambda: _call(generate_tree(WARP_TREE_PARAMS, seed=1), 1_000_000,
                      ProtocolConfig.interruptible(3, warp=True))))
    return tuple(cells)


# ---------------------------------------------------------- fabric_contended

def _leafspine_cell():
    graph = generate_platform("leafspine", BIG_LEAFSPINE_PARAMS, seed=21)
    return _call(graph, 10_000, IC3, overlay=topology_overlay(graph))


def _fairshare_cell():
    tree = generate_tree(SIXTY_NODE_PARAMS, seed=7)
    apps = [Application(1500, name=f"app{i}", size=i + 1, priority=i)
            for i in range(3)]
    return _call(tree, apps, IC3, allocator="fairshare")


def _fabric_contended():
    return (Cell("leafspine320-10k", _leafspine_cell),
            Cell("tree60-3apps-fairshare-4500", _fairshare_cell))


# --------------------------------------------------------------- service_day

def _diurnal_cell():
    workload = Workload(
        arrivals=DiurnalArrivals(rates=(0.05, 0.6, 0.15), phase_len=5000,
                                 horizon=600_000, seed=3),
        admission=TokenBucket(rate="1/4", burst=64))
    config = replace(IC3, telemetry=TelemetryConfig())
    return _call(generate_tree(WARP_TREE_PARAMS, seed=1), workload, config)


def _periodic_day_cell():
    workload = Workload(
        arrivals=PeriodicArrivals(interval=4, horizon=4_200_000),
        admission=TokenBucket(rate="1/5", burst=64))
    return _call(generate_tree(SMALL_WARP_TREE_PARAMS, seed=1), workload,
                 ProtocolConfig.interruptible(3, warp=True),
                 record_completion_times=False)


def _service_day():
    return (Cell("diurnal-day-telemetry", _diurnal_cell),
            Cell("periodic-1M-arrivals-warp", _periodic_day_cell))


# ------------------------------------------------------------ fault_recovery

def _tree_fault_cell(seed: int, tasks: int = 1000):
    # The crash plus transient link outage of the faults ablation.
    tree = generate_tree(PAPER_DEFAULTS, seed=seed)
    root_children = tree.children[tree.root]
    events = [CrashEvent(at_time=200, node=root_children[0])]
    if len(root_children) > 1:
        events.append(LinkFailureEvent(at_time=150, node=root_children[1]))
        events.append(LinkRepairEvent(at_time=450, node=root_children[1]))
    return _call(tree, tasks, IC3, faults=FaultSchedule(events))


def _chaos_cell(topology: str, apps: int, seed: int = 1, tasks: int = 45):
    # One cell of the chaos-soak matrix: routed faults through the graph
    # fault driver, trees embedded as degenerate graphs.
    if topology == "tree":
        platform = PlatformGraph.from_tree(generate_tree(seed=seed))
    else:
        platform = generate_platform(topology, seed=seed)
    schedule = chaos_schedule(platform, seed=seed * 1000 + 17, events=6)
    if apps == 1:
        workload = tasks
    else:
        workload = [Application(tasks // apps, name=f"app{i}", priority=i,
                                arrival=i * 100)
                    for i in range(apps)]
    return _call(platform, workload, IC3, faults=schedule)


def _fault_recovery():
    cells = [Cell(f"paper{seed}-crash-outage",
                  lambda seed=seed: _tree_fault_cell(seed), conserve=True)
             for seed in range(5)]
    cells += [Cell(f"chaos1-{topology}-{apps}apps",
                   lambda topology=topology, apps=apps:
                   _chaos_cell(topology, apps),
                   conserve=True)
              for topology in ("tree", "star", "chain", "leafspine")
              for apps in (1, 3)]
    return tuple(cells)


#: Workload name → its cells, in the order ``BENCHMARK.json`` lists them.
WORKLOADS: Dict[str, Tuple[Cell, ...]] = {
    "tree_sweep": _tree_sweep(),
    "warp_sweep": _warp_sweep(),
    "fabric_contended": _fabric_contended(),
    "service_day": _service_day(),
    "fault_recovery": _fault_recovery(),
}


def build_inputs(cells):
    """Construct every cell's call arguments (the set-up a pass pays)."""
    return [cell.build() for cell in cells]


def exact_inputs(args: tuple, kwargs: dict) -> Tuple[tuple, dict]:
    """The same call with the steady-state warp off (golden regen); a
    warp-off call is returned unchanged."""
    args = tuple(replace(a, warp=False) if isinstance(a, ProtocolConfig)
                 else a for a in args)
    return args, kwargs


def conserved(result) -> str:
    """Bag conservation from public results; "" when the bag is whole."""
    problems = []
    computed = sum(result.per_node_computed)
    if computed != result.num_tasks:
        problems.append(f"computed {computed}/{result.num_tasks}")
    if result.apps:
        done = sum(len(app.completion_times) for app in result.apps)
        if done != result.num_tasks:
            problems.append(f"per-app completions {done}/{result.num_tasks}")
    return "; ".join(problems)
