"""Benchmark workloads shared by pytest-benchmark and the perf harness.

Each workload runs a self-contained simulation and returns the number of
work units it processed (calendar events for the kernel workloads, which
doubles as the throughput denominator in ``perf.py``).  Keeping them here —
importable both from ``test_bench_kernel.py`` and from the ``perf.py``
trajectory writer — guarantees the committed ``BENCH_*.json`` baselines
measure exactly what the pytest benchmarks measure.
"""

import random
from dataclasses import replace

from repro.sim import Environment
from repro.apps import Application, MultiAppEngine
from repro.platform import PlatformTree
from repro.platform.contention import LinkContention
from repro.platform.generator import (PAPER_DEFAULTS, TreeGeneratorParams,
                                      generate_tree)
from repro.platform.graph import generate_platform
from repro.protocols import ProtocolConfig, ProtocolEngine
from repro.telemetry import TelemetryConfig


def run_timer_storm(events: int) -> int:
    env = Environment()

    def reschedule(remaining):
        if remaining > 0:
            env.call_in(1, reschedule, remaining - 1)

    for lane in range(10):
        env.call_in(1, reschedule, events // 10)
    env.run()
    return env.processed_count


def _engine_events(config: ProtocolConfig, num_tasks: int) -> int:
    tree = generate_tree(TreeGeneratorParams(min_nodes=60, max_nodes=60),
                         seed=7)
    result = ProtocolEngine(tree, config, num_tasks).run()
    return result.events_processed


def run_engine_ic(num_tasks: int = 2000) -> int:
    """IC/FB=3 on a fixed 60-node ensemble tree — the preemption-heavy path."""
    return _engine_events(ProtocolConfig.interruptible(3), num_tasks)


def run_engine_non_ic(num_tasks: int = 2000) -> int:
    """non-IC/FB=2 on the same tree — the growth-free baseline path."""
    return _engine_events(
        ProtocolConfig.non_interruptible(2, buffer_growth=False), num_tasks)


def _fork_events(leaves: int, num_tasks: int) -> int:
    """IC/FB=3 on a one-level fork of ``leaves`` leaves (edge cost 1-5,
    compute 2000-4000, fixed seed): the shape whose send decisions a
    per-event scan of the children would make cost O(fan-out)."""
    rng = random.Random(1)
    tree = PlatformTree.fork(1000, [(rng.randint(1, 5), rng.randint(2000, 4000))
                                    for _ in range(leaves)])
    result = ProtocolEngine(tree, ProtocolConfig.interruptible(3),
                            num_tasks).run()
    return result.events_processed


def run_engine_fork_wide(num_tasks: int = 20_000) -> int:
    """IC/FB=3 on a 1,000-leaf fork — the wide star of the send port."""
    return _fork_events(1000, num_tasks)


def run_engine_fork_narrow(num_tasks: int = 20_000) -> int:
    """The same run on a 10-leaf fork: the denominator of the wide fork's
    cost per event (the ``fork_wide_cost`` ratio gate in ``perf.py``)."""
    return _fork_events(10, num_tasks)


#: Tasks per run of the paper-tree pair: one ``warp_sweep`` cell of
#: ``e2ebench``, a run in which the warp's period search never engages.
_PAPER_RUN_TASKS = 2000


def _paper_tasks(config: ProtocolConfig, num_tasks: int) -> int:
    tree = generate_tree(PAPER_DEFAULTS, seed=3)
    for _ in range(num_tasks // _PAPER_RUN_TASKS):
        ProtocolEngine(tree, config, _PAPER_RUN_TASKS).run()
    return num_tasks


def run_engine_paper_ic_fb3(num_tasks: int = 6000) -> int:
    """IC/FB=3 on the seed-3 paper tree in 2,000-task runs, exact (tasks
    as units)."""
    return _paper_tasks(ProtocolConfig.interruptible(3), num_tasks)


def run_engine_paper_ic_fb3_warp(num_tasks: int = 6000) -> int:
    """The same runs with the warp on.  No run recurs, so the pair's
    per_sec ratio is what the period search costs (the
    ``warp_search_cost`` ratio gate in ``perf.py``)."""
    return _paper_tasks(ProtocolConfig.interruptible(3, warp=True),
                        num_tasks)


#: Fixed tree for the long-run (steady-state warp) workloads.  Small
#: communication/computation weights keep the microstate period short, so
#: the warped variant reliably finds its recurrence within the first few
#: hundred completions; the exact variant pays full per-event cost either
#: way, making the pair a direct measure of the warp's value.
_WARP_TREE_PARAMS = TreeGeneratorParams(min_nodes=60, max_nodes=60,
                                        max_comm=8, max_comp=16,
                                        comp_divisor=16)


def _engine_tasks(config: ProtocolConfig, num_tasks: int) -> int:
    tree = generate_tree(_WARP_TREE_PARAMS, seed=1)
    ProtocolEngine(tree, config, num_tasks).run()
    return num_tasks


def run_engine_ic_10k(num_tasks: int = 10_000) -> int:
    """Long IC/FB=3 run, exact event-by-event simulation (tasks as units)."""
    return _engine_tasks(ProtocolConfig.interruptible(3), num_tasks)


def run_engine_ic_10k_warp(num_tasks: int = 10_000) -> int:
    """The same long run with steady-state warp fast-forwarding the middle."""
    return _engine_tasks(ProtocolConfig.interruptible(3, warp=True), num_tasks)


def run_engine_ic_10k_telemetry(num_tasks: int = 10_000) -> int:
    """The exact long run with default-sampling telemetry probes attached.

    Paired with ``run_engine_ic_10k``: the per_sec ratio of the two is the
    telemetry sampling overhead the CI gate holds to <=10%.
    """
    return _engine_tasks(
        replace(ProtocolConfig.interruptible(3), telemetry=TelemetryConfig()),
        num_tasks)


def run_engine_multiapp(num_tasks: int = 2000) -> int:
    """Two prioritized apps under the selfish allocator on the 60-node tree.

    Exercises the multi-application coordinator end to end: two full
    agent sets on one shared calendar, every transfer a fluid flow
    through the shared contention manager, and strict-priority
    reallocation on each flow start/finish.  Events are the denominator,
    as for the other 2k runs.
    """
    tree = generate_tree(TreeGeneratorParams(min_nodes=60, max_nodes=60),
                         seed=7)
    apps = [Application(num_tasks // 2, name=f"app{i}", priority=i)
            for i in range(2)]
    engine = MultiAppEngine(tree, apps, ProtocolConfig.interruptible(3),
                            allocator="selfish")
    return engine.run().events_processed


def run_engine_graph_leafspine(num_tasks: int = 2000) -> int:
    """IC/FB=3 on a generated leaf-spine fabric through the graph engine.

    Exercises the shared-link max-min path end to end: head-election
    overlay, per-flow route registration, and mid-flight rate
    reallocation on every flow start/finish — the cost the tree engine
    never pays.  Events are the denominator, as for the other 2k runs.
    """
    graph = generate_platform("leafspine", seed=7)
    engine = MultiAppEngine(graph, num_tasks, ProtocolConfig.interruptible(3))
    return engine.run().events_processed


def run_engine_graph_faults(num_tasks: int = 2000) -> int:
    """The leaf-spine run under a seeded chaos fault schedule.

    Same fabric and overlay as ``run_engine_graph_leafspine``, plus the
    routed fault path: flow kills on failed links, route lookups
    against the cached shortest-path searches, overlay re-election
    after a rack-head crash, and
    suspect/probe recovery in the agents.  Paired with the fault-free
    workload so the baseline gate catches regressions in the fault
    plumbing itself, not just in the clean path.
    """
    from repro.platform.faults import chaos_schedule

    graph = generate_platform("leafspine", seed=7)
    engine = MultiAppEngine(graph, num_tasks, ProtocolConfig.interruptible(3),
                            faults=chaos_schedule(graph, seed=11, events=6))
    return engine.run().events_processed


#: 320-host leaf-spine (40 leaves, 2 spines, 400 links) — roughly twice the
#: fabric of the seed-7 workload, so per-event solver cost, not task count,
#: dominates.
_BIG_LEAFSPINE_PARAMS = TreeGeneratorParams(min_nodes=320, max_nodes=320)


def run_engine_graph_leafspine_big(num_tasks: int = 2000) -> int:
    """IC/FB=3 on a 320-host leaf-spine fabric through the graph engine.

    Same protocol as ``run_engine_graph_leafspine`` on ~2x the fabric:
    more racks in flight means wider overlay fan-out and more concurrent
    flows per reallocation, which is exactly the regime where the
    incremental solver's dirty-region bound matters.  Events are the
    denominator.
    """
    graph = generate_platform("leafspine", _BIG_LEAFSPINE_PARAMS, seed=21)
    engine = MultiAppEngine(graph, num_tasks, ProtocolConfig.interruptible(3))
    return engine.run().events_processed


def run_engine_multiapp_contended(num_tasks: int = 1800) -> int:
    """Three mixed-size apps under the fair-share allocator on the 60-node tree.

    Heavier contention than ``run_engine_multiapp``: three full agent
    sets (one per app) share every link, and the size-2/size-3 bags
    introduce non-unit volumes so transfers overlap rather than
    completing in lockstep.  Events are the denominator.
    """
    tree = generate_tree(TreeGeneratorParams(min_nodes=60, max_nodes=60),
                         seed=7)
    apps = [Application(num_tasks // 3, name=f"app{i}", size=i + 1,
                        priority=i)
            for i in range(3)]
    engine = MultiAppEngine(tree, apps, ProtocolConfig.interruptible(3),
                            allocator="fairshare")
    return engine.run().events_processed


def _contention_churn(ops: int, incremental: bool) -> int:
    """Rack-local flow churn driven straight at the contention kernel.

    No calendar, no agents: each op either starts a flow between two
    hosts (95% within one rack, 5% across the fabric) or finishes a
    random active one, holding ~64 flows in flight on the seed-7
    leaf-spine.  This isolates the solver from event dispatch — the
    per_sec ratio of the incremental run to its ``incremental=False``
    twin is the kernel speedup the CI contention gate enforces.
    """
    graph = generate_platform("leafspine", seed=7)
    manager = LinkContention(graph.link_capacities(), graph.contention,
                             incremental=incremental)
    rng = random.Random(13)
    num_hosts = sum(1 for w in graph.w if w is not None)
    per_leaf = graph.meta["hosts_per_leaf"]
    active = []
    fid = 0
    for now in range(1, ops + 1):
        if active and (len(active) >= 64 or rng.random() < 0.48):
            manager.finish(active.pop(rng.randrange(len(active))), now)
        else:
            if rng.random() < 0.05:
                a = rng.randrange(num_hosts)
                b = rng.randrange(num_hosts)
            else:
                rack = rng.randrange(num_hosts // per_leaf) * per_leaf
                a = rack + rng.randrange(per_leaf)
                b = rack + rng.randrange(per_leaf)
            if a == b:
                b = (b + 1) % num_hosts
            fid += 1
            manager.start(f"f{fid}", graph.route(a, b), 10**6, now)
            active.append(f"f{fid}")
    return ops


def run_contention_churn(ops: int = 20_000) -> int:
    """The churn workload on the incremental kernel (ops as units)."""
    return _contention_churn(ops, incremental=True)


def run_contention_churn_reference(ops: int = 1200) -> int:
    """The identical churn on the from-scratch reference solver.

    Fewer ops than the incremental twin — the reference re-solves the
    whole fabric per op, so 1200 ops already takes seconds — but
    ``per_sec`` normalizes by op count, so the pair's ratio is still the
    kernel speedup.
    """
    return _contention_churn(ops, incremental=False)


def run_engine_arrivals_diurnal(horizon: int = 40_000) -> int:
    """One open-loop diurnal "day" through the service driver.

    A three-phase rate profile (quiet / peak / shoulder) on the warp
    tree, gated by a token bucket sized below the peak rate so the
    admission path (drops, saturation accounting) is exercised alongside
    the latency sketch.  Aperiodic arrivals keep the warp out, so this
    measures the exact open-loop hot path: arrival timer, admission
    refill-kick, and per-completion sketch fold.  Events are the
    denominator, as for the other exact engine runs.
    """
    from repro.service import DiurnalArrivals, TokenBucket

    tree = generate_tree(_WARP_TREE_PARAMS, seed=1)
    engine = ProtocolEngine(
        tree, ProtocolConfig.interruptible(3), 0,
        arrivals=DiurnalArrivals(rates=(0.05, 0.6, 0.15), phase_len=5000,
                                 horizon=horizon, seed=3),
        admission=TokenBucket(rate="1/4", burst=64))
    return engine.run().events_processed


def _engine_arrivals_periodic(config: ProtocolConfig, num_tasks: int) -> int:
    from repro.service import PeriodicArrivals

    tree = generate_tree(_WARP_TREE_PARAMS, seed=1)
    result = ProtocolEngine(
        tree, config, 0,
        arrivals=PeriodicArrivals(interval=4, horizon=4 * num_tasks)).run()
    return result.service.completed


def run_engine_arrivals_10k(num_tasks: int = 10_000) -> int:
    """Long periodic open-loop run, exact simulation (tasks as units).

    Underloaded (arrival rate 1/4 vs ~0.42 service rate), so every
    arrival is admitted and completes — the per-task latency is the
    pure service time and the warped twin must reproduce the sketch
    bit-for-bit.
    """
    return _engine_arrivals_periodic(ProtocolConfig.interruptible(3),
                                     num_tasks)


def run_engine_arrivals_10k_warp(num_tasks: int = 10_000) -> int:
    """The same periodic open-loop run with the steady-state warp.

    Exactly-periodic arrivals are the one stream the warp stays armed
    under; the per_sec ratio against ``run_engine_arrivals_10k`` is the
    open-loop warp speedup the CI gate holds to >=3x.
    """
    return _engine_arrivals_periodic(
        ProtocolConfig.interruptible(3, warp=True), num_tasks)
