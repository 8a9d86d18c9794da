#!/usr/bin/env python
"""CI gate: seeded chaos schedules must never hang, leak, or lose tasks.

For every (seed, topology, app count) cell this generates a
:func:`~repro.platform.faults.chaos_schedule` (crashes, link failures
and repairs, switch crashes, bandwidth degrades), runs it with the
task-conservation invariant checker armed at every fault delivery, and
demands that

* the run terminates (a hung recovery would trip the per-cell watchdog),
* every application completes its full bag,
* no pending losses are left pooled (every destroyed task instance was
  reclaimed into the repository and re-executed),
* the run stays within ``MAX_EVENTS_PER_TASK`` calendar events per task:
  recovery work must grow with tasks and faults, not with virtual time
  (a timer that re-arms with nothing to observe breaks this first).

Exit status 0 iff every cell passes.  Usage::

    PYTHONPATH=src python scripts/chaos_soak.py [--seeds N] [--tasks N]
"""

import argparse
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401 — probe only
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps import Application, MultiAppEngine
from repro.platform.faults import chaos_schedule
from repro.platform.generator import generate_tree
from repro.platform.graph import PlatformGraph, generate_platform
from repro.protocols import ProtocolConfig

TOPOLOGIES = ("tree", "star", "chain", "leafspine")
APP_COUNTS = (1, 3)
CONFIG = ProtocolConfig.interruptible(3)
#: Cells peak below 20 events per task; a liveness sweep re-armed every
#: ``request_timeout`` until completion once drove them to ~72,000.
MAX_EVENTS_PER_TASK = 100


def _platform(topology: str, seed: int):
    if topology == "tree":
        # Trees soak through the same routed driver as graphs (embedded
        # as degenerate platforms), exercising the tree-addressed events.
        return PlatformGraph.from_tree(generate_tree(seed=seed))
    return generate_platform(topology, seed=seed)


def soak_cell(topology: str, seed: int, apps: int, tasks: int):
    """Run one cell; returns ``(problem, events per task)`` where the
    problem is "" on success and a failure description else."""
    platform = _platform(topology, seed)
    schedule = chaos_schedule(platform, seed=seed * 1000 + 17, events=6)
    if apps == 1:
        workload = tasks
    else:
        workload = [Application(tasks // apps, name=f"app{i}", priority=i,
                                arrival=i * 100)
                    for i in range(apps)]
    engine = MultiAppEngine(platform, workload, CONFIG,
                            faults=schedule, check_invariants=True)
    result = engine.run()
    problems = []
    for lane in engine.lanes:
        if lane.completed != lane.num_tasks:
            problems.append(
                f"app{lane.app_index} completed {lane.completed}"
                f"/{lane.num_tasks}")
        if lane._pending_lost:
            problems.append(
                f"app{lane.app_index} leaked pending losses "
                f"{dict(lane._pending_lost)}")
    total = len(result.completion_times)
    if total != result.num_tasks:
        problems.append(f"merged completions {total}/{result.num_tasks}")
    per_task = result.events_processed / max(result.num_tasks, 1)
    if per_task > MAX_EVENTS_PER_TASK:
        problems.append(f"{per_task:.1f} events per task exceeds the "
                        f"bound of {MAX_EVENTS_PER_TASK}")
    return "; ".join(problems), per_task


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5,
                        help="chaos seeds per (topology, apps) cell")
    parser.add_argument("--tasks", type=int, default=120,
                        help="total tasks per cell")
    args = parser.parse_args()

    failures = 0
    cells = 0
    for seed in range(1, args.seeds + 1):
        for topology in TOPOLOGIES:
            for apps in APP_COUNTS:
                cells += 1
                start = time.time()
                per_task = float("nan")
                try:
                    problem, per_task = soak_cell(topology, seed, apps,
                                                  args.tasks)
                except Exception as exc:  # invariant violations land here
                    problem = f"{type(exc).__name__}: {exc}"
                elapsed = time.time() - start
                ok = not problem
                failures += not ok
                print(f"seed={seed:<2} {topology:<9} apps={apps} "
                      f"{'ok' if ok else 'FAILED'} ({elapsed:.1f}s, "
                      f"{per_task:.1f} events/task)")
                if problem:
                    print(f"  {problem}")
    print(f"\n{cells - failures}/{cells} chaos cells conserved their bags "
          f"within {MAX_EVENTS_PER_TASK} events per task")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
