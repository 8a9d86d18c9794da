#!/usr/bin/env python
"""Profile the contention kernel under a contended leaf-spine run.

Runs one application on the seed-7 leaf-spine fabric under
cProfile and prints the top 25 functions by cumulative time, plus the
solver's own statistics ledger — the first stop when the contention
kernel shows up hot or a change needs a before/after flame check.

``--reference`` profiles the ``incremental=False`` from-scratch twin
instead (same fingerprint, the pre-incremental cost model), and
``--churn`` profiles the calendar-free churn microbenchmark from the
bench suite, which isolates the solver from event dispatch entirely.

Usage::

    PYTHONPATH=src python scripts/profile_contention.py [--tasks N]
        [--reference] [--churn] [--top N]
"""

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

try:
    import repro  # noqa: F401 — probe only
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps import MultiAppEngine
from repro.platform.contention import LinkContention
from repro.platform.graph import generate_platform
from repro.protocols import ProtocolConfig


def profile_engine(tasks: int, incremental: bool, top: int) -> None:
    graph = generate_platform("leafspine", seed=7)
    engine = MultiAppEngine(graph, tasks, ProtocolConfig.interruptible(3))
    manager = engine.contention
    manager.incremental = incremental
    profiler = cProfile.Profile()
    profiler.enable()
    result = engine.run()
    profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(top)
    print(f"events processed: {result.events_processed}")
    _print_stats(manager)


def profile_churn(ops: int, incremental: bool, top: int) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "benchmarks"))
    from workloads import _contention_churn

    profiler = cProfile.Profile()
    profiler.enable()
    _contention_churn(ops, incremental=incremental)
    profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(top)


def _print_stats(manager: LinkContention) -> None:
    print("contention solver stats:")
    for name, value in manager.stats().items():
        print(f"  {name:<22} {value:>10}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="profile_contention.py",
        description="cProfile the contention kernel on a contended "
                    "leaf-spine run")
    parser.add_argument("--tasks", type=int, default=2000,
                        help="tasks for the engine run (default: 2000)")
    parser.add_argument("--reference", action="store_true",
                        help="profile the from-scratch incremental=False "
                             "twin instead")
    parser.add_argument("--churn", action="store_true",
                        help="profile the calendar-free churn "
                             "microbenchmark (--tasks becomes ops)")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to print (default: 25)")
    args = parser.parse_args(argv)
    if args.churn:
        profile_churn(args.tasks, not args.reference, args.top)
    else:
        profile_engine(args.tasks, not args.reference, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
