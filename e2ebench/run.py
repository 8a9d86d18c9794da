"""End-to-end benchmark of the simulator: one workload per run.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload tree_sweep --seed 1 --seconds 15 --trace 0

Every simulation goes through the public ``repro.simulate()`` front door,
one cell at a time in this one process (no pool, no threads).  The seed
fixes the order the cells run in; the platforms themselves are pinned in
``workloads.py``, so every cell can be checked against its golden
fingerprint (or, for fault cells, for conservation of its bag).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``wall_s``: median over the timed passes of the host time the cells'
  ``simulate()`` calls took (inputs are rebuilt before each pass,
  outside the timer; an untimed warm-up pass runs first);
* ``setup_s``: median over fresh interpreters of the time from spawn to
  ``import repro`` plus construction of every input having finished;
* ``events_per_task``: dispatched calendar events per completed task;
* ``peak_rss_mb``: peak resident memory of this process after all passes.

``--trace 1`` runs one untraced and one ``cProfile``-traced pass and
reports the per-layer metrics (layers are defined in ``layers.py``).

The last line of standard output is the JSON result.  ``--out FILE`` also
appends it, with the per-pass and per-interpreter samples behind its
medians, to a results file, and ``--compare A.json B.json`` prints one
verdict per workload and metric between two such files.
``--regen-goldens`` prints the golden fingerprints to paste into
``goldens.json``; it never overwrites the file.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Fresh interpreters timed for ``setup_s``.
SETUP_SAMPLES = 5
#: Timed passes run even when one pass overruns the time budget.
MIN_PASSES = 3

#: Run in each fresh interpreter: import the benchmark's workload table
#: (and with it ``repro``), build every input, print seconds since spawn.
_SETUP_PROBE = """\
import sys, time
spawned = float(sys.argv[1])
sys.path[:0] = [sys.argv[3], sys.argv[4]]
import workloads
workloads.build_inputs(workloads.WORKLOADS[sys.argv[2]])
print(time.monotonic() - spawned)
"""


def _import_program():
    """Put the checkout's ``src`` first on the path and import the table."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"e2ebench: no simulator source at {SRC}; run from the "
                 "root of a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


# ------------------------------------------------------------------ passes

class Tally:
    """Cells run and failed, events dispatched and tasks completed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.events = 0
        self.tasks = 0
        self.fingerprints = 0
        self.skipped = 0

    def add(self, result, problem: str) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"e2ebench: {problem}", file=sys.stderr)
            return
        warp = result.warp
        skipped = warp.events_skipped if warp is not None else 0
        self.events += result.events_processed - skipped
        self.skipped += skipped
        self.tasks += result.num_tasks
        if warp is not None:
            self.fingerprints += warp.fingerprints_taken


def check(workloads, cell, result, goldens) -> str:
    """"" when the cell's result is correct, else what is wrong."""
    if cell.conserve:
        problem = workloads.conserved(result)
    else:
        want = goldens.get(cell.name)
        got = result.fingerprint()
        problem = "" if got == want else (
            f"fingerprint {got} != golden {want}")
    return f"{cell.name}: {problem}" if problem else ""


def run_pass(workloads, cells, goldens, tally, profiler=None) -> float:
    """Build every input, then run the cells; returns their host seconds.

    Only the ``simulate()`` calls are inside the timer (and inside the
    profiler, when one is given).  Every pass starts from a collected
    heap, so garbage left by the previous pass neither lands in this
    pass's timer nor moves its peak memory.
    """
    inputs = workloads.build_inputs(cells)
    gc.collect()
    wall = 0.0
    for cell, (args, kwargs) in zip(cells, inputs):
        result, problem = None, ""
        start = time.perf_counter()
        try:
            if profiler is not None:
                profiler.enable()
            try:
                result = workloads.simulate(*args, **kwargs)
            finally:
                if profiler is not None:
                    profiler.disable()
        except Exception:  # a failed cell is counted, and the run goes on
            problem = f"{cell.name}: raised\n{traceback.format_exc()}"
        wall += time.perf_counter() - start
        if result is not None:
            problem = check(workloads, cell, result, goldens)
        tally.add(result, problem)
        del result
    return wall


def ordered_cells(workloads, name: str, seed: int, limit=None):
    cells = list(workloads.WORKLOADS[name][:limit])
    random.Random(seed).shuffle(cells)
    return cells


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


# ----------------------------------------------------------------- metrics

def setup_seconds(name: str) -> list:
    """Spawn-to-inputs-built time of ``SETUP_SAMPLES`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, repr(spawned), name,
             str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workloads, name: str, seed: int, seconds: float, goldens,
              limit=None):
    """End-to-end metrics of one workload (untraced).

    Returns the result and the samples behind its medians
    (``{"wall_s": [...], "setup_s": [...]}``).  The ``seconds`` budget
    covers everything from the set-up interpreters on; another pass starts
    only if one more pass as long as the last (build included) still fits,
    or while fewer than ``MIN_PASSES`` have run.
    """
    started = time.monotonic()
    setup = setup_seconds(name)
    cells = ordered_cells(workloads, name, seed, limit)
    tally = Tally()
    # Warm-up: lazy imports and first-touch allocations happen here.  It
    # is checked like every pass but not timed.
    run_pass(workloads, cells, goldens, tally)
    walls = []
    while True:
        pass_started = time.monotonic()
        walls.append(run_pass(workloads, cells, goldens, tally))
        now = time.monotonic()
        if (len(walls) >= MIN_PASSES
                and now - started + (now - pass_started) > seconds):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"e2ebench: {name}: {len(walls)} passes in "
          f"{time.monotonic() - started:.1f} s, wall_s "
          + " ".join(f"{w:.3f}" for w in walls)
          + f"; setup_s " + " ".join(f"{s:.3f}" for s in setup),
          file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "wall_s": _metric(statistics.median(walls), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "events_per_task": _metric(
                tally.events / max(tally.tasks, 1), "events/task"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        },
    }
    return result, {"wall_s": walls, "setup_s": setup}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def profiled_pass(workloads, cells, goldens, tally):
    """One pass under ``cProfile``.

    Returns its host seconds, the pstats table, and the summed
    ``LinkContention.stats()`` of every solver the pass created (reached
    by wrapping the solver's constructor for the duration of the pass).
    """
    from repro.platform.contention import LinkContention

    solvers = []
    original_init = LinkContention.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        solvers.append(self)

    profiler = cProfile.Profile()
    LinkContention.__init__ = recording_init
    try:
        wall = run_pass(workloads, cells, goldens, tally, profiler)
    finally:
        LinkContention.__init__ = original_init
    stats = pstats.Stats(profiler)
    for key in [k for k in stats.stats if "_lsprof.Profiler" in k[2]]:
        del stats.stats[key]
    solver = {}
    for manager in solvers:
        for counter, value in manager.stats().items():
            solver[counter] = solver.get(counter, 0) + value
    return wall, stats, solver


def traced_run(workloads, name: str, seed: int, goldens, limit=None) -> dict:
    """Per-layer metrics: one untraced pass, then one profiled pass."""
    import layers

    cells = ordered_cells(workloads, name, seed, limit)
    tally = Tally()
    untraced = run_pass(workloads, cells, goldens, tally)
    traced_tally = Tally()
    traced, stats, solver = profiled_pass(workloads, cells, goldens,
                                          traced_tally)
    tally.attempted += traced_tally.attempted
    tally.failed += traced_tally.failed

    seconds = layers.self_time_by_layer(stats)
    total = sum(seconds.values())
    solves = solver.get("solves_int", 0) + solver.get("solves_fraction", 0)
    events = traced_tally.events

    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_share"] = _metric(
            _ratio(seconds[layer], total), "fraction")
    for layer, entry_points in layers.ENTRY_POINTS.items():
        metrics[f"{layer}.calls"] = _metric(
            layers.calls(stats, entry_points), "count")
    metrics.update({
        "sim.calendar.cancel_share": _metric(_ratio(
            layers.calls(stats, (layers.TIMER_CANCEL,)),
            layers.calls(stats, layers.TIMERS_SCHEDULED)), "fraction"),
        "protocols.faults.sweeps_per_task": _metric(_ratio(
            layers.calls(stats, (layers.LIVENESS_SWEEP,)),
            traced_tally.tasks), "sweeps/task"),
        "sim.warp.fingerprints_per_task": _metric(_ratio(
            traced_tally.fingerprints, traced_tally.tasks), "count/task"),
        "sim.warp.skip_share": _metric(_ratio(
            traced_tally.skipped, traced_tally.skipped + events),
            "fraction"),
        "platform.contention.memo_hit_rate": _metric(_ratio(
            solver.get("memo_hits", 0), solver.get("memo_hits", 0) + solves),
            "fraction"),
        "platform.contention.fraction_solve_share": _metric(_ratio(
            solver.get("solves_fraction", 0), solves), "fraction"),
        "fractions.per_event": _metric(_ratio(
            metrics["fractions.calls"]["value"], events), "calls/event"),
        "trace_overhead": _metric(_ratio(traced, untraced), "ratio"),
    })
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


# ------------------------------------------------------------------ goldens

def regen_goldens(workloads, names) -> dict:
    """Fingerprints of every fault-free cell; warp cells run exact."""
    goldens = {}
    for name in names:
        for cell in workloads.WORKLOADS[name]:
            if cell.conserve:
                continue
            args, kwargs = workloads.exact_inputs(*cell.build())
            goldens[cell.name] = workloads.simulate(
                *args, **kwargs).fingerprint()
            print(f"e2ebench: {name}/{cell.name}", file=sys.stderr)
    return goldens


# ------------------------------------------------------------------ results

def append_result(path, workload: str, result: dict, samples: dict) -> None:
    """Add one run to a results file: ``{workload: [run, ...]}``, each run
    the result plus the ``samples`` behind its medians."""
    runs = {}
    if os.path.exists(path):
        with open(path) as fh:
            runs = json.load(fh)
    runs.setdefault(workload, []).append({**result, "samples": samples})
    partial = f"{path}.partial"  # a killed run leaves the file whole
    with open(partial, "w") as fh:
        json.dump(runs, fh, indent=1)
    os.replace(partial, path)


def samples_of(runs, metric: str) -> list:
    """Every sample of ``metric`` over ``runs``: the per-pass (or
    per-interpreter) samples where a run kept them, else its value."""
    values = []
    for run in runs:
        if metric in run.get("samples", {}):
            values += run["samples"][metric]
        elif metric in run["metrics"]:
            values.append(run["metrics"][metric]["value"])
    return values


def verdict(before, after, better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for two sets of samples.

    Unresolved: either side's quartile spread exceeds the bound and
    neither side beats every sample of the other.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(before)
    change = sign * (statistics.median(after) - base) / base
    spread = max(_spread(before), _spread(after))
    after_wins = all(sign * (a - b) < 0 for a in after for b in before)
    before_wins = all(sign * (b - a) < 0 for a in after for b in before)
    if spread > bound and not (after_wins or before_wins):
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def _spread(values) -> float:
    """Interquartile range as a share of the median.

    A single sample is one value of an exact metric (``events_per_task``)
    or of one that barely moves (``peak_rss_mb``); timed metrics always
    carry several samples per run.
    """
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def compare(path_a, path_b) -> int:
    """Print one verdict per workload × end-to-end metric; 1 if any worse."""
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    with open(path_a) as fh:
        runs_a = json.load(fh)
    with open(path_b) as fh:
        runs_b = json.load(fh)
    status = 0
    print(f"{'workload':<18} {'metric':<16} {'A median':>12} "
          f"{'B median':>12} {'change':>8}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            before = samples_of(runs_a.get(name, ()), metric["name"])
            after = samples_of(runs_b.get(name, ()), metric["name"])
            if not (before and after):
                continue
            result = verdict(before, after, metric["better"], metric["bound"])
            status |= result == "worse"
            median_a = statistics.median(before)
            median_b = statistics.median(after)
            change = (median_b - median_a) / median_a
            print(f"{name:<18} {metric['name']:<16} {median_a:>12.6g} "
                  f"{median_b:>12.6g} {change:>+8.2%}  {result}")
    return int(status)


# --------------------------------------------------------------------- CLI

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE",
                        help="also append the result to this results file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="verdicts between two results files")
    parser.add_argument("--regen-goldens", action="store_true",
                        help="print golden fingerprints (all workloads, "
                             "or --workload)")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    workloads = _import_program()
    if args.regen_goldens:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        print(json.dumps(regen_goldens(workloads, names), indent=1))
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {list(workloads.WORKLOADS)}")
    goldens = load_goldens()
    if args.trace:
        result = traced_run(workloads, args.workload, args.seed, goldens)
        samples = {}
    else:
        result, samples = timed_run(workloads, args.workload, args.seed,
                                    args.seconds, goldens)
    if args.out:
        append_result(args.out, args.workload, result, samples)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
