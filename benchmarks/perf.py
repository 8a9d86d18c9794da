"""Perf-trajectory harness: measure, record, and gate kernel throughput.

Two suites:

* ``kernel`` — the micro-workloads from ``workloads.py`` plus the
  protocol-engine runs and the contention-churn pair, reported as
  units/sec (events, tasks, or solver ops).
* ``sweep``  — end-to-end figure experiments at smoke scale (fig4, fig7,
  fault recovery), reported as tasks/sec and wall seconds per figure,
  plus the tier-1 test suite (``tier1``: one suite run per unit, so adding
  or removing a test does not change its units; the number of tests
  passed is recorded beside it; skipped when pytest or hypothesis is not
  installed).

``--json OUT`` writes the committed ``BENCH_kernel.json`` /
``BENCH_sweep.json`` trajectory files.  ``--check BASELINE`` compares the
current machine against a committed baseline and exits non-zero on a
>``--max-regression`` throughput drop.  ``--gate-telemetry BASELINE``
additionally enforces the telemetry cost budget: the telemetry-off hot
path must not drift from the baseline, and the telemetry-on run must stay
within a bounded overhead of its telemetry-off twin (see
:func:`gate_telemetry`).

Raw events/sec is meaningless across machines (a laptop baseline would gate
a slower CI runner red forever), so every record carries a
``calibration_ops_per_sec`` from a fixed pure-``heapq`` loop; ``--check``
compares *calibration-normalized* throughput, which cancels machine speed
and isolates genuine kernel regressions.
"""

import argparse
import heapq
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from xml.etree import ElementTree

try:
    import repro  # noqa: F401 — probe only
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import (
    run_contention_churn,
    run_contention_churn_reference,
    run_engine_arrivals_10k,
    run_engine_arrivals_10k_warp,
    run_engine_arrivals_diurnal,
    run_engine_graph_faults,
    run_engine_graph_leafspine,
    run_engine_graph_leafspine_big,
    run_engine_ic,
    run_engine_multiapp,
    run_engine_multiapp_contended,
    run_engine_ic_10k,
    run_engine_ic_10k_telemetry,
    run_engine_ic_10k_warp,
    run_engine_non_ic,
    run_timer_storm,
)

SCHEMA_VERSION = 1
CALIBRATION_OPS = 200_000


def calibrate() -> float:
    """Fixed heapq push/pop loop — the machine-speed yardstick.

    Pushes ``(time, priority, seq, payload)`` tuples, the calendar's slot
    shape when the committed baselines were first taken.  The calendar now
    uses ``(time, seq, timer)``; the yardstick stays as it was so every
    baseline's ``calibration_ops_per_sec`` remains comparable.
    """
    best = float("inf")
    for _ in range(3):
        heap = []
        push, pop = heapq.heappush, heapq.heappop
        start = time.perf_counter()
        for seq in range(CALIBRATION_OPS):
            push(heap, (seq % 97, 1, seq, None))
            if seq % 2:
                pop(heap)
        while heap:
            pop(heap)
        best = min(best, time.perf_counter() - start)
    return CALIBRATION_OPS / best


def _measure(fn, arg, repeats):
    """Min-of-N wall time; returns (units, wall_s)."""
    units = None
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        units = fn(arg)
        best = min(best, time.perf_counter() - start)
    return units, best


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

KERNEL_WORKLOADS = [
    # (name, fn, arg, unit_kind) — args mirror test_bench_kernel.py exactly.
    # The 10k pair counts *tasks* (not events): the warped run deliberately
    # skips events, so tasks/sec is the only denominator the two share —
    # their per_sec ratio is the warp speedup the CI gate checks.
    ("timer_storm", run_timer_storm, 20_000, "events"),
    ("engine_ic_fb3", run_engine_ic, 2_000, "events"),
    ("engine_non_ic_fb2", run_engine_non_ic, 2_000, "events"),
    ("engine_graph_leafspine", run_engine_graph_leafspine, 2_000, "events"),
    ("engine_graph_faults", run_engine_graph_faults, 2_000, "events"),
    ("engine_graph_leafspine_big", run_engine_graph_leafspine_big, 2_000,
     "events"),
    ("engine_multiapp", run_engine_multiapp, 2_000, "events"),
    ("engine_multiapp_contended", run_engine_multiapp_contended, 1_800,
     "events"),
    # The churn pair drives LinkContention directly (no calendar); their
    # per_sec ratio is the incremental-kernel speedup the CI gate checks.
    ("contention_churn", run_contention_churn, 20_000, "ops"),
    ("contention_churn_reference", run_contention_churn_reference, 1_200,
     "ops"),
    ("engine_ic_10k", run_engine_ic_10k, 10_000, "tasks"),
    ("engine_ic_10k_warp", run_engine_ic_10k_warp, 10_000, "tasks"),
    ("engine_ic_10k_telemetry", run_engine_ic_10k_telemetry, 10_000, "tasks"),
    # Service-mode (open-loop) runs: the diurnal day measures the exact
    # arrival/admission/sketch hot path; the periodic pair's per_sec
    # ratio is the open-loop warp speedup the CI gate checks.
    ("engine_arrivals_diurnal", run_engine_arrivals_diurnal, 40_000,
     "events"),
    ("engine_arrivals_10k", run_engine_arrivals_10k, 10_000, "tasks"),
    ("engine_arrivals_10k_warp", run_engine_arrivals_10k_warp, 10_000,
     "tasks"),
]


def run_kernel_suite(repeats):
    records = []
    for name, fn, arg, unit_kind in KERNEL_WORKLOADS:
        units, wall = _measure(fn, arg, repeats)
        records.append({
            "name": name,
            "units": units,
            "unit_kind": unit_kind,
            "wall_s": round(wall, 6),
            "per_sec": round(units / wall, 1),
        })
        print(f"  {name:<22} {units:>8} {unit_kind:<6} {wall * 1e3:8.1f} ms  "
              f"{units / wall:>12,.0f} {unit_kind}/s")
    return records


def _sweep_fig4():
    from repro.experiments import ExperimentScale, fig4
    from repro.experiments.fig4 import FIG4_CONFIGS

    scale = ExperimentScale.smoke()
    fig4.run(scale)
    return scale.trees * scale.tasks * len(FIG4_CONFIGS)


def _sweep_fig7():
    from repro.experiments import ExperimentScale, fig7

    # The paper's Figure 7 runs 1000 tasks on the tiny figure-2a tree; that
    # finishes in ~10 ms, far too short to gate at 20%.  5x the tasks keeps
    # the scenario shape and gives the timer something to measure.
    scale = ExperimentScale(trees=1, tasks=5000)
    result = fig7.run(scale)
    return scale.tasks * len(result.scenarios)


def _sweep_faults():
    from repro.experiments import ExperimentScale, ablation

    scale = ExperimentScale.smoke()
    ablation.fault_recovery(scale)
    return scale.trees * scale.tasks


def _sweep_tier1():
    """``python -m pytest -x -q`` from the repository root; returns one
    suite run as the unit, with the number of tests passed as an
    informational field (``None`` without the test dependencies)."""
    if not all(importlib.util.find_spec(m) for m in ("pytest", "hypothesis")):
        return None
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                                  if p]
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "tier1.xml")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             f"--junitxml={report}"], cwd=root,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"tier-1 suite failed:\n{proc.stdout[-4000:]}")
        suite = ElementTree.parse(report).getroot().find("testsuite")
    return 1, {"tests": int(suite.get("tests")) - int(suite.get("skipped"))}


SWEEP_WORKLOADS = [
    # (name, fn, unit_kind); fn returns the units, or ``(units, info)``
    # whose ``info`` fields are recorded but never gated.
    ("fig4_smoke", _sweep_fig4, "tasks"),
    ("fig7_smoke", _sweep_fig7, "tasks"),
    ("faults_smoke", _sweep_faults, "tasks"),
    ("tier1", _sweep_tier1, "suite"),
]


def run_sweep_suite(repeats):
    """Returns ``(records, skipped)``: the measured rows, and the names of
    rows that could not run here (``--check`` reports those as skipped,
    not missing)."""
    records, skipped = [], []
    for name, fn, unit_kind in SWEEP_WORKLOADS:
        units, wall = _measure(lambda _: fn(), None, repeats)
        if units is None:
            print(f"  {name:<22} skipped (test dependencies not installed)")
            skipped.append(name)
            continue
        units, info = units if isinstance(units, tuple) else (units, {})
        records.append({
            "name": name,
            "units": units,
            "unit_kind": unit_kind,
            "wall_s": round(wall, 6),
            "per_sec": round(units / wall, 6),
            **info,
        })
        print(f"  {name:<22} {units:>8} {unit_kind:<6}  {wall:8.2f} s   "
              f"{units / wall:>12,.6g} {unit_kind}/s")
    return records, skipped


def _atomic_dump_json(report, path):
    """Write the trajectory file via tmp + fsync + rename.

    A run killed mid-write (the exact failure mode the sweep harness
    guards against) must never leave a truncated ``BENCH_*.json`` behind
    — a torn baseline would silently break every later ``--check``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp",
                                    prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------

def check_against(report, baseline_path, max_regression):
    """Exit 1 if any benchmark's normalized throughput dropped too far, if
    a row's ``units`` differ from its baseline row's (the two runs did
    different work, so it must be re-measured, not compared), or if a
    baseline row has no current run (unless the suite reported it as
    skipped): a benchmark must not leave the gate unnoticed."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base_cal = baseline["calibration_ops_per_sec"]
    cur_cal = report["calibration_ops_per_sec"]
    base_by_name = {b["name"]: b for b in baseline["benchmarks"]}
    speed_ratio = cur_cal / base_cal
    print(f"\ncheck vs {baseline_path}  "
          f"(machine speed ratio {speed_ratio:.2f}x, "
          f"gate: -{max_regression:.0%} normalized)")
    failed = []
    changed = []
    for bench in report["benchmarks"]:
        base = base_by_name.get(bench["name"])
        if base is None:
            print(f"  {bench['name']:<22} (new — no baseline, skipped)")
            continue
        if bench["units"] != base["units"]:
            # A different amount of work per run: the throughputs measure
            # different things, so no ratio of them means anything.
            print(f"  {bench['name']:<22} units changed "
                  f"({base['units']} -> {bench['units']}), re-measure")
            changed.append(bench["name"])
            continue
        # Normalize both sides by their machine's calibration throughput;
        # the resulting ratio is dimensionless "kernel cost per heap op".
        normalized = ((bench["per_sec"] / cur_cal)
                      / (base["per_sec"] / base_cal))
        verdict = "ok"
        if normalized < 1.0 - max_regression:
            verdict = "REGRESSION"
            failed.append(bench["name"])
        print(f"  {bench['name']:<22} {normalized:6.2f}x normalized  "
              f"{verdict}")
    current = {bench["name"] for bench in report["benchmarks"]}
    skipped = set(report.get("skipped", ()))
    missing = []
    for name in base_by_name:
        if name in current:
            continue
        if name in skipped:
            print(f"  {name:<22} (skipped here — not gated)")
        else:
            print(f"  {name:<22} MISSING — in the baseline, not run")
            missing.append(name)
    if failed:
        print(f"\nFAIL: throughput regression >{max_regression:.0%} in: "
              f"{', '.join(failed)}")
    if changed:
        print(f"\nFAIL: units changed since the baseline, re-measure: "
              f"{', '.join(changed)}")
    if missing:
        print(f"\nFAIL: baseline rows with no current run: "
              f"{', '.join(missing)}")
    if failed or changed or missing:
        return 1
    print("\nall benchmarks within the regression budget")
    return 0


def gate_telemetry(report, baseline_path, max_drift, max_overhead):
    """Two-sided telemetry cost gate; exit 1 on either breach.

    * **drift** — telemetry-*off* ``engine_ic_10k`` must stay within
      ``max_drift`` (calibration-normalized) of the committed baseline:
      the probe hooks on the hot path must cost nothing when disabled.
    * **overhead** — ``engine_ic_10k_telemetry`` must run within
      ``max_overhead`` of ``engine_ic_10k`` *from the same report*: both
      were measured seconds apart on the same machine, so the raw
      per_sec ratio needs no normalization and isolates exactly the
      sampling probe's cost at the default period.
    """
    by_name = {b["name"]: b for b in report["benchmarks"]}
    off = by_name.get("engine_ic_10k")
    on = by_name.get("engine_ic_10k_telemetry")
    if off is None or on is None:
        print("\ntelemetry gate: FAIL — engine_ic_10k/_telemetry missing "
              "from this report (run the kernel suite)")
        return 1

    failed = False
    print(f"\ntelemetry gate vs {baseline_path}")

    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base = {b["name"]: b for b in baseline["benchmarks"]}.get("engine_ic_10k")
    if base is None:
        print("  drift:    baseline has no engine_ic_10k record — skipped")
    else:
        normalized = ((off["per_sec"] / report["calibration_ops_per_sec"])
                      / (base["per_sec"] / baseline["calibration_ops_per_sec"]))
        drift = 1.0 - normalized
        verdict = "ok" if drift <= max_drift else "FAIL"
        failed |= drift > max_drift
        print(f"  drift:    telemetry-off engine_ic_10k {normalized:.3f}x "
              f"normalized vs baseline (gate: -{max_drift:.0%})  {verdict}")

    overhead = 1.0 - on["per_sec"] / off["per_sec"]
    verdict = "ok" if overhead <= max_overhead else "FAIL"
    failed |= overhead > max_overhead
    print(f"  overhead: telemetry-on {overhead:+.1%} vs telemetry-off "
          f"(gate: +{max_overhead:.0%})  {verdict}")

    if failed:
        print("\nFAIL: telemetry cost gate breached")
        return 1
    print("\ntelemetry cost within budget")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="perf.py", description="kernel perf-trajectory harness")
    parser.add_argument("suite", choices=["kernel", "sweep"])
    parser.add_argument("--repeats", type=int, default=None,
                        help="min-of-N timing (default: 5 kernel, 1 sweep)")
    parser.add_argument("--json", metavar="OUT",
                        help="write the trajectory record to this path")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a committed BENCH_*.json")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="allowed normalized throughput drop (0.20)")
    parser.add_argument("--gate-telemetry", metavar="BASELINE",
                        help="enforce the telemetry cost gate against a "
                             "committed BENCH_kernel.json")
    parser.add_argument("--telemetry-max-drift", type=float, default=0.03,
                        help="allowed normalized drop of telemetry-off "
                             "engine_ic_10k vs baseline (0.03)")
    parser.add_argument("--telemetry-max-overhead", type=float, default=0.10,
                        help="allowed slowdown of engine_ic_10k_telemetry vs "
                             "engine_ic_10k in the same report (0.10)")
    args = parser.parse_args(argv)

    repeats = args.repeats
    if repeats is None:
        repeats = 5 if args.suite == "kernel" else 1

    print(f"calibrating ({CALIBRATION_OPS} heap ops x3)...")
    calibration = calibrate()
    print(f"calibration: {calibration:,.0f} heap ops/s\n{args.suite} suite "
          f"(min of {repeats}):")

    if args.suite == "kernel":
        records, skipped = run_kernel_suite(repeats), []
    else:
        records, skipped = run_sweep_suite(repeats)

    report = {
        "suite": args.suite,
        "schema": SCHEMA_VERSION,
        "repeats": repeats,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "calibration_ops_per_sec": round(calibration, 1),
        "benchmarks": records,
        "skipped": skipped,
    }

    if args.json:
        _atomic_dump_json(report, args.json)
        print(f"\nwrote {args.json}")

    status = 0
    if args.check:
        status |= check_against(report, args.check, args.max_regression)
    if args.gate_telemetry:
        status |= gate_telemetry(report, args.gate_telemetry,
                                 args.telemetry_max_drift,
                                 args.telemetry_max_overhead)
    return status


if __name__ == "__main__":
    sys.exit(main())
