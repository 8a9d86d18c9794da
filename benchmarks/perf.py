"""Perf-trajectory harness: measure, record, and gate kernel throughput.

Two suites:

* ``kernel`` — the micro-workloads from ``workloads.py`` plus the
  protocol-engine runs and the contention-churn pair, reported as
  units/sec (events, tasks, or solver ops), each row with the garbage
  collections per generation its last run paid (``gc_collections``,
  recorded but never gated).
* ``sweep``  — end-to-end figure experiments at smoke scale (fig4, fig7,
  fault recovery), reported as tasks/sec and wall seconds per figure,
  plus the tier-1 test suite (``tier1``: one suite run per unit, so adding
  or removing a test does not change its units; the number of tests
  passed is recorded beside it; skipped when pytest or hypothesis is not
  installed).

``--json OUT`` writes the committed ``BENCH_kernel.json`` /
``BENCH_sweep.json`` trajectory files.  ``--check BASELINE`` compares the
current machine against a committed baseline and exits non-zero on a
>``--max-regression`` throughput drop; on the kernel suite it also
enforces every ratio gate of :data:`RATIO_GATES` (warp, open-loop warp,
contention kernel, telemetry overhead) within the current report.
``--gate-telemetry BASELINE`` additionally checks that the telemetry-off
hot path has not drifted from the baseline (see :func:`gate_telemetry`).

Raw events/sec is meaningless across machines (a laptop baseline would gate
a slower CI runner red forever), so every record carries a
``calibration_ops_per_sec`` from a fixed pure-``heapq`` loop; ``--check``
compares *calibration-normalized* throughput, which cancels machine speed
and isolates genuine kernel regressions.  On a shared host the speed also
drifts within one ~2-minute suite, so both suites calibrate next to each
row and record that value in the row.  Both sides of a comparison are
normalized alike: by their own rows' calibrations when both rows carry
one, else each by its suite's, which for a suite whose rows carry one is
the median of those (baselines written before rows carried one have only
the suite's single loop).
"""

import argparse
import gc
import heapq
import importlib.util
import json
import os
import statistics
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
    run_engine_fork_narrow,
    run_engine_fork_wide,
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
    run_engine_paper_ic_fb3,
    run_engine_paper_ic_fb3_warp,
    run_timer_storm,
)

SCHEMA_VERSION = 1
CALIBRATION_OPS = 200_000


def calibrate() -> float:
    """Fixed heapq push/pop loop — the machine-speed yardstick.

    Pushes ``(time, priority, seq, payload)`` tuples, the calendar's slot
    shape when the committed baselines were first taken.  The calendar now
    uses ``(key, time, seq, timer)``; the yardstick stays as it was so every
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


def _collections():
    return [generation["collections"] for generation in gc.get_stats()]


def _measure(fn, arg, repeats):
    """Min-of-N wall time; returns ``(units, wall_s, gc)``, where ``gc`` is
    the garbage collections per generation the last run paid."""
    units = None
    best = float("inf")
    for _ in range(repeats):
        before = _collections()
        start = time.perf_counter()
        units = fn(arg)
        best = min(best, time.perf_counter() - start)
        collections = [n - b for n, b in zip(_collections(), before)]
    return units, best, collections


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

KERNEL_WORKLOADS = [
    # (name, fn, arg, unit_kind) — args mirror test_bench_kernel.py exactly.
    # The 10k pair counts *tasks* (not events): the warped run deliberately
    # skips events, so tasks/sec is the only denominator the two share —
    # their per_sec ratio is the warp speedup RATIO_GATES checks.
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
    # The fork pair: a 1,000-leaf and a 10-leaf star; their per_sec ratio
    # is the fan-out cost RATIO_GATES checks.
    ("engine_fork_wide", run_engine_fork_wide, 20_000, "events"),
    ("engine_fork_narrow", run_engine_fork_narrow, 20_000, "events"),
    # The churn pair drives LinkContention directly (no calendar); their
    # per_sec ratio is the incremental-kernel speedup RATIO_GATES checks.
    ("contention_churn", run_contention_churn, 20_000, "ops"),
    ("contention_churn_reference", run_contention_churn_reference, 1_200,
     "ops"),
    ("engine_ic_10k", run_engine_ic_10k, 10_000, "tasks"),
    ("engine_ic_10k_warp", run_engine_ic_10k_warp, 10_000, "tasks"),
    ("engine_ic_10k_telemetry", run_engine_ic_10k_telemetry, 10_000, "tasks"),
    # The paper-tree pair: the warp's period search where it never
    # engages; their per_sec ratio is the search cost RATIO_GATES checks.
    ("engine_paper_ic_fb3", run_engine_paper_ic_fb3, 6_000, "tasks"),
    ("engine_paper_ic_fb3_warp", run_engine_paper_ic_fb3_warp, 6_000,
     "tasks"),
    # Service-mode (open-loop) runs: the diurnal day measures the exact
    # arrival/admission/sketch hot path; the periodic pair's per_sec
    # ratio is the open-loop warp speedup RATIO_GATES checks.
    ("engine_arrivals_diurnal", run_engine_arrivals_diurnal, 40_000,
     "events"),
    ("engine_arrivals_10k", run_engine_arrivals_10k, 10_000, "tasks"),
    ("engine_arrivals_10k_warp", run_engine_arrivals_10k_warp, 10_000,
     "tasks"),
]


#: Same-report ratio gates of the kernel suite.  ``compare_mode: divide``
#: gates the numerator row's ``per_sec`` over the denominator row's; both
#: rows run seconds apart on one machine, so the raw ratio needs no
#: calibration.  ``compare_mode: paired_median`` is for ratios near 1,
#: where two min-of-N rows taken seconds apart are mostly host noise: the
#: gate times ``pairs`` interleaved numerator/denominator runs of its own
#: (:func:`measure_paired_gates`) and gates the median of the per-pair
#: ratios.  ``better: higher`` passes when the ratio is at least
#: ``bound``, ``better: lower`` when it is at most ``bound``.
RATIO_GATES = [
    # Locally the warp is ~17x; 3x leaves headroom for CI noise while
    # still catching a warp that silently stopped engaging (ratio ~1).
    {"name": "warp_speedup", "numerator": "engine_ic_10k_warp",
     "denominator": "engine_ic_10k", "compare_mode": "divide",
     "better": "higher", "bound": 3.0},
    # Locally ~26x; catches a warp that stands down under periodic
    # arrivals.  tests/test_equivalence_table.py separately pins the
    # warped run's fingerprint and latency fold bit-for-bit.
    {"name": "open_loop_warp_speedup", "numerator": "engine_arrivals_10k_warp",
     "denominator": "engine_arrivals_10k", "compare_mode": "divide",
     "better": "higher", "bound": 5.0},
    # Locally ~25x; catches a kernel that silently fell back to
    # from-scratch solves (ratio ~1).
    {"name": "contention_speedup", "numerator": "contention_churn",
     "denominator": "contention_churn_reference", "compare_mode": "divide",
     "better": "higher", "bound": 5.0},
    # The sampling probe at its default period costs at most 10%: the
    # telemetry-on run keeps >= 90% of the telemetry-off throughput.  As
    # two rows of the suite this read 0.63-1.21 for unchanged code on a
    # 2-core shared host, where one ~80 ms run of either side varies by
    # up to 50%; there, eight medians of 41 interleaved pairs (~7 s
    # each) read 0.92-0.97.
    {"name": "telemetry_overhead", "numerator": "engine_ic_10k_telemetry",
     "denominator": "engine_ic_10k", "compare_mode": "paired_median",
     "pairs": 41, "better": "higher", "bound": 0.90},
    # A send decision must not scan the fan-out: the 1,000-leaf fork's
    # cost per event stays within 2x of the 10-leaf fork's, i.e. its
    # events/s is at least half.  Locally ~0.65; a port that scanned its
    # children read ~0.06 (53 against 3.1 us/event).
    {"name": "fork_wide_cost", "numerator": "engine_fork_wide",
     "denominator": "engine_fork_narrow", "compare_mode": "paired_median",
     "pairs": 11, "better": "higher", "bound": 0.5},
    # Where the period search finds nothing it costs at most 20%: on the
    # seed-3 paper tree warp-on keeps >= 80% of warp-off throughput.  A
    # search that read every agent at every sample read ~0.70 here; one
    # that reads them only when the calendar recurs reads ~0.95.
    {"name": "warp_search_cost", "numerator": "engine_paper_ic_fb3_warp",
     "denominator": "engine_paper_ic_fb3", "compare_mode": "paired_median",
     "pairs": 11, "better": "higher", "bound": 0.80},
]


def run_suite(workloads, repeats):
    """Measure every ``(name, fn, arg, unit_kind)`` row; returns
    ``(records, skipped)``: the measured rows, and the names of rows that
    could not run here (``--check`` reports those as skipped, not
    missing).  ``fn(arg)`` returns the units, ``None`` when the row cannot
    run, or ``(units, info)`` whose ``info`` fields are recorded but never
    gated."""
    records, skipped = [], []
    for name, fn, arg, unit_kind in workloads:
        # Next to the row, so host-speed drift during the suite is not
        # read as a change of the row's throughput.
        calibration = calibrate()
        units, wall, collections = _measure(fn, arg, repeats)
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
            "calibration_ops_per_sec": round(calibration, 1),
            # Informational, never gated: collections per generation.
            "gc_collections": collections,
            **info,
        })
        print(f"  {name:<22} {units:>8} {unit_kind:<6} {wall:10.4f} s  "
              f"{units / wall:>12,.6g} {unit_kind}/s  "
              f"cal {calibration:>9,.0f}  "
              f"gc {'/'.join(map(str, collections))}")
    return records, skipped


def measure_paired_gates():
    """Per-pair ratios of every ``paired_median`` row of
    :data:`RATIO_GATES`, by gate name.

    A pair runs the numerator and the denominator workload once each,
    back to back, alternating which goes first; its ratio is the
    numerator's ``per_sec`` over the denominator's.  Runs are timed in
    process CPU time, which leaves out the time other processes on a
    shared host take from this one.
    """
    workloads = {name: (fn, arg) for name, fn, arg, _ in KERNEL_WORKLOADS}
    ratios = {}
    for gate in RATIO_GATES:
        if gate["compare_mode"] != "paired_median":
            continue
        pairs = []
        for i in range(gate["pairs"]):
            per_sec = {}
            for side in (("denominator", "numerator") if i % 2 == 0
                         else ("numerator", "denominator")):
                fn, arg = workloads[gate[side]]
                gc.collect()
                start = time.process_time()
                units = fn(arg)
                per_sec[side] = units / (time.process_time() - start)
            pairs.append(round(per_sec["numerator"] / per_sec["denominator"],
                               4))
        ratios[gate["name"]] = pairs
    return ratios


def _sweep_fig4(_arg):
    from repro.experiments import ExperimentScale, fig4
    from repro.experiments.fig4 import FIG4_CONFIGS

    scale = ExperimentScale.smoke()
    fig4.run(scale)
    return scale.trees * scale.tasks * len(FIG4_CONFIGS)


def _sweep_fig7(_arg):
    from repro.experiments import ExperimentScale, fig7

    # The paper's Figure 7 runs 1000 tasks on the tiny figure-2a tree; that
    # finishes in ~10 ms, far too short to gate at 20%.  5x the tasks keeps
    # the scenario shape and gives the timer something to measure.
    scale = ExperimentScale(trees=1, tasks=5000)
    result = fig7.run(scale)
    return scale.tasks * len(result.scenarios)


def _sweep_faults(_arg):
    from repro.experiments import ExperimentScale, ablation

    scale = ExperimentScale.smoke()
    ablation.fault_recovery(scale)
    return scale.trees * scale.tasks


def _sweep_tier1(_arg):
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
    # (name, fn, arg, unit_kind), as KERNEL_WORKLOADS; no sweep row reads
    # its argument.
    ("fig4_smoke", _sweep_fig4, None, "tasks"),
    ("fig7_smoke", _sweep_fig7, None, "tasks"),
    ("faults_smoke", _sweep_faults, None, "tasks"),
    ("tier1", _sweep_tier1, None, "suite"),
]


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

_CAL = "calibration_ops_per_sec"


def _suite_calibration(report):
    """A suite's machine speed: the median of its rows' calibrations where
    its rows carry them (each taken next to its row, so the median follows
    the host's drift over the whole suite), else the suite's one loop."""
    rows = [b[_CAL] for b in report["benchmarks"] if _CAL in b]
    return statistics.median(rows) if rows else report[_CAL]


def _normalized(bench, report, base, baseline):
    """``bench``'s throughput over ``base``'s, each divided by its
    machine's calibration.  Both sides are divided alike: by their own
    rows' calibrations when both rows carry one, else each by its suite's
    (:func:`_suite_calibration`)."""
    if _CAL in bench and _CAL in base:
        cur_cal, base_cal = bench[_CAL], base[_CAL]
    else:
        cur_cal = _suite_calibration(report)
        base_cal = _suite_calibration(baseline)
    return (bench["per_sec"] / cur_cal) / (base["per_sec"] / base_cal)


def check_against(report, baseline_path, max_regression):
    """Exit 1 if any benchmark's normalized throughput dropped too far, if
    a row's ``units`` differ from its baseline row's (the two runs did
    different work, so it must be re-measured, not compared), or if a
    baseline row has no current run (unless the suite reported it as
    skipped): a benchmark must not leave the gate unnoticed."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base_by_name = {b["name"]: b for b in baseline["benchmarks"]}
    speed_ratio = _suite_calibration(report) / _suite_calibration(baseline)
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
        normalized = _normalized(bench, report, base, baseline)
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


def check_ratio_gates(report):
    """Exit 1 if a :data:`RATIO_GATES` row misses its bound, or if either
    of its rows is missing from the report."""
    by_name = {b["name"]: b for b in report["benchmarks"]}
    paired = report.get("paired_ratios", {})
    print("\nratio gates (same report)")
    failed = []
    for gate in RATIO_GATES:
        name = gate["name"]
        if gate["compare_mode"] == "paired_median":
            pairs = paired.get(name)
            if not pairs:
                print(f"  {name:<22} MISSING — no interleaved pairs run")
                failed.append(name)
                continue
            print(f"  {name:<22} pair ratios: "
                  f"{', '.join(f'{r:.3f}' for r in pairs)}")
            ratio = statistics.median(pairs)
        else:
            numerator = by_name.get(gate["numerator"])
            denominator = by_name.get(gate["denominator"])
            if numerator is None or denominator is None:
                print(f"  {name:<22} MISSING — {gate['numerator']} or "
                      f"{gate['denominator']} not run")
                failed.append(name)
                continue
            ratio = numerator["per_sec"] / denominator["per_sec"]
        bound = gate["bound"]
        if gate["better"] == "higher":
            ok, sign = ratio >= bound, ">="
        else:
            ok, sign = ratio <= bound, "<="
        if not ok:
            failed.append(name)
        print(f"  {name:<22} {ratio:6.2f}x  (gate: {sign} {bound}x)  "
              f"{'ok' if ok else 'FAIL'}")
    if failed:
        print(f"\nFAIL: ratio gates breached: {', '.join(failed)}")
        return 1
    print("\nall ratio gates hold")
    return 0


def gate_telemetry(report, baseline_path, max_drift):
    """Telemetry drift gate; exit 1 on a breach.

    Telemetry-*off* ``engine_ic_10k`` must stay within ``max_drift``
    (calibration-normalized) of the committed baseline: the probe hooks
    on the hot path must cost nothing when disabled.  The telemetry-*on*
    overhead is the ``telemetry_overhead`` row of :data:`RATIO_GATES`.
    """
    off = {b["name"]: b for b in report["benchmarks"]}.get("engine_ic_10k")
    if off is None:
        print("\ntelemetry gate: FAIL — engine_ic_10k missing from this "
              "report (run the kernel suite)")
        return 1

    print(f"\ntelemetry gate vs {baseline_path}")
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base = {b["name"]: b for b in baseline["benchmarks"]}.get("engine_ic_10k")
    if base is None:
        print("  drift:    baseline has no engine_ic_10k record — skipped")
        return 0
    normalized = _normalized(off, report, base, baseline)
    drift = 1.0 - normalized
    verdict = "ok" if drift <= max_drift else "FAIL"
    print(f"  drift:    telemetry-off engine_ic_10k {normalized:.3f}x "
          f"normalized vs baseline (gate: -{max_drift:.0%})  {verdict}")
    if drift > max_drift:
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
                        help="enforce the telemetry-off drift gate against "
                             "a committed BENCH_kernel.json")
    parser.add_argument("--telemetry-max-drift", type=float, default=0.03,
                        help="allowed normalized drop of telemetry-off "
                             "engine_ic_10k vs baseline (0.03)")
    args = parser.parse_args(argv)

    repeats = args.repeats
    if repeats is None:
        repeats = 5 if args.suite == "kernel" else 1

    print(f"calibrating ({CALIBRATION_OPS} heap ops x3)...")
    calibration = calibrate()
    print(f"calibration: {calibration:,.0f} heap ops/s\n{args.suite} suite "
          f"(min of {repeats}):")

    paired = None
    if args.suite == "kernel":
        records, skipped = run_suite(KERNEL_WORKLOADS, repeats)
        print("interleaved pairs for the paired ratio gates...")
        paired = measure_paired_gates()
    else:
        records, skipped = run_suite(SWEEP_WORKLOADS, repeats)

    report = {
        "suite": args.suite,
        "schema": SCHEMA_VERSION,
        "repeats": repeats,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "calibration_ops_per_sec": round(calibration, 1),
        "benchmarks": records,
        "skipped": skipped,
    }
    if paired is not None:
        report["paired_ratios"] = paired

    if args.json:
        _atomic_dump_json(report, args.json)
        print(f"\nwrote {args.json}")

    status = 0
    if args.check:
        status |= check_against(report, args.check, args.max_regression)
        if args.suite == "kernel":
            status |= check_ratio_gates(report)
    if args.gate_telemetry:
        status |= gate_telemetry(report, args.gate_telemetry,
                                 args.telemetry_max_drift)
    return status


if __name__ == "__main__":
    sys.exit(main())
