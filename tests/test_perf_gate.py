"""``benchmarks/perf.py --check`` normalizes both sides of a comparison alike.

Each side's throughput is divided by a calibration of its machine's speed:
the rows' own when both rows carry one, else each side's suite value, which
for a suite whose rows carry calibrations is their median.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def perf():
    # perf.py imports its workload table as the top-level ``workloads``;
    # restore whatever held that name so no other test sees this one.
    saved = sys.modules.pop("workloads", None)
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec = importlib.util.spec_from_file_location(
            "_perf_under_test", BENCHMARKS / "perf.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
        sys.modules.pop("workloads", None)
        if saved is not None:
            sys.modules["workloads"] = saved
    return module


def _row(per_sec, calibration=None):
    row = {"name": "timer_storm", "units": 10, "per_sec": per_sec}
    if calibration is not None:
        row["calibration_ops_per_sec"] = calibration
    return row


def _suite(calibration, *rows):
    return {"calibration_ops_per_sec": calibration, "benchmarks": list(rows)}


def test_both_rows_calibrated_use_their_own(perf):
    bench, base = _row(400.0, 800.0), _row(500.0, 1000.0)
    report = _suite(2000.0, bench)
    baseline = _suite(5000.0, base)
    # 400/800 over 500/1000: the suite loops are not read.
    assert perf._normalized(bench, report, base, baseline) == 1.0


def test_uncalibrated_baseline_row_compares_suite_to_suite(perf):
    # The current suite's rows were calibrated at 700, 800 and 900, its
    # first loop at 1200; the baseline's rows carry none.
    bench = _row(483.0, 700.0)
    report = _suite(1200.0, bench, _row(1.0, 800.0), _row(1.0, 900.0))
    base = _row(483.0)
    baseline = _suite(800.0, base)
    # Equal raw throughput at the same machine speed (the median of the
    # current rows, 800) reads 1.0 — not 800/700, and not 800/1200.
    assert perf._normalized(bench, report, base, baseline) == 1.0


def test_neither_row_calibrated_uses_the_suite_loops(perf):
    bench, base = _row(300.0), _row(200.0)
    report = _suite(1500.0, bench)
    baseline = _suite(1000.0, base)
    assert perf._normalized(bench, report, base, baseline) == 1.0
