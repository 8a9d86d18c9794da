"""Shared benchmark configuration.

Benchmarks regenerate the paper's tables and figures at a laptop scale and
print the same rows the paper reports (see EXPERIMENTS.md for a recorded
paper-vs-measured comparison).  Scale knobs, overridable via environment:

* ``REPRO_BENCH_TREES``  — ensemble size per protocol (default 30)
* ``REPRO_BENCH_TASKS``  — tasks per application (default 2000)

Set them to the paper's 25000/10000 to run the full-scale evaluation.
"""

import os
import sys
from pathlib import Path

import pytest

try:
    import repro  # noqa: F401 — probe only
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import ExperimentScale


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    trees = int(os.environ.get("REPRO_BENCH_TREES", "30"))
    tasks = int(os.environ.get("REPRO_BENCH_TASKS", "2000"))
    return ExperimentScale(trees=trees, tasks=tasks)


@pytest.fixture()
def report(capsys):
    """Print a report table through pytest's capture so it reaches the console."""

    def emit(text: str) -> None:
        with capsys.disabled():
            print("\n" + text + "\n")

    return emit
