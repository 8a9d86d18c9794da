"""Checks of the end-to-end benchmark itself, on the first cell of each
workload.  Not part of the tier-1 suite; run from the checkout root with

    python3 -m pytest e2ebench/test_bench_e2e.py -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

workloads = run._import_program()

import layers  # noqa: E402

SPEC = json.loads(run.BENCHMARK.read_text())
NAMES = [workload["name"] for workload in SPEC["workloads"]]


def test_workload_table_matches_benchmark_json():
    assert list(workloads.WORKLOADS) == NAMES


def test_every_fault_free_cell_has_a_golden():
    goldens = run.load_goldens()
    for cells in workloads.WORKLOADS.values():
        for cell in cells:
            assert cell.conserve or cell.name in goldens, cell.name


@pytest.mark.parametrize("name", NAMES)
def test_timed_first_cell(name):
    goldens = run.load_goldens()
    first, samples = run.timed_run(workloads, name, 0, 0, goldens, limit=1)
    second, _ = run.timed_run(workloads, name, 0, 0, goldens, limit=1)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert first["correct"] and first["failed"] == 0
    assert first["attempted"] == run.MIN_PASSES + 1  # with the warm-up
    assert len(samples["wall_s"]) == run.MIN_PASSES
    assert len(samples["setup_s"]) == run.SETUP_SAMPLES
    assert (first["metrics"]["events_per_task"]
            == second["metrics"]["events_per_task"])
    assert all(metric["value"] > 0 for metric in first["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_first_cell(name):
    goldens = run.load_goldens()
    result = run.traced_run(workloads, name, 0, goldens, limit=1)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["correct"]
    shares = sum(result["metrics"][f"{layer}.self_share"]["value"]
                 for layer in layers.LAYERS)
    assert shares == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("name", NAMES)
def test_no_program_function_falls_in_other(name):
    cells = run.ordered_cells(workloads, name, 0, limit=1)
    _wall, stats, _solver = run.profiled_pass(
        workloads, cells, run.load_goldens(), run.Tally())
    unlayered = [key for key in stats.stats
                 if "/repro/" in key[0].replace("\\", "/")
                 and layers.layer_of(key) == "other"]
    assert unlayered == []


def test_every_layer_table_name_resolves():
    # A renamed function must fail loudly, not drop its metric to 0.
    names = [name for table in (layers.FUNCTION_LAYERS, layers.ENTRY_POINTS)
             for names in table.values() for name in names]
    names += [layers.TIMER_CANCEL, *layers.TIMERS_SCHEDULED,
              layers.LIVENESS_SWEEP]
    for name in names:
        assert layers._code_keys(name), name
    with pytest.raises(AttributeError):
        layers._code_keys("repro.protocols.agents:NodeAgent._no_such_sweep")


def test_corrupted_golden_fails_the_cell():
    goldens = {name: "0" * 64 for name in run.load_goldens()}
    result, _ = run.timed_run(workloads, "tree_sweep", 0, 0, goldens,
                              limit=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("after, better, expected", [
    ([1.20, 1.21, 1.19, 1.20], "lower", "worse"),
    ([0.80, 0.81, 0.79, 0.80], "lower", "better"),
    ([0.80, 0.81, 0.79, 0.80], "higher", "worse"),
    ([1.02, 1.03, 1.01, 1.02], "lower", "unchanged"),
    ([0.6, 1.0, 1.4, 1.8], "lower", "unresolved"),
    # Wide spread, but every run is slower than every base run.
    ([2.0, 2.5, 3.0, 3.5], "lower", "worse"),
])
def test_verdict(after, better, expected):
    base = [1.00, 1.01, 0.99, 1.00]
    assert run.verdict(base, after, better, 0.1) == expected


def _results_file(path, walls, events_per_task):
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
        "wall_s": {"value": sorted(walls)[len(walls) // 2], "unit": "s"},
        "events_per_task": {"value": events_per_task, "unit": "events/task"},
    }}
    run.append_result(path, "tree_sweep", result, {"wall_s": walls})


def test_compare_single_runs_uses_pass_samples(tmp_path, capsys):
    # One run per side: the verdict comes from the passes each run kept,
    # so noisy passes read as unresolved, not as a regression.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _results_file(a, [2.0, 2.1, 3.2, 2.2, 4.1], 8.0)
    _results_file(b, [2.9, 2.3, 4.4, 3.0, 2.2], 8.0)
    assert run.compare(a, b) == 0
    rows = {line.split()[1]: line.split()[-1]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"wall_s": "unresolved", "events_per_task": "unchanged"}
