"""Tests for the analyze/simulate tree commands and the parallel sweep."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import ExperimentScale, sweep
from repro.experiments.analyze import (
    PROTOCOL_PRESETS,
    analyze_tree,
    load_tree,
    simulation_report,
)
from repro.experiments.cli import main
from repro.platform import figure1_tree, to_json
from repro.platform.generator import TreeGeneratorParams
from repro.protocols import ProtocolConfig


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "platform.json"
    path.write_text(to_json(figure1_tree()))
    return str(path)


class TestLoadTree:
    def test_round_trip(self, tree_file):
        assert load_tree(tree_file) == figure1_tree()

    def test_missing_file(self):
        with pytest.raises(ExperimentError):
            load_tree("/nonexistent/platform.json")


class TestAnalyze:
    def test_report_contents(self):
        report = analyze_tree(figure1_tree())
        assert "optimal rate 0.91667" in report
        assert "starved" in report          # P2/P3/... starve
        assert "uplink-bound" in report
        assert "Best single-resource upgrades" in report
        # The most valuable upgrade on Figure 1 is P5's link.
        upgrades_section = report.split("Best single-resource upgrades")[1]
        first_row = upgrades_section.splitlines()[4]
        assert "link of P5" in first_row


class TestSimulate:
    def test_report_contents(self):
        report = simulation_report(figure1_tree(), "ic3", 800)
        assert "IC, FB=3" in report
        assert "normalized" in report

    def test_all_presets_run(self):
        for name in PROTOCOL_PRESETS:
            report = simulation_report(figure1_tree(), name, 200)
            assert "makespan" in report

    def test_unknown_protocol(self):
        with pytest.raises(ExperimentError):
            simulation_report(figure1_tree(), "warp-drive", 100)

    def test_tiny_task_count_rejected(self):
        with pytest.raises(ExperimentError):
            simulation_report(figure1_tree(), "ic3", 1)


class TestCliIntegration:
    def test_analyze_command(self, tree_file, capsys):
        assert main(["analyze", "--tree", tree_file]) == 0
        assert "Platform analysis" in capsys.readouterr().out

    def test_simulate_command(self, tree_file, capsys):
        assert main(["simulate", "--tree", tree_file, "--protocol", "ic1",
                     "--tasks", "300"]) == 0
        assert "IC, FB=1" in capsys.readouterr().out

    def test_simulate_warp_flag_reaches_the_run(self, tree_file, capsys):
        args = ["simulate", "--tree", tree_file, "--protocol", "ic3",
                "--tasks", "3000"]
        assert main(args) == 0
        exact = capsys.readouterr().out
        assert main(args + ["--warp"]) == 0
        warped = capsys.readouterr().out.splitlines()
        rows = [line for line in warped if line.startswith("warp ")]
        assert len(rows) == 1
        assert "applied (warped)" in rows[0]
        assert "fingerprints taken" in rows[0]
        assert "periods skipped" in rows[0]
        # Apart from that row (which widens the table), the warped report
        # is the exact one.
        def cells(lines):
            return [line.split() for line in lines
                    if not line.startswith("warp ")
                    and line.strip(" -")]

        assert cells(warped) == cells(exact.splitlines())

    def test_missing_tree_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze"])

    def test_out_file(self, tree_file, tmp_path, capsys):
        target = tmp_path / "report.txt"
        main(["analyze", "--tree", tree_file, "--out", str(target)])
        assert "Platform analysis" in target.read_text()


class TestParallelSweep:
    def test_parallel_equals_serial(self):
        params = TreeGeneratorParams(min_nodes=5, max_nodes=15,
                                     max_comm=10, max_comp=50)
        scale = ExperimentScale(trees=4, tasks=120)
        configs = [ProtocolConfig.interruptible(2)]
        serial = sweep(configs, scale, params)
        parallel = sweep(configs, scale, params, workers=2)
        assert [(c.seed, c.optimal_rate, c.outcomes) for c in serial] == \
               [(c.seed, c.optimal_rate, c.outcomes) for c in parallel]

    def test_progress_in_parallel_mode(self):
        params = TreeGeneratorParams(min_nodes=5, max_nodes=10,
                                     max_comm=5, max_comp=20)
        seen = []
        sweep([ProtocolConfig.interruptible(1)],
              ExperimentScale(trees=3, tasks=60), params,
              workers=2, progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_invalid_workers(self):
        with pytest.raises(ExperimentError):
            sweep([ProtocolConfig.interruptible(1)],
                  ExperimentScale(trees=2, tasks=60), workers=0)
