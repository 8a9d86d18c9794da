"""Tests for the top-level package surface and assorted uncovered paths."""

import inspect
import pkgutil
import re
import subprocess
import sys
from importlib import import_module

import pytest

import repro


class TestLazyExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_platform_exports(self):
        assert repro.PlatformTree is not None
        assert repro.TreeNode is not None
        tree = repro.generate_tree(repro.TreeGeneratorParams(
            min_nodes=3, max_nodes=5), seed=1)
        assert 3 <= tree.num_nodes <= 5

    def test_solver_exports(self):
        tree = repro.PlatformTree.single_node(4)
        assert repro.solve_tree(tree).rate == repro.solve_fork(4, []).rate
        assert repro.SteadyStateSolution is not None
        assert repro.ForkSolution is not None

    def test_protocol_exports(self):
        result = repro.simulate(repro.PlatformTree.single_node(2), 5,
                                repro.ProtocolConfig.interruptible(3))
        assert isinstance(result, repro.SimulationResult)

    def test_harness_exports(self):
        assert repro.HarnessConfig is not None
        assert repro.RetryPolicy is not None
        assert repro.RunCoverage is not None
        assert repro.SeedFailure is not None
        assert repro.CheckpointStore is not None
        config = repro.HarnessConfig(max_retries=1)
        assert config.policy().max_retries == 1

    def test_simulation_result_fingerprint(self):
        tree = repro.PlatformTree.single_node(2)
        config = repro.ProtocolConfig.interruptible(3)
        a = repro.simulate(tree, 5, config).fingerprint()
        b = repro.simulate(tree, 5, config).fingerprint()
        c = repro.simulate(tree, 6, config).fingerprint()
        assert a == b  # deterministic reruns match exactly
        assert a != c
        assert len(a) == 64  # sha256 hex

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_error_hierarchy(self):
        for exc in (repro.SimulationError, repro.PlatformError,
                    repro.SolverError, repro.ProtocolError,
                    repro.ExperimentError):
            assert issubclass(exc, repro.ReproError)


#: Every package in the tree; each serves its ``__all__`` lazily.
PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg)


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyExportTables:
    """The export tables cannot drift from the modules behind them."""

    def test_every_package_is_served_lazily(self, package):
        pkg = import_module(package)
        assert set(pkg._LAZY_EXPORTS) <= set(pkg.__all__)
        assert pkg.__getattr__.__module__ == "repro._exports"

    def test_all_names_resolve_to_their_defining_object(self, package):
        pkg = import_module(package)
        listing = dir(pkg)
        for name in pkg.__all__:
            assert name in listing
            module_name = pkg._LAZY_EXPORTS.get(name)
            if module_name is None:  # an eagerly imported name
                assert name in vars(pkg)
                continue
            module = import_module(module_name)
            if module_name.rpartition(".")[2] == name:
                assert getattr(pkg, name) is module
                continue
            value = getattr(pkg, name)
            assert value is getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module_name, name

    def test_star_import(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        pkg = import_module(package)
        for name in pkg.__all__:
            assert namespace[name] is getattr(pkg, name)

    def test_unknown_name_raises_naming_the_package(self, package):
        pkg = import_module(package)
        with pytest.raises(AttributeError, match=re.escape(repr(package))):
            pkg.definitely_not_exported

    def test_second_access_skips_the_resolver(self, package, monkeypatch):
        pkg = import_module(package)
        first = {name: getattr(pkg, name) for name in pkg.__all__}

        def resolver(name):
            raise AssertionError(f"{package}.{name} resolved twice")

        monkeypatch.setattr(pkg, "__getattr__", resolver)
        for name, value in first.items():
            assert getattr(pkg, name) is value


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fig7"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "Figure 7" in proc.stdout

    def test_help_lists_experiments(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        for name in ("fig4", "table2", "analyze", "simulate"):
            assert name in proc.stdout


class TestReporting:
    def test_format_table_alignment(self):
        from repro.experiments.reporting import format_table

        text = format_table(["name", "value"],
                            [["a", 1], ["long-name", 22]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="
        # numeric column right-aligned
        assert lines[3].endswith("value") or lines[3].rstrip().endswith("-")
        assert lines[-1].endswith("22")

    def test_fmt_helpers(self):
        from repro.experiments.reporting import fmt_num, fmt_opt, fmt_pct

        assert fmt_pct(12.345) == "12.3%"
        assert fmt_num(1.23456, 2) == "1.23"
        assert fmt_opt(None) == "-"
        assert fmt_opt(7) == "7"
