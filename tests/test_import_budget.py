"""Import budget: each entry point loads only the modules it uses.

Every case runs in a fresh interpreter and inspects ``sys.modules``
afterwards, so the checks hold whatever the test process has imported.
Nothing here is timed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules no ``simulate()`` run may load: numerical and plotting code,
#: the sweep harness, exporters and the experiment layer.
SIMULATE_FORBIDDEN = (
    "numpy", "scipy", "repro.steady_state.lp", "repro.metrics.windows",
    "repro.metrics.usage", "repro.metrics.ensemble", "repro.harness",
    "repro.telemetry.export", "repro.viz", "repro.experiments",
)

_REPORT = """
import json, sys
sys.stdout.write("\\n" + json.dumps(sorted(sys.modules)))
"""


def _loaded(code: str = "", argv=None) -> set:
    """``sys.modules`` of a fresh interpreter after running ``code`` (or
    ``python -m repro argv``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    if argv is not None:
        code = ("import runpy, sys\n"
                f"sys.argv = ['repro', *{list(argv)!r}]\n"
                "try:\n"
                "    runpy.run_module('repro', run_name='__main__')\n"
                "except SystemExit as exc:\n"
                "    assert not exc.code, exc.code\n")
    proc = subprocess.run([sys.executable, "-c", code + _REPORT],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _offenders(modules: set, forbidden) -> list:
    return sorted(m for m in modules for prefix in forbidden
                  if m == prefix or m.startswith(prefix + "."))


def test_import_repro_loads_only_the_package_core():
    repro_modules = {m for m in _loaded("import repro") if
                     m == "repro" or m.startswith("repro.")}
    assert repro_modules == {"repro", "repro._exports", "repro._version",
                             "repro.errors"}


def test_simulate_paths_load_no_numpy_harness_or_experiments():
    modules = _loaded("""
from repro import (Application, ProtocolConfig, TelemetryConfig,
                   TokenBucket, PoissonArrivals, Workload, generate_platform,
                   generate_tree, simulate)

config = ProtocolConfig.interruptible(3, telemetry=TelemetryConfig.tracing())
tree = generate_tree(seed=3)
results = [
    simulate(tree, 300, config),
    simulate(generate_platform("star", seed=3), 300, config),
    simulate(tree, [Application(150, name="a"), Application(150, name="b")],
             config),
    simulate(tree, Workload(arrivals=PoissonArrivals(rate=0.05, horizon=2000),
                            admission=TokenBucket(rate=0.05, burst=4)),
             config),
]
assert results[2].apps[0].telemetry is not None
assert all(results[i].telemetry is not None for i in (0, 1, 3))
assert results[3].service.completed > 0
""")
    assert _offenders(modules, SIMULATE_FORBIDDEN) == []


def test_fig4_configs_load_no_numpy():
    modules = _loaded("from repro.experiments.fig4 import FIG4_CONFIGS")
    assert _offenders(modules, ("numpy", "repro.harness")) == []


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["simulate", "--topology", "star", "--seed", "3", "--tasks", "200"],
], ids=["help", "simulate"])
def test_cli_imports_no_figure_module(argv):
    modules = _loaded(argv=argv)
    experiments = {m.rpartition(".")[2] for m in modules
                   if m.startswith("repro.experiments.")}
    assert not {m for m in experiments
                if m.startswith(("fig", "table")) or m == "ablation"}
    assert "numpy" not in modules
