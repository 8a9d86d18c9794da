"""Import budget: each entry point loads only the modules it uses.

Every case runs in a fresh interpreter and inspects ``sys.modules``
afterwards, so the checks hold whatever the test process has imported.
Nothing here is timed.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro import _digest

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


def _fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _loaded(code: str = "", argv=None) -> set:
    """``sys.modules`` of a fresh interpreter after running ``code`` (or
    ``python -m repro argv``)."""
    env = _fresh_env()
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


def test_graph_and_multiapp_simulate_load_no_steady_state():
    # The cooperative optimum is solved when it is read, not per run.
    modules = _loaded("""
from repro import Application, ProtocolConfig, generate_platform, simulate

config = ProtocolConfig.interruptible(3)
simulate(generate_platform("leafspine", seed=7), 300, config)
result = simulate(generate_platform("star", seed=3),
                  [Application(100), Application(100), Application(100)],
                  config)
assert len(result.apps) == 3
""")
    assert _offenders(modules, ("repro.steady_state",)) == []


def test_fig4_configs_load_no_numpy():
    modules = _loaded("from repro.experiments.fig4 import FIG4_CONFIGS")
    assert _offenders(modules, ("numpy", "repro.harness")) == []


def test_fig4_configs_load_no_steady_state():
    """The protocol list alone does not pay for the Theorem 1 solver;
    only running a case imports it."""
    modules = _loaded("from repro.experiments.fig4 import FIG4_CONFIGS")
    assert _offenders(modules, ("repro.steady_state",)) == []


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


def _has_builtin_sha256() -> bool:
    return any(importlib.util.find_spec(name) is not None
               for name in ("_sha2", "_sha256"))


@pytest.mark.skipif(not _has_builtin_sha256(),
                    reason="interpreter built without a built-in sha256")
def test_digests_load_no_hashlib():
    # ``hashlib`` loads ``_hashlib``, which maps OpenSSL's libcrypto into
    # every process that simulates; CPython's own sha256 module is small.
    modules = _loaded("""
from repro import ProtocolConfig, generate_platform, generate_tree, simulate
from repro.harness.checkpoint import (_payload_decode, _payload_encode,
                                      config_digest)
from repro.platform.faults import chaos_schedule

config = ProtocolConfig.interruptible(3)
graph = generate_platform("leafspine", seed=7)
results = [simulate(generate_tree(seed=7), 300, config),
           simulate(graph, 300, config,
                    faults=chaos_schedule(graph, seed=11))]
assert results[1].crashed_node_ids or results[1].transfers_wasted
prints = [result.fingerprint() for result in results]
assert config_digest(config, 300) == config_digest(config, 300)
assert _payload_decode(*_payload_encode(prints)) == prints
""")
    assert _offenders(modules, ("hashlib", "_hashlib")) == []


@given(chunks=st.lists(st.binary(max_size=200), max_size=20))
def test_builtin_sha256_matches_hashlib(chunks):
    ours, oracle = _digest.sha256(), hashlib.sha256()
    for chunk in chunks:
        ours.update(chunk)
        oracle.update(chunk)
    assert ours.hexdigest() == oracle.hexdigest()
    assert _digest.sha256(b"".join(chunks)).hexdigest() == oracle.hexdigest()


def test_hashlib_fallback_gives_the_golden_fingerprint():
    # An interpreter without a built-in sha256 falls back to hashlib and
    # fingerprints byte-identically.
    spec = importlib.util.spec_from_file_location(
        "_equivalence_table",
        Path(__file__).with_name("test_equivalence_table.py"))
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    code = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from repro import ProtocolConfig, generate_tree, simulate
from repro._digest import sha256
assert sha256 is hashlib.sha256
result = simulate(generate_tree(seed=7), 300, ProtocolConfig.interruptible(3))
print(result.fingerprint())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == table.PINNED["topology/tree/ic3"]
