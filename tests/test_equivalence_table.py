"""The equivalence contract, as one golden table.

``SimulationResult.fingerprint()`` is the behaviour contract of the whole
simulator.  Every row of the table below is one ``repro.simulate()`` run
whose fingerprint must either equal a pinned hex digest or equal the
fingerprint of a twin run:

* **pinned** — fault-free runs on every topology (tree, star, chain,
  leaf-spine) and the closed-bag service matrix on every engine (tree,
  graph, multi-app).  A drift here means a change leaked into a path it
  should not touch;
* **tree = graph** — a tree run through the tree engine and the same tree
  embedded as a :class:`PlatformGraph` through the graph engine.  Every
  link of such a graph carries at most one flow, so no rate ever changes
  and the calendars coincide event for event;
* **single = N=1** — a plain task count and one explicit
  :class:`Application` (the multi-application engine with one lane), on
  trees, graph shapes and under a chaos fault schedule.

Two service-mode gates ride along: warp under exactly periodic arrivals
must reproduce the exact run (latency folds included) while dispatching
at least ``MIN_WARP_SPEEDUP`` times fewer events, and a 1M-arrival day
must finish without retaining per-task state.  Fingerprints must also
not depend on ``PYTHONHASHSEED``: a paper tree, a contended leaf-spine, a
chaos fault run and a diurnal service day fingerprint the same in fresh
interpreters under two hash seeds.

Regenerate the pins after an intentional behaviour change by running
this module as a script and pasting its output over ``PINNED``::

    PYTHONPATH=src python tests/test_equivalence_table.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import repro
from repro import simulate
from repro.apps import Application, Workload
from repro.platform import PlatformGraph, figure1_tree, generate_platform
from repro.platform.faults import chaos_schedule
from repro.platform.generator import TreeGeneratorParams, generate_tree
from repro.protocols import ProtocolConfig
from repro.service import PeriodicArrivals, TokenBucket

PRESETS = {
    "ic3": ProtocolConfig.interruptible(3),
    "non-ic": ProtocolConfig.non_interruptible(),
    "non-ic-decay": ProtocolConfig.non_interruptible(buffer_decay=True),
}
SEEDS = (1, 7, 42)
SHAPES = ("star", "chain", "leafspine")

PINNED = {
    "topology/tree/ic3":
        "cebd219dfd3aab8e44cff6fad99c9ba156e2660e986724d24e255f054e66f4b0",
    "topology/star/ic3":
        "20af3da9be2af79b49e80b89a729128dd95df6d43a408f5a054a88a7a210097e",
    "topology/chain/ic3":
        "14e8bf63cb2d3d7a6c19eb3ac2c08dd34fb18a53593a517c530148eb568d0443",
    "topology/leafspine/ic3":
        "658f24b9f8e8da7b5d4ac0c8bf5138746979106890661483ecffaf9407a981bc",
    "topology/tree/non-ic":
        "85f1b181f1c4c745ca98dfe33f7c5fb5f4712596a4fc3a79bd60adca57e2ca13",
    "topology/star/non-ic":
        "a564a9ca672dbd51089b1c5a997893a2a58ac4c3f1add369d4a9bb903d5af556",
    "topology/chain/non-ic":
        "a0610bb55c411ed3ee8f77d86e76d5cf67d5b836584e1114cf2a88ec3a694651",
    "topology/leafspine/non-ic":
        "c2760dff1b08fe3d03f30b2eee601a9e87061f2305d4663be0e61824fe69c486",
    "service/tree_interruptible":
        "b4c5ccdac0f1f99cdab29fe62e0edb2b863f541908d46fb4d747be3a19c2f93f",
    "service/tree_interruptible_2apps":
        "9654941792b828ef9f19b4a070628e136554223e67a79ee6a198cc25f1106422",
    "service/tree_noninterruptible":
        "d5846a61738ccc456c3415745d7d648af13fc14d1ed21ad55f0c2541dd2f7585",
    "service/tree_noninterruptible_2apps":
        "9d6ee61a0ad128e5cd7aedab9718d02dd1b21edb56e89c91eb83642b7532ab95",
    "service/gen_tree_interruptible":
        "b45668956081db41a1b6b4c3f51b8502646056c1355ba415643db35fde51cf44",
    "service/gen_tree_interruptible_2apps":
        "2d2d2f4c3562411a875904337a41c2cf4e52d230370d68eb95030e82a0ef380b",
    "service/star_interruptible":
        "41a3474d49c3fa39abc5e16b67a2dc06bec0b9bd648bbe1f1cb3c570ffb61cf1",
    "service/star_interruptible_2apps":
        "1bc28583cfed27581d8f36de277772b8fca545729b558b2835bed2f08a776588",
    "service/leafspine_interruptible":
        "348f0db55b26814784444fa3db2043ab1f2fefc25cdfc9ecc387a4221db2f709",
    "service/leafspine_interruptible_2apps":
        "ed15815008b958a768ebdc62c15c811b243da440e54e23a490d07ec7d4df403a",
}

MIN_WARP_SPEEDUP = 5.0


class Run(NamedTuple):
    """One ``simulate(platform, workload, config, **kwargs)`` call."""

    platform: object
    workload: object
    config: ProtocolConfig
    kwargs: dict = {}

    def fingerprint(self) -> str:
        return simulate(self.platform, self.workload, self.config,
                        **self.kwargs).fingerprint()


def _pinned_runs():
    for shape in ("tree",) + SHAPES:
        platform = (generate_tree(seed=7) if shape == "tree"
                    else generate_platform(shape, seed=7))
        for preset in ("ic3", "non-ic"):
            yield f"topology/{shape}/{preset}", Run(platform, 300,
                                                    PRESETS[preset])
    ic3 = PRESETS["ic3"]
    gen = generate_tree(TreeGeneratorParams(min_nodes=12, max_nodes=12),
                        seed=7)
    for name, platform, tasks, config in (
            ("tree_interruptible", figure1_tree(), 60, ic3),
            ("tree_noninterruptible", figure1_tree(), 60,
             ProtocolConfig.non_interruptible(1)),
            ("gen_tree_interruptible", gen, 80, ic3),
            ("star_interruptible", generate_platform("star", seed=3), 50,
             ic3),
            ("leafspine_interruptible", generate_platform("leafspine", seed=5),
             50, ic3)):
        yield f"service/{name}", Run(platform, tasks, config)
        two_apps = Workload(apps=(Application(tasks // 2),
                                  Application(tasks // 2)))
        yield f"service/{name}_2apps", Run(platform, two_apps, config)


def _twin_runs():
    for seed in SEEDS:
        tree = generate_tree(seed=seed)
        graph = PlatformGraph.from_tree(tree)
        for preset, config in PRESETS.items():
            for tasks in (200, 300, 500, 1000):
                yield (f"tree=graph/seed{seed}/{tasks}/{preset}",
                       Run(tree, tasks, config), Run(graph, tasks, config))
            for tasks in (150, 200, 300, 500):
                yield (f"single=n1/tree/seed{seed}/{tasks}/{preset}",
                       Run(tree, tasks, config),
                       Run(tree, Application(tasks), config))
    tree = generate_tree(seed=3)
    yield ("single=n1/tree/seed3/200/ic3", Run(tree, 200, PRESETS["ic3"]),
           Run(tree, Application(200), PRESETS["ic3"]))
    for shape in SHAPES:
        graph = generate_platform(shape, seed=7)
        for preset, config in PRESETS.items():
            for tasks in (150, 300):
                yield (f"single=n1/{shape}/{tasks}/{preset}",
                       Run(graph, tasks, config),
                       Run(graph, Application(tasks), config))
        # The identity survives fault injection: one lane under the
        # shared GraphFaultDriver is the single-app fault run.
        chaos = dict(faults=chaos_schedule(graph, seed=11),
                     check_invariants=True)
        yield (f"single=n1/{shape}/300/chaos11",
               Run(graph, 300, PRESETS["ic3"], chaos),
               Run(graph, Application(300), PRESETS["ic3"], chaos))


PINNED_RUNS = dict(_pinned_runs())
TWIN_RUNS = {name: (a, b) for name, a, b in _twin_runs()}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_pinned_fingerprint(name):
    assert PINNED_RUNS[name].fingerprint() == PINNED[name]


@pytest.mark.parametrize("name", sorted(TWIN_RUNS))
def test_twin_fingerprints_identical(name):
    want, got = TWIN_RUNS[name]
    assert got.fingerprint() == want.fingerprint()


def test_table_covers_every_pin():
    assert set(PINNED_RUNS) == set(PINNED)
    assert len(TWIN_RUNS) == 36 + 37 + 18 + 3


def _service_tree():
    return generate_tree(TreeGeneratorParams(
        min_nodes=30, max_nodes=30, max_comm=8, max_comp=16,
        comp_divisor=16), seed=1)


def test_warp_identity_under_periodic_arrivals():
    tree = _service_tree()
    workload = Workload(arrivals=PeriodicArrivals(interval=40,
                                                  horizon=400_000, batch=2))
    exact = simulate(tree, workload,
                     ProtocolConfig.interruptible(3, warp=False))
    warped = simulate(tree, workload,
                      ProtocolConfig.interruptible(3, warp=True))
    assert warped.warp is not None and warped.warp.applied, warped.warp
    assert warped.fingerprint() == exact.fingerprint()
    assert warped.service == exact.service
    # events_processed is replicated to match the exact run (fingerprint
    # contract); the events actually dispatched are what was not skipped.
    dispatched = warped.events_processed - warped.warp.events_skipped
    assert exact.events_processed >= MIN_WARP_SPEEDUP * max(dispatched, 1)


def test_million_arrival_day_keeps_memory_bounded():
    arrivals = PeriodicArrivals(interval=4, horizon=4_200_000, batch=1)
    assert arrivals.num_events >= 1_000_000
    workload = Workload(arrivals=arrivals,
                        admission=TokenBucket(rate="1/5", burst=64))
    result = simulate(_service_tree(), workload,
                      ProtocolConfig.interruptible(3, warp=True),
                      record_completion_times=False)
    stats = result.service
    assert stats.offered >= 1_000_000
    assert stats.completed == stats.admitted
    assert not result.completion_times  # no per-task list retained
    # The pending deque stays at queue scale, not stream scale.
    assert stats.pending_high_water <= 100_000
    assert None not in (stats.p50, stats.p95, stats.p99)
    summary = result.warp
    assert summary.applied
    assert (summary.periods, summary.period_tasks, summary.warp_completed,
            summary.events_skipped) == (209934, 4, 321, 2309274)


_HASH_SEED_CELLS = """
import json
from repro import simulate
from repro.apps import Workload
from repro.platform import generate_platform
from repro.platform.faults import chaos_schedule
from repro.platform.generator import generate_tree
from repro.protocols import ProtocolConfig
from repro.service import DiurnalArrivals, TokenBucket

ic3 = ProtocolConfig.interruptible(3)
leafspine = generate_platform("leafspine", seed=7)
day = Workload(arrivals=DiurnalArrivals(rates=(0.05, 0.6, 0.15),
                                        phase_len=500, horizon=6000, seed=3),
               admission=TokenBucket(rate="1/4", burst=64))
cells = (
    (generate_tree(seed=3), 2000, {}),
    (leafspine, 300, {}),
    (leafspine, 300, dict(faults=chaos_schedule(leafspine, seed=11),
                          check_invariants=True)),
    (generate_tree(seed=1), day, {}),
)
print(json.dumps([simulate(platform, workload, ic3, **kwargs).fingerprint()
                  for platform, workload, kwargs in cells]))
"""


def test_fingerprints_do_not_depend_on_the_hash_seed():
    src = str(Path(repro.__file__).resolve().parent.parent)
    seen = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", _HASH_SEED_CELLS],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen.append(json.loads(proc.stdout.splitlines()[-1]))
    assert seen[0] == seen[1]
    assert len(set(seen[0])) == 4
    assert seen[0][1] == PINNED["topology/leafspine/ic3"]


if __name__ == "__main__":
    print("PINNED = {")
    for name, run in PINNED_RUNS.items():
        print(f'    "{name}":\n        "{run.fingerprint()}",')
    print("}")
