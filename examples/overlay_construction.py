#!/usr/bin/env python3
"""Choosing the tree overlay for a physical network (§6 future work).

The scheduling model needs a *tree*, but a real grid is a general graph of
hosts and links.  The paper leaves "which tree?" open; this example answers
it empirically for a two-site topology with redundant links: build several
candidate overlays (BFS / shortest-path / MST / random), rank them by the
optimal steady-state rate Theorem 1 assigns them, then confirm the ranking
by actually running the IC/FB=3 protocol on the best and worst overlays.

Run:  python examples/overlay_construction.py
"""

from repro.metrics import window_rate
from repro.platform import PlatformGraph
from repro.platform.overlay import compare_overlays
from repro import simulate
from repro.protocols import ProtocolConfig
from repro.steady_state import solve_tree

NUM_TASKS = 3000


def build_topology() -> PlatformGraph:
    """A cluster behind one fast gateway, plus slow direct WAN links.

    Every worker is directly reachable from the repository over a 30-step
    WAN link, but the cluster's internal mesh is fast (1–2 steps) and one
    gateway link (host 1) is fast too.  A hop-minimal (BFS) overlay builds
    a star over the WAN links and chokes on the repository's send port; a
    cost-aware overlay routes everything through the gateway and nearly
    doubles the optimal rate.
    """
    w = [3] * 10  # ten identical 3-steps-per-task hosts; host 0 = repository
    links = [(0, 1, 1)] + [(0, i, 30) for i in range(2, 10)]  # WAN star
    links += [  # the cluster's internal mesh
        (1, 2, 1), (2, 3, 1), (1, 4, 2), (4, 5, 1),
        (1, 6, 2), (6, 7, 1), (4, 8, 2), (6, 9, 2),
    ]
    return PlatformGraph(w, links)


def measured_rate(tree) -> float:
    result = simulate(tree, NUM_TASKS, ProtocolConfig.interruptible(3))
    x = NUM_TASKS // 3
    return float(window_rate(result.completion_times, x))


def main() -> None:
    topology = build_topology()
    rows = compare_overlays(topology, seed=7)

    print("overlay ranking by optimal steady-state rate (Theorem 1):")
    for row in rows:
        print(f"  {row.strategy:<14} rate {row.rate:.4f}  "
              f"depth {row.tree.max_depth}")

    best, worst = rows[0], rows[-1]
    best_measured = measured_rate(best.tree)
    worst_measured = measured_rate(worst.tree)
    print(f"\nprotocol throughput on '{best.strategy}' overlay : "
          f"{best_measured:.4f} tasks/step")
    print(f"protocol throughput on '{worst.strategy}' overlay: "
          f"{worst_measured:.4f} tasks/step")
    gain = best_measured / worst_measured
    print(f"picking the right overlay is worth {gain:.2f}x here")

    assert gain > 1.5, "the overlay choice should matter on this topology"
    assert best_measured >= worst_measured - 1e-9
    # The theory ranking must agree with what the protocol actually achieves.
    assert abs(best_measured - float(solve_tree(best.tree).rate)) \
        / float(solve_tree(best.tree).rate) < 0.03


if __name__ == "__main__":
    main()
