"""Tests for overlay-tree construction from physical topologies."""

import random
from functools import partial

import pytest

from repro._digest import sha256
from repro.errors import ExperimentError, PlatformError
from repro.experiments import ExperimentScale, ablation
from repro.harness import HarnessConfig, run_seeds
from repro.platform import PlatformGraph
from repro.platform.overlay import (
    bfs_overlay,
    compare_overlays,
    mst_overlay,
    random_overlay,
)


@pytest.fixture
def diamond():
    """0—1 (cost 1), 0—2 (cost 10), 1—3 (cost 10), 2—3 (cost 1).

    MST attaches node 3 below 2, where BFS and the shortest-path tree
    attach it below 1.
    """
    return PlatformGraph([4, 4, 4, 4],
                         [(0, 1, 1), (0, 2, 10), (1, 3, 10), (2, 3, 1)])


def relay_overlay(graph, root=None):
    return graph.overlay(root=root)


class TestOverlayBuilders:
    def test_bfs_minimizes_hops(self, diamond):
        tree = bfs_overlay(diamond).tree
        assert tree.max_depth == 2  # 3 attaches directly below 1 or 2

    def test_shortest_path_attaches_cheaply(self, diamond):
        tree = relay_overlay(diamond).tree
        # Host 3's two paths, 0—1—3 and 0—2—3, both cost 11 in 2 hops:
        # the tie goes to the lower host id.
        assert tree.parent[3] == 1
        assert [cost for *_ids, cost in tree.edges()] == [1, 10, 10]

    def test_shortest_path_tie_takes_fewer_hops(self):
        # Host 4 is 3 steps away both along 0—1—2—4 (3 hops) and along
        # 0—3—4 (2 hops): equal cost, so the fewer hops win.
        graph = PlatformGraph([1] * 5, [(0, 1, 1), (1, 2, 1), (2, 4, 1),
                                        (0, 3, 2), (3, 4, 1)])
        tree = relay_overlay(graph).tree
        assert tree.parent[4] == 3
        assert tree.depth(4) == 2

    def test_mst_total_cost_minimal(self, diamond):
        tree = mst_overlay(diamond).tree
        assert sum(cost for *_ids, cost in tree.edges()) == 12  # 1 + 10 + 1

    def test_random_overlay_deterministic_with_seed(self, diamond):
        a = random_overlay(diamond, seed=3)
        b = random_overlay(diamond, seed=3)
        assert a == b

    def test_all_builders_produce_valid_trees(self, diamond):
        for build in (bfs_overlay, relay_overlay, mst_overlay,
                      random_overlay):
            tree = build(diamond).tree
            assert tree.num_nodes == len(diamond.hosts)
            assert tree.root == 0

    def test_root_relabelled_to_zero(self):
        graph = PlatformGraph([1, 2, 3], [(0, 1, 1), (1, 2, 1)])
        overlay = bfs_overlay(graph, root=2)
        assert overlay.tree.root == 0
        assert overlay.tree.w[0] == 3  # host 2's weight now at id 0
        assert overlay.hosts == (2, 0, 1)

    def test_non_host_root_rejected(self, diamond):
        for build in (bfs_overlay, mst_overlay, random_overlay):
            with pytest.raises(PlatformError, match="not a host"):
                build(diamond, 7)

    def test_edge_weights_taken_from_graph(self, diamond):
        overlay = bfs_overlay(diamond)
        for _parent, child, cost in overlay.tree.edges():
            (link,) = overlay.routes[child]
            assert cost == diamond.link_c[link]


class TestComparison:
    def test_ranked_by_rate(self, diamond):
        rows = compare_overlays(diamond, seed=1)
        assert len(rows) == 4
        rates = [row.rate for row in rows]
        assert rates == sorted(rates, reverse=True)
        assert {row.strategy for row in rows} == {
            "bfs", "shortest-path", "mst", "random"}

    def test_bandwidth_sensitive_ranking(self):
        """With a tight root uplink, attaching hosts behind the cheap link
        beats the hop-minimal overlay."""
        # Star option: root—1 cheap, root—2 very expensive;
        # alternative: 2 behind 1 via a cheap link.
        graph = PlatformGraph([10, 10, 10],
                              [(0, 1, 1), (0, 2, 50), (1, 2, 1)])
        rows = {row.strategy: row.rate for row in compare_overlays(graph)}
        assert rows["mst"] >= rows["bfs"]


class _ScriptedRng:
    """Replays fixed ``randint`` and ``randrange`` draws."""

    def __init__(self, ints, ranges):
        self._ints = iter(ints)
        self._ranges = iter(ranges)

    def randint(self, lo, hi):
        return next(self._ints)

    def randrange(self, n):
        return next(self._ranges)


class TestRandomTopology:
    def test_parallel_links_keep_cheapest(self):
        # Tree links (0,1,5), (1,2,7), (0,3,9); chords (1,0,2), (3,2,1).
        rng = _ScriptedRng(ints=[10, 10, 10, 10, 5, 7, 9, 2, 1],
                           ranges=[0, 1, 0, 1, 0, 3, 2])
        graph = ablation._random_topology(rng, 4)
        assert [(u, v, c) for _id, u, v, c in graph.links()] == [
            (0, 1, 2), (1, 2, 7), (0, 3, 9), (2, 3, 1)]
        assert list(graph.adj[1]) == [0, 2]  # first appearance keeps its slot


class TestOverlayAblation:
    def test_default_table(self):
        result = ablation.overlay_strategies()
        assert result.wins == {"shortest-path": 16, "bfs": 8, "mst": 5,
                               "random": 1}
        expected = {"bfs": 0.8705891514492788,
                    "mst": 0.9581789000962221,
                    "random": 0.8061045196859488,
                    "shortest-path": 0.9824876914866969}
        assert result.mean_relative_rate == pytest.approx(expected,
                                                          rel=0, abs=1e-12)

    def test_bfs_mst_random_trees_digest(self):
        """The BFS, MST and random trees of the 150-graph CLI default."""
        digest = sha256()
        for seed in range(150):
            graph = ablation._random_topology(random.Random(seed), 40)
            for overlay in (bfs_overlay(graph), mst_overlay(graph),
                            random_overlay(graph, seed=seed)):
                digest.update(repr(list(overlay.tree.edges())).encode())
        assert digest.hexdigest() == (
            "a37b60c0bf001aae31182b90aac22e3b4232d575181f62ab46caefa51d709a14")

    def test_older_journal_not_resumed(self, tmp_path):
        # A journal keyed by the hosts count alone holds shortest-path
        # trees of an older tie rule: resuming must refuse, not replay it.
        seeds = [0, 1]
        run_seeds(partial(ablation._overlay_seed, hosts=15), seeds,
                  experiment="overlays", config_parts=(15,),
                  harness=HarnessConfig(checkpoint_dir=str(tmp_path)))
        with pytest.raises(ExperimentError, match="different configuration"):
            ablation.overlay_strategies(
                ExperimentScale(trees=len(seeds), tasks=2), hosts=15,
                harness=HarnessConfig(checkpoint_dir=str(tmp_path),
                                      resume=True))
