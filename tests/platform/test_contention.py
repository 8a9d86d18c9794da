"""Tests for shared-link bandwidth allocation (max-min, fair-share)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlatformError
from repro.platform import LinkContention, fair_share_rates, max_min_rates
from repro.platform.contention import selfish_rates

F = Fraction


class TestMaxMinFixtures:
    """Hand-computed progressive-filling fixtures."""

    def test_single_bottleneck(self):
        # Three flows through one cap-1 link: equal thirds.
        rates = max_min_rates({"a": (0,), "b": (0,), "c": (0,)}, {0: F(1)})
        assert rates == {"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)}

    def test_nested_bottlenecks(self):
        # link0 cap 1 carries a,b; link1 cap 1/2 carries b,c.
        # Round 1: levels are 1/2 (link0) and 1/4 (link1) → link1 freezes
        # b=c=1/4.  Round 2: link0 has 3/4 left for a alone → a=3/4.
        rates = max_min_rates(
            {"a": (0,), "b": (0, 1), "c": (1,)},
            {0: F(1), 1: F(1, 2)})
        assert rates == {"a": F(3, 4), "b": F(1, 4), "c": F(1, 4)}

    def test_equal_share_tie_broken_by_link_id(self):
        # Two disjoint links at the same fair-share level: both freeze at
        # the same rate regardless of which is picked first, but the
        # deterministic order must not crash or depend on dict order.
        rates = max_min_rates(
            {"a": (1,), "b": (0,)}, {0: F(2), 1: F(2)})
        assert rates == {"a": F(2), "b": F(2)}

    def test_work_conservation_beats_naive_order(self):
        # Regression for the dict-order bug: link1 cap 4 carries both
        # flows, link0 cap 1 carries only b.  Naively freezing the
        # *first-inserted* flow at link1's level gives a=2, b=2 — but b is
        # limited to 1 by link0, so max-min must give b=1 and let a take
        # the remaining 3.
        rates = max_min_rates(
            {"a": (1,), "b": (1, 0)}, {0: F(1), 1: F(4)})
        assert rates == {"a": F(3), "b": F(1)}

    def test_insertion_order_invariance(self):
        caps = {0: F(1), 1: F(1, 2), 2: F(3)}
        flows = {"a": (0,), "b": (0, 1), "c": (1, 2), "d": (2,)}
        import itertools
        expected = max_min_rates(flows, caps)
        for perm in itertools.permutations(flows):
            shuffled = {fid: flows[fid] for fid in perm}
            assert max_min_rates(shuffled, caps) == expected

    def test_duplicate_links_in_route_count_once(self):
        rates = max_min_rates({"a": (0, 0, 0)}, {0: F(2)})
        assert rates == {"a": F(2)}

    def test_empty_flows(self):
        assert max_min_rates({}, {0: F(1)}) == {}

    def test_empty_route_rejected(self):
        with pytest.raises(PlatformError, match="empty route"):
            max_min_rates({"a": ()}, {0: F(1)})

    def test_unknown_link_rejected(self):
        with pytest.raises(PlatformError, match="unknown link"):
            max_min_rates({"a": (9,)}, {0: F(1)})


class TestFairShare:
    def test_min_over_route(self):
        # b crosses both links; its share is min(1/2, 1/4) = 1/4, and a
        # keeps only its own link0 share (no work conservation).
        rates = fair_share_rates(
            {"a": (0,), "b": (0, 1), "c": (1,)},
            {0: F(1), 1: F(1, 2)})
        assert rates == {"a": F(1, 2), "b": F(1, 4), "c": F(1, 4)}

    def test_never_exceeds_maxmin(self):
        caps = {0: F(1), 1: F(1, 2), 2: F(3)}
        flows = {"a": (0,), "b": (0, 1), "c": (1, 2), "d": (2,)}
        mm = max_min_rates(flows, caps)
        fs = fair_share_rates(flows, caps)
        for fid in flows:
            assert fs[fid] <= mm[fid]

    def test_empty_route_rejected(self):
        with pytest.raises(PlatformError, match="empty route"):
            fair_share_rates({"a": ()}, {0: F(1)})

    def test_unknown_link_rejected(self):
        with pytest.raises(PlatformError, match="unknown link"):
            fair_share_rates({"a": (5,)}, {0: F(1)})


class TestLinkContention:
    def test_unknown_mode_rejected(self):
        with pytest.raises(PlatformError, match="contention mode"):
            LinkContention({0: F(1)}, mode="tcp")

    def test_exclusive_flow_stays_integer(self):
        # Capacity 1/c with a single flow: rate is 1/c, volume 1, and
        # _exact keeps everything int-typed where integral.
        mgr = LinkContention({0: F(1, 4)})
        updates = mgr.start("t", (0,), 1, 0)
        assert updates == [("t", F(1, 4), 1)]
        assert mgr.remaining_volume("t", 2) == F(1, 2)
        assert isinstance(mgr.remaining_volume("t", 4), int)
        assert mgr.finish("t", 4) == []
        assert len(mgr) == 0

    def test_new_flow_always_reported(self):
        # A zero-capacity corner can allocate the new flow rate 0 == its
        # initial rate; start() must still report it once.
        mgr = LinkContention({0: F(1)})
        updates = mgr.start("a", (0,), 1, 0)
        assert [u[0] for u in updates] == ["a"]

    def test_only_changed_flows_reported(self):
        mgr = LinkContention({0: F(1), 1: F(1)})
        mgr.start("a", (0,), 1, 0)
        # b on a disjoint link: a's rate is untouched, so only b reports.
        updates = mgr.start("b", (1,), 1, 0)
        assert [u[0] for u in updates] == ["b"]
        assert mgr.rate_changes == 0

    def test_settlement_on_rate_change(self):
        mgr = LinkContention({0: F(1)})
        mgr.start("a", (0,), 1, 0)
        # At t=1/2, a has moved 1/2; b joining halves both rates.
        updates = dict((fid, (rate, vol))
                       for fid, rate, vol in mgr.start("b", (0,), 1, F(1, 2)))
        assert updates["a"] == (F(1, 2), F(1, 2))
        assert updates["b"] == (F(1, 2), 1)
        assert mgr.rate_changes == 1
        # b finishing restores a to full rate with its settled volume.
        updates = mgr.finish("b", F(3, 2))
        assert updates == [("a", 1, 0)]

    def test_pause_returns_remaining_and_updates(self):
        mgr = LinkContention({0: F(1)})
        mgr.start("a", (0,), 1, 0)
        mgr.start("b", (0,), 1, 0)
        remaining, updates = mgr.pause("a", F(1))
        assert remaining == F(1, 2)     # ran at rate 1/2 for 1 step
        assert updates == [("b", 1, F(1, 2))]
        assert "a" not in mgr
        assert "b" in mgr

    def test_duplicate_start_and_missing_finish_rejected(self):
        mgr = LinkContention({0: F(1)})
        mgr.start("a", (0,), 1, 0)
        with pytest.raises(PlatformError, match="already active"):
            mgr.start("a", (0,), 1, 0)
        with pytest.raises(PlatformError, match="no active flow"):
            mgr.finish("ghost", 0)

    def test_reallocation_counter(self):
        mgr = LinkContention({0: F(1)})
        mgr.start("a", (0,), 1, 0)
        mgr.start("b", (0,), 1, 0)
        mgr.finish("a", 1)
        assert mgr.reallocations == 3

    def test_fairshare_mode(self):
        mgr = LinkContention({0: F(1), 1: F(1, 4)}, mode="fairshare")
        mgr.start("a", (0,), 1, 0)
        updates = dict((fid, rate)
                       for fid, rate, _ in mgr.start("b", (0, 1), 1, 0))
        assert updates["a"] == F(1, 2)
        assert updates["b"] == F(1, 4)


# ------------------------------------------------ the definition as oracle
#: Large primes (Mersenne and others): shares of capacities over them
#: carry denominators far past machine-word size.
HUGE_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1,
               618970019642690137449562111, 1000000007, 998244353)

int_caps = st.integers(1, 20).map(F)
small_fraction_caps = st.builds(F, st.integers(1, 20), st.integers(1, 12))
huge_prime_caps = st.builds(F, st.integers(1, 20),
                            st.sampled_from(HUGE_PRIMES))


@st.composite
def instances(draw):
    """A capacity map from one capacity family, and 1–8 flows whose routes
    (1–4 hops, repeats allowed) cross it."""
    family = draw(st.sampled_from(
        (int_caps, small_fraction_caps, huge_prime_caps)))
    caps = dict(enumerate(draw(st.lists(family, min_size=1, max_size=6))))
    route = st.lists(st.sampled_from(sorted(caps)), min_size=1, max_size=4)
    routes = draw(st.lists(route.map(tuple), min_size=1, max_size=8))
    flows = {f"f{i}": links for i, links in enumerate(routes)}
    priorities = {fid: draw(st.sampled_from((0, 1, 2, None)))
                  for fid in flows}
    return flows, caps, priorities


def _crossing(flows):
    """Link id → the flows whose route crosses it (each flow once)."""
    crossing = {}
    for fid, route in flows.items():
        for link in set(route):
            crossing.setdefault(link, []).append(fid)
    return crossing


def assert_max_min_fair(flows, caps, rates):
    """``rates`` is the max-min fair allocation of ``flows`` on ``caps``.

    Feasible: no link carries more than its capacity.  Bottlenecked:
    every flow crosses a saturated link on which no flow gets more than
    it does.  Together these define the (unique) max-min allocation.
    """
    assert set(rates) == set(flows)
    for rate in rates.values():
        assert isinstance(rate, (int, Fraction)) and rate >= 0
    crossing = _crossing(flows)
    load = {link: sum(rates[fid] for fid in fids)
            for link, fids in crossing.items()}
    for link, used in load.items():
        assert used <= caps[link], f"link {link} over capacity"
    for fid, route in flows.items():
        assert any(load[link] == caps[link]
                   and all(rates[other] <= rates[fid]
                           for other in crossing[link])
                   for link in set(route)), f"flow {fid} has no bottleneck"


class TestAllocatorsMeetTheirDefinitions:
    """Each allocator against its definition, not against another solver
    (the incremental kernel and its reference twin share the allocators,
    so their agreement alone cannot catch an allocator bug)."""

    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_max_min_rates(self, instance):
        flows, caps, _ = instance
        assert_max_min_fair(flows, caps, max_min_rates(flows, caps))

    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_selfish_rates_fill_each_class_max_min(self, instance):
        flows, caps, priorities = instance
        rates = selfish_rates(flows, caps, priorities)
        assert set(rates) == set(flows)
        order = sorted({p for p in priorities.values() if p is not None})
        if None in priorities.values():
            order.append(None)
        remaining = dict(caps)
        for key in order:
            members = {fid: route for fid, route in flows.items()
                       if priorities[fid] == key}
            assert_max_min_fair(members, remaining,
                                {fid: rates[fid] for fid in members})
            for fid, route in members.items():
                for link in set(route):
                    remaining[link] -= rates[fid]

    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_fair_share_rates(self, instance):
        flows, caps, _ = instance
        rates = fair_share_rates(flows, caps)
        crossing = _crossing(flows)
        assert rates == {
            fid: min(caps[link] / len(crossing[link]) for link in set(route))
            for fid, route in flows.items()}

    @settings(max_examples=50, deadline=None)
    @given(instances())
    def test_incremental_kernel_settles_on_max_min(self, instance):
        # Flows started one by one go through the shortcuts, the memo and
        # the allocator; the state they settle on must still be max-min.
        flows, caps, _ = instance
        manager = LinkContention(caps, "maxmin")
        for fid, route in flows.items():
            manager.start(fid, route, 10, 0)
        assert_max_min_fair(flows, caps,
                            {fid: manager.rate_of(fid) for fid in flows})

    def test_oracle_rejects_a_non_max_min_allocation(self):
        # The nested-bottleneck fixture: an equal split leaves link 0
        # unsaturated under flow a, which the oracle must catch.
        flows = {"a": (0,), "b": (0, 1), "c": (1,)}
        caps = {0: F(1), 1: F(1, 2)}
        with pytest.raises(AssertionError, match="no bottleneck"):
            assert_max_min_fair(flows, caps, fair_share_rates(flows, caps))
        with pytest.raises(AssertionError, match="over capacity"):
            assert_max_min_fair(flows, caps, {"a": F(1), "b": F(1, 4),
                                              "c": F(1, 4)})
