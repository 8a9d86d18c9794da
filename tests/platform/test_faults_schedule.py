"""FaultSchedule and fault-event validation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlatformError
from repro.platform import (CrashEvent, FaultSchedule, LinkFailureEvent,
                            LinkRepairEvent, PlatformGraph, figure1_tree)
from repro.platform.generator import TreeGeneratorParams, generate_tree


class TestEvents:
    @pytest.mark.parametrize("cls",
                             [CrashEvent, LinkFailureEvent, LinkRepairEvent])
    def test_negative_time_rejected(self, cls):
        with pytest.raises(PlatformError, match="at_time"):
            cls(at_time=-1, node=1)

    @pytest.mark.parametrize("cls",
                             [CrashEvent, LinkFailureEvent, LinkRepairEvent])
    def test_negative_node_rejected(self, cls):
        with pytest.raises(PlatformError, match="node"):
            cls(at_time=0, node=-1)

    def test_events_are_frozen(self):
        event = CrashEvent(at_time=5, node=2)
        with pytest.raises(AttributeError):
            event.node = 3


class TestSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule([
            CrashEvent(at_time=50, node=2),
            LinkFailureEvent(at_time=10, node=5),
        ])
        assert [e.at_time for e in schedule] == [10, 50]

    def test_len_and_bool(self):
        assert not FaultSchedule()
        assert len(FaultSchedule()) == 0
        schedule = FaultSchedule([CrashEvent(at_time=1, node=1)])
        assert schedule and len(schedule) == 1

    def test_root_crash_rejected(self):
        schedule = FaultSchedule([CrashEvent(at_time=0, node=0)])
        with pytest.raises(PlatformError, match="root"):
            schedule.validate(figure1_tree())

    def test_root_link_failure_rejected(self):
        schedule = FaultSchedule([LinkFailureEvent(at_time=0, node=0)])
        with pytest.raises(PlatformError, match="root"):
            schedule.validate(figure1_tree())

    def test_double_failure_rejected(self):
        schedule = FaultSchedule([
            LinkFailureEvent(at_time=10, node=5),
            LinkFailureEvent(at_time=20, node=5),
        ])
        with pytest.raises(PlatformError, match="already down"):
            schedule.validate(figure1_tree())

    def test_repair_without_failure_rejected(self):
        schedule = FaultSchedule([LinkRepairEvent(at_time=10, node=5)])
        with pytest.raises(PlatformError, match="never down"):
            schedule.validate(figure1_tree())

    def test_well_formed_alternation_accepted(self):
        schedule = FaultSchedule([
            LinkFailureEvent(at_time=10, node=5),
            LinkRepairEvent(at_time=20, node=5),
            LinkFailureEvent(at_time=30, node=5),
            CrashEvent(at_time=40, node=2),
        ])
        schedule.validate(figure1_tree())  # must not raise

    def test_double_crash_rejected(self):
        schedule = FaultSchedule([
            CrashEvent(at_time=10, node=2),
            CrashEvent(at_time=20, node=2),
        ])
        with pytest.raises(PlatformError, match="already crashed"):
            schedule.validate(figure1_tree())

    def test_child_link_events_after_parent_crash_rejected(self):
        # Node 2's crash takes its link to child 3 with it: that link
        # never repairs, so an outage window on it is meaningless.
        schedule = FaultSchedule([
            CrashEvent(at_time=80, node=2),
            LinkFailureEvent(at_time=100, node=3),
            LinkRepairEvent(at_time=300, node=3),
        ])
        with pytest.raises(PlatformError, match="parent's crash"):
            schedule.validate(figure1_tree())

    def test_out_of_range_node_allowed_statically(self):
        # Faults may target nodes created by later churn joins, so range
        # checks are deferred to fire time.
        FaultSchedule([CrashEvent(at_time=10, node=99)]).validate(
            figure1_tree())


class TestSameTimeOrdering:
    """Same-``at_time`` overlaps normalize to failure < repair < crash."""

    def test_kind_rank_at_equal_time(self):
        schedule = FaultSchedule([
            CrashEvent(at_time=10, node=2),
            LinkRepairEvent(at_time=10, node=5),
            LinkFailureEvent(at_time=10, node=5),
        ])
        assert [type(e) for e in schedule] == [
            LinkFailureEvent, LinkRepairEvent, CrashEvent]

    def test_node_breaks_remaining_ties(self):
        schedule = FaultSchedule([
            LinkFailureEvent(at_time=10, node=7),
            LinkFailureEvent(at_time=10, node=3),
        ])
        assert [e.node for e in schedule] == [3, 7]

    def test_order_independent_of_construction(self):
        events = [
            CrashEvent(at_time=10, node=2),
            LinkFailureEvent(at_time=10, node=5),
            LinkRepairEvent(at_time=10, node=5),
            LinkFailureEvent(at_time=5, node=3),
        ]
        reference = FaultSchedule(events).events
        assert FaultSchedule(reversed(events)).events == reference
        assert FaultSchedule(events[::2] + events[1::2]).events == reference

    def test_same_time_blip_on_up_link_validates(self):
        # fail and repair at the same instant on an up link: normalized to
        # fail-then-repair, a zero-length outage — well-formed.
        schedule = FaultSchedule([
            LinkRepairEvent(at_time=10, node=5),
            LinkFailureEvent(at_time=10, node=5),
        ])
        schedule.validate(figure1_tree())  # must not raise

    def test_same_time_overlap_on_down_link_rejected(self):
        # Link already down; a same-instant repair+failure pair normalizes
        # to failure-first, which deterministically hits "already down"
        # regardless of the order the events were listed in.
        for pair in ([LinkRepairEvent(at_time=20, node=5),
                      LinkFailureEvent(at_time=20, node=5)],
                     [LinkFailureEvent(at_time=20, node=5),
                      LinkRepairEvent(at_time=20, node=5)]):
            schedule = FaultSchedule(
                [LinkFailureEvent(at_time=10, node=5)] + pair)
            with pytest.raises(PlatformError, match="already down"):
                schedule.validate(figure1_tree())

    def test_crash_sorts_after_link_events_of_other_nodes(self):
        schedule = FaultSchedule([
            CrashEvent(at_time=10, node=1),
            LinkFailureEvent(at_time=10, node=9),
        ])
        assert isinstance(schedule.events[0], LinkFailureEvent)
        assert isinstance(schedule.events[1], CrashEvent)


#: ``(kind, node pick, time)``: 0 crash, 1 link failure, 2 link repair.
_EVENT_KINDS = (CrashEvent, LinkFailureEvent, LinkRepairEvent)
node_events = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10_000),
                                 st.integers(0, 60)), max_size=8)


def _accepts(validate) -> bool:
    try:
        validate()
    except PlatformError:
        return False
    return True


@given(seed=st.integers(0, 10_000), events=node_events)
@settings(max_examples=200, deadline=None)
def test_tree_and_graph_validators_agree(seed, events):
    """One validity rule: a node-addressed schedule is valid on a tree
    exactly when it is valid on the tree embedded as a graph."""
    tree = generate_tree(TreeGeneratorParams(min_nodes=2, max_nodes=12),
                         seed=seed)
    schedule = FaultSchedule(
        _EVENT_KINDS[kind](at_time=at_time, node=pick % tree.num_nodes)
        for kind, pick, at_time in events)
    graph = PlatformGraph.from_tree(tree)
    assert (_accepts(lambda: schedule.validate(tree))
            == _accepts(lambda: schedule.validate_graph(graph,
                                                        graph.overlay())))
