"""Tests for the onset-of-optimal-steady-state detector."""

from array import array
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.metrics import (
    PAPER_NUM_TASKS,
    PAPER_THRESHOLD_WINDOW,
    default_threshold,
    detect_onset,
    reached_optimal,
)
from repro.sim.warp import PeriodicTimeline


def stream(rate_fn, n):
    """Completion times where task i completes at rate_fn-cumulated steps."""
    times, t = [], 0
    for i in range(n):
        t += rate_fn(i)
        times.append(t)
    return times


class TestDefaultThreshold:
    def test_paper_scale(self):
        assert default_threshold(PAPER_NUM_TASKS) == PAPER_THRESHOLD_WINDOW

    def test_proportional_scaling(self):
        assert default_threshold(1000) == 30
        assert default_threshold(4000) == 120

    def test_minimum_one(self):
        assert default_threshold(10) == 1

    def test_invalid(self):
        with pytest.raises(ReproError):
            default_threshold(0)


class TestDetectOnset:
    def test_steady_at_optimal_with_wiggle_detected(self):
        """Alternating 5,3 gaps averaging 1/4: odd windows run strictly
        above the optimum (rate x/(4x-1) > 1/4), so crossings accumulate."""
        times = stream(lambda i: 5 if i % 2 == 0 else 3, 400)
        onset = detect_onset(times, Fraction(1, 4), threshold_window=20)
        assert onset is not None
        assert onset > 20

    def test_wiggle_phase_that_never_exceeds(self):
        """The opposite phase (3,5) peaks exactly *at* the optimum on even
        windows and below it on odd ones: strictly-over never happens."""
        times = stream(lambda i: 3 if i % 2 == 0 else 5, 400)
        assert detect_onset(times, Fraction(1, 4), threshold_window=20) is None

    def test_sub_optimal_run_never_detected(self):
        times = stream(lambda i: 5, 400)  # exactly 1/5 < 1/4, never above
        assert detect_onset(times, Fraction(1, 4), threshold_window=20) is None
        assert not reached_optimal(times, Fraction(1, 4), threshold_window=20)

    def test_exactly_at_optimal_never_crosses(self):
        """The criterion is strict: a rate that equals the optimum is not
        'over' it (exact rational comparison, no float fuzz)."""
        times = stream(lambda i: 4, 400)
        assert detect_onset(times, Fraction(1, 4), threshold_window=20) is None

    def test_single_fast_gap_influences_a_window_range(self):
        """One fast gap at task 60 lifts every window [x, 2x] with
        30 <= x <= 60 above optimal — so a threshold beyond that range must
        yield no detection, while a threshold inside it does."""
        times = stream(lambda i: 3 if i == 60 else 5, 300)
        assert detect_onset(times, Fraction(1, 5), threshold_window=60) is None
        assert detect_onset(times, Fraction(1, 5), threshold_window=29) == 32

    def test_onset_is_second_crossing(self):
        """Construct exactly two above-optimal windows past the threshold and
        check the reported onset is the second one's window index."""
        optimal = Fraction(1, 4)
        # Baseline gap 4 (= optimal, never over); two isolated gaps of 2
        # create a bounded run of above-optimal windows.
        times = stream(lambda i: 2 if i in (50, 52) else 4, 400)
        onset = detect_onset(times, optimal, threshold_window=10)
        # Windows containing exactly one fast gap tie at optimal; windows
        # containing both fast gaps are strictly above.  The second such
        # window is the onset.
        crossings = [x for x in range(11, 201)
                     if Fraction(x, times[2 * x - 1] - times[x - 1]) > optimal]
        assert len(crossings) >= 2
        assert onset == crossings[1]

    def test_threshold_excludes_startup_noise(self):
        """Crossings at or before the threshold window don't count."""
        times = stream(lambda i: 2 if i < 40 else 6, 400)
        assert detect_onset(times, Fraction(1, 5), threshold_window=100) is None

    def test_zero_dt_burst_counts_as_over(self):
        times = [5] * 200 + [6 * i for i in range(1, 201)]
        onset = detect_onset(times, Fraction(10**6), threshold_window=10)
        assert onset is not None

    def test_invalid_optimal(self):
        with pytest.raises(ReproError):
            detect_onset([1, 2], 0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ReproError):
            detect_onset([1, 2, 3, 4], 1, threshold_window=-1)

    def test_uses_scaled_default_threshold(self):
        times = stream(lambda i: 3 if i % 2 == 0 else 5, 1000)
        explicit = detect_onset(times, Fraction(1, 4), threshold_window=30)
        assert detect_onset(times, Fraction(1, 4)) == explicit


def _indexed_onset(times, optimal, threshold):
    """The reference scan: index both ends of every window."""
    crossings = 0
    for x in range(threshold + 1, len(times) // 2 + 1):
        dt = times[2 * x - 1] - times[x - 1]
        if dt == 0 or Fraction(x, dt) > optimal:
            crossings += 1
            if crossings == 2:
                return x
    return None


@st.composite
def onset_cases(draw):
    """``(timeline, optimal, threshold)``: non-decreasing int times as a
    tuple, an exact run's packed timeline, or a warped one."""
    gaps = draw(st.lists(st.integers(0, 6), max_size=80))
    times = tuple(accumulate(gaps))
    shape = draw(st.sampled_from(["tuple", "exact", "periodic"]))
    if shape == "exact":
        timeline = PeriodicTimeline.exact(times)
    elif shape == "periodic":
        template = tuple(accumulate(
            draw(st.lists(st.integers(0, 6), min_size=1, max_size=6)),
            initial=times[-1] if times else 0))[1:]
        span = template[-1] - (times[-1] if times else 0)
        periods = draw(st.integers(0, 12))
        tail_start = template[-1] + periods * span
        tail = tuple(tail_start + t for t in accumulate(
            draw(st.lists(st.integers(0, 6), max_size=10))))
        timeline = PeriodicTimeline(array("q", times), template, periods,
                                    span, tail)
    else:
        timeline = times
    optimal = draw(st.fractions(min_value=Fraction(1, 8), max_value=4,
                                max_denominator=9))
    threshold = draw(st.integers(0, len(timeline) // 2 + 2))
    return timeline, optimal, threshold


class TestWalkEqualsIndexing:
    @settings(max_examples=400, deadline=None)
    @given(case=onset_cases())
    def test_onset_matches_the_indexed_scan(self, case):
        timeline, optimal, threshold = case
        assert detect_onset(timeline, optimal, threshold) == _indexed_onset(
            tuple(timeline), optimal, threshold)


class TestEndToEnd:
    def test_ic3_on_figure1_reaches_optimal(self):
        from repro import simulate
        from repro.platform import figure1_tree
        from repro.protocols import ProtocolConfig
        from repro.steady_state import solve_tree

        tree = figure1_tree()
        result = simulate(tree, 2000, ProtocolConfig.interruptible(3))
        optimal = solve_tree(tree).rate
        assert reached_optimal(result.completion_times, optimal)

    def test_starved_protocol_on_figure2a_fails_detection(self):
        from repro import simulate
        from repro.platform import figure2a_tree
        from repro.protocols import ProtocolConfig
        from repro.steady_state import solve_tree

        tree = figure2a_tree()
        cfg = ProtocolConfig.non_interruptible(1, buffer_growth=False)
        result = simulate(tree, 2000, cfg)
        optimal = solve_tree(tree).rate
        assert not reached_optimal(result.completion_times, optimal)
