"""Tests for event types, instances, and schedules."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.video import EventInstance, EventSchedule, EventType, HorizonEvent

ET = EventType(name="truck", duration_mean=20, duration_std=5)
ET2 = EventType(name="crowd", duration_mean=40, duration_std=2)


class TestEventType:
    def test_validation(self):
        with pytest.raises(ValueError):
            EventType("x", duration_mean=0, duration_std=1)
        with pytest.raises(ValueError):
            EventType("x", duration_mean=1, duration_std=-1)
        with pytest.raises(ValueError):
            EventType("x", duration_mean=1, duration_std=1, lead_time=0)
        with pytest.raises(ValueError):
            EventType("x", duration_mean=1, duration_std=1, predictability=1.5)

    def test_sample_duration_at_least_two(self):
        et = EventType("x", duration_mean=2, duration_std=50)
        rng = np.random.default_rng(0)
        durations = [et.sample_duration(rng) for _ in range(200)]
        assert min(durations) >= 2

    def test_sample_duration_matches_mean(self):
        et = EventType("x", duration_mean=100, duration_std=10)
        rng = np.random.default_rng(0)
        durations = [et.sample_duration(rng) for _ in range(2000)]
        assert abs(np.mean(durations) - 100) < 2


class TestEventInstance:
    def test_duration_inclusive(self):
        assert EventInstance(5, 9, ET).duration == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            EventInstance(-1, 3, ET)
        with pytest.raises(ValueError):
            EventInstance(5, 4, ET)

    def test_overlaps(self):
        inst = EventInstance(10, 20, ET)
        assert inst.overlaps(20, 30)
        assert inst.overlaps(0, 10)
        assert inst.overlaps(12, 15)
        assert not inst.overlaps(21, 30)
        assert not inst.overlaps(0, 9)

    def test_frames(self):
        assert list(EventInstance(3, 5, ET).frames()) == [3, 4, 5]

    def test_ordering_by_start(self):
        a, b = EventInstance(5, 9, ET), EventInstance(1, 3, ET)
        assert sorted([a, b])[0] is b


class TestEventSchedule:
    def make(self):
        return EventSchedule(
            100,
            [
                EventInstance(10, 19, ET),
                EventInstance(50, 69, ET),
                EventInstance(30, 44, ET2),
            ],
        )

    def test_rejects_instance_beyond_length(self):
        with pytest.raises(ValueError):
            EventSchedule(10, [EventInstance(5, 15, ET)])

    def test_rejects_overlapping_same_type(self):
        with pytest.raises(ValueError):
            EventSchedule(100, [EventInstance(0, 10, ET), EventInstance(5, 20, ET)])

    def test_allows_overlap_across_types(self):
        sched = EventSchedule(
            100, [EventInstance(0, 10, ET), EventInstance(5, 20, ET2)]
        )
        assert sched.occurrence_count(ET) == 1
        assert sched.occurrence_count(ET2) == 1

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            EventSchedule(0, [])

    def test_instances_sorted(self):
        sched = EventSchedule(
            100, [EventInstance(50, 60, ET), EventInstance(0, 10, ET)]
        )
        starts = [i.start for i in sched.instances_of(ET)]
        assert starts == [0, 50]

    def test_occupancy_mask(self):
        mask = self.make().occupancy_mask(ET)
        assert mask[10] and mask[19] and mask[50] and mask[69]
        assert not mask[9] and not mask[20] and not mask[49] and not mask[70]
        assert mask.sum() == 10 + 20

    def test_occupancy_mask_unknown_type_empty(self):
        unknown = EventType("ghost", 5, 1)
        assert self.make().occupancy_mask(unknown).sum() == 0

    def test_event_type_names(self):
        assert self.make().event_type_names == ["crowd", "truck"]

    def test_all_instances_sorted(self):
        insts = self.make().all_instances()
        assert [i.start for i in insts] == [10, 30, 50]

    def test_duration_stats(self):
        mean, std = self.make().duration_stats(ET)
        np.testing.assert_allclose(mean, 15.0)
        np.testing.assert_allclose(std, 5.0)

    def test_duration_stats_empty_nan(self):
        mean, std = self.make().duration_stats(EventType("ghost", 5, 1))
        assert np.isnan(mean) and np.isnan(std)

    def test_time_to_next_onset(self):
        dist = self.make().time_to_next_onset(ET)
        assert dist[0] == 10
        assert dist[10] == 0  # onset frame reports zero
        assert dist[11] == 39  # next onset at 50
        assert dist[49] == 1
        assert dist[50] == 0
        assert np.isinf(dist[51])


class TestHorizonQueries:
    def make(self):
        return EventSchedule(
            1000,
            [EventInstance(100, 149, ET), EventInstance(400, 479, ET)],
        )

    def test_event_fully_inside_horizon(self):
        sched = self.make()
        events = sched.events_in_horizon(ET, frame=50, horizon=200)
        assert len(events) == 1
        ev = events[0]
        assert ev.start_offset == 50 and ev.end_offset == 99
        assert not ev.censored

    def test_censored_event(self):
        sched = self.make()
        events = sched.events_in_horizon(ET, frame=50, horizon=80)
        assert len(events) == 1
        ev = events[0]
        assert ev.censored
        assert ev.end_offset == 80
        assert ev.start_offset == 50

    def test_ongoing_event_starts_at_offset_one(self):
        sched = self.make()
        events = sched.events_in_horizon(ET, frame=120, horizon=100)
        assert events[0].start_offset == 1
        assert events[0].end_offset == 149 - 120

    def test_no_events(self):
        sched = self.make()
        assert sched.events_in_horizon(ET, frame=600, horizon=100) == []

    def test_multiple_events_in_horizon(self):
        sched = self.make()
        events = sched.events_in_horizon(ET, frame=50, horizon=500)
        assert len(events) == 2

    def test_first_event_in_horizon(self):
        sched = self.make()
        first = sched.first_event_in_horizon(ET, frame=50, horizon=500)
        assert first.start_offset == 50
        assert sched.first_event_in_horizon(ET, frame=600, horizon=100) is None

    def test_validates_frame_and_horizon(self):
        sched = self.make()
        with pytest.raises(ValueError):
            sched.events_in_horizon(ET, frame=-1, horizon=10)
        with pytest.raises(ValueError):
            sched.events_in_horizon(ET, frame=5000, horizon=10)
        with pytest.raises(ValueError):
            sched.events_in_horizon(ET, frame=0, horizon=0)

    def test_event_ending_exactly_at_horizon_not_censored(self):
        sched = EventSchedule(300, [EventInstance(100, 150, ET)])
        events = sched.events_in_horizon(ET, frame=50, horizon=100)
        assert not events[0].censored
        assert events[0].end_offset == 100

    @given(
        frame=st.integers(0, 999),
        horizon=st.integers(1, 600),
    )
    @settings(max_examples=60, deadline=None)
    def test_offsets_always_in_horizon_bounds(self, frame, horizon):
        sched = self.make()
        for ev in sched.events_in_horizon(ET, frame, horizon):
            assert 1 <= ev.start_offset <= ev.end_offset <= horizon


class TestHorizonEventValidation:
    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            HorizonEvent(ET, start_offset=0, end_offset=5, censored=False)
        with pytest.raises(ValueError):
            HorizonEvent(ET, start_offset=5, end_offset=4, censored=False)


# ----------------------------------------------------------------------
# Interval index: every O(log n) query against the linear code it replaced
# ----------------------------------------------------------------------
Span = namedtuple("Span", "start end")


@st.composite
def disjoint_schedules(draw):
    """A random schedule of two event types, each disjoint per type (same
    -type instances may touch; cross-type ones may overlap freely)."""
    length = draw(st.integers(1, 300))
    instances = []
    for event_type in (ET, ET2):
        frame = draw(st.integers(0, 20))
        for gap, duration in draw(
            st.lists(st.tuples(st.integers(0, 30), st.integers(1, 40)), max_size=12)
        ):
            start = frame + gap
            end = min(start + duration - 1, length - 1)
            if start > end:
                break
            instances.append(EventInstance(start, end, event_type))
            frame = end + 1
    return EventSchedule(length, instances)


def time_to_next_onset_loop(sched, event_type):
    """The original per-frame backward scan, kept as the oracle."""
    dist = np.full(sched.length, np.inf)
    next_onset = np.inf
    starts = {inst.start for inst in sched.instances_of(event_type)}
    for t in range(sched.length - 1, -1, -1):
        if t in starts:
            next_onset = t
        dist[t] = next_onset - t if np.isfinite(next_onset) else np.inf
    return dist


def events_in_horizon_linear(sched, event_type, frame, horizon):
    found = []
    for inst in sched.instances_of(event_type):
        if inst.overlaps(frame + 1, frame + horizon):
            censored = inst.end > frame + horizon
            found.append(
                HorizonEvent(
                    event_type=inst.event_type,
                    start_offset=max(1, inst.start - frame),
                    end_offset=horizon if censored else inst.end - frame,
                    censored=censored,
                )
            )
    return found


def truth_set(sched, event_type, start, end):
    return {
        f
        for inst in sched.instances_of(event_type)
        for f in inst.frames()
        if start <= f <= end
    }


ranges = st.tuples(st.integers(0, 340), st.integers(-5, 340))


class TestIntervalIndex:
    @given(sched=disjoint_schedules(), bounds=st.lists(ranges, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_frames_in_matches_occupancy_mask(self, sched, bounds):
        edges = [(0, sched.length - 1), (0, 0), (sched.length - 1, sched.length - 1),
                 (sched.length - 1, sched.length + 10), (5, 4)]
        for event_type in (ET, ET2, EventType("ghost", 5, 1)):
            mask = sched.occupancy_mask(event_type)
            for a, b in list(bounds) + edges:
                expected = int(mask[a : b + 1].sum()) if a <= b else 0
                assert sched.frames_in(event_type, a, b) == expected

    @given(
        sched=disjoint_schedules(),
        cuts=st.lists(st.integers(-5, 340), min_size=3, max_size=3),
    )
    @settings(max_examples=120, deadline=None)
    def test_frames_in_is_additive_over_adjacent_ranges(self, sched, cuts):
        # The fleet settles ground truth over a lane's whole span at once
        # because of this identity: frames_in(a, c) equals frames_in(a, b)
        # plus frames_in(b + 1, c).
        a, b, c = sorted(cuts)
        for event_type in (ET, ET2, EventType("ghost", 5, 1)):
            assert sched.frames_in(event_type, a, c) == (
                sched.frames_in(event_type, a, b)
                + sched.frames_in(event_type, b + 1, c)
            )

    @given(sched=disjoint_schedules(), bounds=st.lists(ranges, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_instances_between_matches_overlaps_filter(self, sched, bounds):
        for event_type in (ET, ET2, EventType("ghost", 5, 1)):
            for a, b in bounds:
                linear = [
                    inst for inst in sched.instances_of(event_type)
                    if inst.overlaps(a, b)
                ]
                assert sched.instances_between(event_type, a, b) == linear

    @given(
        sched=disjoint_schedules(),
        frames=st.lists(st.integers(0, 299), max_size=6),
        horizon=st.integers(1, 120),
    )
    @settings(max_examples=80, deadline=None)
    def test_events_in_horizon_matches_linear_oracle(self, sched, frames, horizon):
        for frame in frames:
            if frame >= sched.length:
                continue
            for event_type in (ET, ET2):
                assert sched.events_in_horizon(
                    event_type, frame, horizon
                ) == events_in_horizon_linear(sched, event_type, frame, horizon)

    @given(
        sched=disjoint_schedules(),
        spans=st.lists(
            st.tuples(st.integers(-10, 320), st.integers(0, 60)), max_size=6
        ),
        bounds=ranges,
    )
    @settings(max_examples=120, deadline=None)
    @example(
        sched=EventSchedule(100, [EventInstance(10, 19, ET)]), spans=[], bounds=(0, 99)
    )
    def test_covered_frames_in_matches_set_arithmetic(self, sched, spans, bounds):
        # Overlapping detections, detections reaching past the range on
        # either side, and no detections at all.
        detections = [Span(lo, lo + width) for lo, width in spans]
        a, b = bounds
        for event_type in (ET, ET2):
            covered = set()
            for det in detections:
                covered.update(range(det.start, det.end + 1))
            expected = len(covered & truth_set(sched, event_type, a, b))
            assert sched.covered_frames_in(event_type, detections, a, b) == expected

    @given(sched=disjoint_schedules())
    @settings(max_examples=80, deadline=None)
    def test_time_to_next_onset_matches_loop_bitwise(self, sched):
        for event_type in (ET, ET2, EventType("ghost", 5, 1)):
            fast = sched.time_to_next_onset(event_type)
            slow = time_to_next_onset_loop(sched, event_type)
            assert fast.dtype == slow.dtype == np.float64
            assert fast.tobytes() == slow.tobytes()
