"""Tests for DatasetBuilder and build_experiment_data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DatasetBuilder, build_experiment_data, horizon_targets
from repro.features import extract_features
from repro.video import make_thumos
from repro.video.datasets import EVENT_TYPES
from repro.video.events import EventInstance, EventSchedule, EventType
from repro.video.stream import VideoStream

ET = EventType("gate", duration_mean=40, duration_std=4, lead_time=80)


def tiny_stream(seed=0):
    instances = [EventInstance(300, 339, ET), EventInstance(900, 939, ET)]
    return VideoStream(1500, EventSchedule(1500, instances), seed=seed)


@pytest.fixture(scope="module")
def two_event_build():
    """Stride-1 records of a two-event stream, single- and multi-instance."""
    other = EventType("door", duration_mean=20, duration_std=2, lead_time=40)
    instances = [
        EventInstance(300, 339, ET), EventInstance(380, 420, ET),
        EventInstance(900, 939, ET), EventInstance(350, 369, other),
    ]
    stream = VideoStream(1500, EventSchedule(1500, instances), seed=0)
    features = extract_features(stream, [ET, other])
    builder = DatasetBuilder(window_size=8, horizon=120, stride=1)
    built = {
        mode: builder.build(stream, features, [ET, other], multi_instance=mode)
        for mode in (False, True)
    }
    return stream, [ET, other], built


class TestReferenceFrames:
    def test_range_respects_window_and_horizon(self):
        builder = DatasetBuilder(window_size=10, horizon=100, stride=1)
        frames = builder.reference_frames(1000)
        assert frames[0] == 9
        assert frames[-1] == 899

    def test_stride(self):
        builder = DatasetBuilder(window_size=5, horizon=10, stride=7)
        frames = builder.reference_frames(100)
        assert np.all(np.diff(frames) == 7)

    def test_too_short_stream_raises(self):
        builder = DatasetBuilder(window_size=50, horizon=100)
        with pytest.raises(ValueError):
            builder.reference_frames(120)

    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetBuilder(window_size=0, horizon=10)
        with pytest.raises(ValueError):
            DatasetBuilder(window_size=1, horizon=10, stride=0)


class TestBuild:
    def build(self, stride=20, max_records=None):
        stream = tiny_stream()
        features = extract_features(stream, [ET])
        builder = DatasetBuilder(window_size=8, horizon=120, stride=stride)
        return builder.build(
            stream, features, [ET], max_records=max_records,
            rng=np.random.default_rng(0)
        ), stream

    def test_record_shapes(self):
        records, _ = self.build()
        assert records.covariates.shape[1:] == (8, 6)  # 3 per event + 3 context
        assert records.labels.shape == (len(records), 1)

    def test_labels_match_schedule(self):
        records, stream = self.build(stride=5)
        for i, frame in enumerate(records.frames):
            truth = stream.schedule.first_event_in_horizon(ET, int(frame), 120)
            assert bool(records.labels[i, 0]) == (truth is not None)
            if truth is not None:
                assert records.starts[i, 0] == truth.start_offset
                assert records.ends[i, 0] == truth.end_offset
                assert bool(records.censored[i, 0]) == truth.censored

    def test_censored_events_clamped_to_horizon(self):
        records, _ = self.build(stride=1)
        censored_rows = records.censored[:, 0] > 0
        assert censored_rows.any()
        assert np.all(records.ends[censored_rows, 0] == 120)

    def test_max_records_subsamples(self):
        records, _ = self.build(stride=5, max_records=10)
        assert len(records) == 10
        assert np.all(np.diff(records.frames) > 0)  # sorted

    @settings(max_examples=60, deadline=None)
    @given(row=st.integers(0, 10_000), multi_instance=st.booleans())
    def test_horizon_targets_match_built_rows(
        self, two_event_build, row, multi_instance
    ):
        """The per-horizon target function is what ``build`` packs, row
        for row: single- and multi-instance, two event types, events
        ongoing at, inside, and censored by the horizon."""
        stream, event_types, built = two_event_build
        records = built[multi_instance]
        row %= len(records)
        occupancy = np.zeros((2, 120)) if multi_instance else None
        labels, starts, ends, censored = horizon_targets(
            stream.schedule, event_types, int(records.frames[row]), 120,
            occupancy=occupancy,
        )
        np.testing.assert_array_equal(labels, records.labels[row])
        np.testing.assert_array_equal(starts, records.starts[row])
        np.testing.assert_array_equal(ends, records.ends[row])
        np.testing.assert_array_equal(censored, records.censored[row])
        if multi_instance:
            np.testing.assert_array_equal(occupancy, records.occupancy[row])

    def test_feature_length_mismatch_raises(self):
        stream = tiny_stream()
        other = tiny_stream()
        features = extract_features(stream, [ET])
        short = type(features)(features.values[:500], features.channel_names)
        builder = DatasetBuilder(window_size=8, horizon=120)
        with pytest.raises(ValueError):
            builder.build(stream, short, [ET])


class TestExperimentData:
    def test_bundle_consistency(self):
        spec = make_thumos(scale=0.05).with_events(["E7"])
        data = build_experiment_data(spec, seed=0, max_records=50)
        for records in (data.train, data.calibration, data.test):
            assert records.horizon == spec.horizon
            assert records.window_size == spec.window_size
            assert len(records) <= 50
        assert data.event_types == [EVENT_TYPES["E7"]]

    def test_splits_are_distinct_streams(self):
        spec = make_thumos(scale=0.05).with_events(["E7"])
        data = build_experiment_data(spec, seed=0, max_records=30)
        assert data.train_stream.name != data.test_stream.name
        # Event placements differ across the splits.
        train_starts = [i.start for i in data.train_stream.schedule.all_instances()]
        test_starts = [i.start for i in data.test_stream.schedule.all_instances()]
        assert train_starts != test_starts

    def test_positive_records_exist(self):
        """Sampling must produce both positive and negative records."""
        spec = make_thumos(scale=0.08).with_events(["E7"])
        data = build_experiment_data(spec, seed=1, max_records=200)
        rate = data.train.positive_rate()[0]
        assert 0.05 < rate < 0.95

    def test_deterministic_given_seed(self):
        spec = make_thumos(scale=0.05).with_events(["E7"])
        a = build_experiment_data(spec, seed=3, max_records=20)
        b = build_experiment_data(spec, seed=3, max_records=20)
        np.testing.assert_array_equal(a.train.covariates, b.train.covariates)
        np.testing.assert_array_equal(a.test.labels, b.test.labels)
