"""Tests for track-derived covariates."""

import numpy as np
import pytest

from repro.features import TrackFeatureExtractor
from repro.video import simulate_tracks
from repro.video.events import EventInstance, EventSchedule, EventType
from repro.video.stream import VideoStream
from tests.helpers import engine_predict

ET = EventType("gate", duration_mean=40, duration_std=4, lead_time=100,
               predictability=0.9)


def make_stream(seed=0):
    instances = [EventInstance(500, 539, ET), EventInstance(1500, 1539, ET)]
    return VideoStream(2500, EventSchedule(2500, instances), seed=seed)


class TestTrackFeatureExtractor:
    def test_channel_layout(self):
        fm = TrackFeatureExtractor().extract(make_stream(), [ET])
        assert fm.channel_names == [
            "approach:gate", "motion:gate", "objects:gate", "clutter",
        ]
        assert fm.values.shape == (2500, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrackFeatureExtractor(noise_sigma=-1)
        with pytest.raises(ValueError):
            TrackFeatureExtractor().extract(make_stream(), [])

    def test_approach_rises_toward_onset(self):
        fm = TrackFeatureExtractor(noise_sigma=0.0).extract(make_stream(), [ET])
        approach = fm.channel("approach:gate")
        assert approach[520] > 0.9  # at the anchor during the event
        assert approach[450] > approach[410]  # rising during approach
        assert approach[100] < 0.1  # idle scene

    def test_objects_counts_actors(self):
        fm = TrackFeatureExtractor(noise_sigma=0.0).extract(make_stream(), [ET])
        objects = fm.channel("objects:gate")
        assert objects[520] >= 1.0
        assert objects[100] == 0.0

    def test_motion_high_during_approach_low_at_dwell(self):
        fm = TrackFeatureExtractor(noise_sigma=0.0).extract(make_stream(), [ET])
        motion = fm.channel("motion:gate")
        assert motion[450] > motion[525] + 0.1

    def test_clutter_uninformative(self):
        """Clutter counts should not correlate with event occupancy."""
        stream = make_stream()
        fm = TrackFeatureExtractor(noise_sigma=0.0,
                                   clutter_per_10k_frames=20).extract(stream, [ET])
        clutter = fm.channel("clutter")
        occupancy = stream.schedule.occupancy_mask(ET).astype(float)
        if clutter.std() > 0:
            corr = np.corrcoef(clutter, occupancy)[0, 1]
            assert abs(corr) < 0.3

    def test_extract_from_tracks_length_checked(self):
        stream = make_stream()
        other = VideoStream(100, EventSchedule(100, []), seed=0)
        tracks = simulate_tracks(other, [ET], clutter_per_10k_frames=0)
        with pytest.raises(ValueError):
            TrackFeatureExtractor().extract_from_tracks(stream, tracks, [ET])

    def test_deterministic(self):
        a = TrackFeatureExtractor().extract(make_stream(seed=3), [ET])
        b = TrackFeatureExtractor().extract(make_stream(seed=3), [ET])
        np.testing.assert_array_equal(a.values, b.values)


class TestTrackFeaturesLearnable:
    def test_eventhit_learns_from_track_features(self):
        """End-to-end: track-derived covariates support event prediction."""
        from repro.core import EventHitConfig, train_eventhit, threshold_predictions
        from repro.data import DatasetBuilder
        from repro.features import CovariatePipeline, Standardizer
        from repro.metrics import evaluate
        from repro.video.arrivals import FixedCountArrivals

        def world(seed):
            rng = np.random.default_rng(seed)
            onsets = FixedCountArrivals(count=10, min_gap=300).sample(6000, rng)
            instances = []
            for i, onset in enumerate(onsets):
                duration = ET.sample_duration(rng)
                nxt = onsets[i + 1] if i + 1 < len(onsets) else 6000
                end = min(onset + duration - 1, nxt - 1, 5999)
                instances.append(EventInstance(onset, end, ET))
            return VideoStream(6000, EventSchedule(6000, instances), seed=seed)

        extractor = TrackFeatureExtractor()
        train_stream, test_stream = world(1), world(2)
        train_features = extractor.extract(train_stream, [ET])
        test_features = extractor.extract(test_stream, [ET])
        standardizer = Standardizer.fit(train_features.values)
        pipeline = CovariatePipeline(8, standardizer=standardizer)
        builder = DatasetBuilder(window_size=8, horizon=120, stride=8,
                                 pipeline=pipeline)
        rng = np.random.default_rng(0)
        train = builder.build(train_stream, train_features, [ET],
                              max_records=300, rng=rng)
        test = builder.build(test_stream, test_features, [ET],
                             max_records=300, rng=rng)
        config = EventHitConfig(
            window_size=8, horizon=120, lstm_hidden=16, shared_hidden=(16,),
            head_hidden=(32,), dropout=0.0, learning_rate=5e-3, epochs=15,
            batch_size=32, seed=0,
        )
        model, _ = train_eventhit(train, config=config)
        output = engine_predict(model, test.covariates)
        summary = evaluate(threshold_predictions(output), test)
        assert summary.rec_c > 0.6
        assert summary.spl < 0.3
