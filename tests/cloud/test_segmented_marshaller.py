"""Tests for the multi-instance (footnote-1) marshalling mode,
``segment_min_gap``."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.cloud import CloudInferenceService, StreamMarshaller
from repro.conformal import ConformalRegressor
from repro.core import EventHitConfig, EventHitOutput, train_eventhit
from repro.data import DatasetBuilder, RecordSet
from repro.features import CovariatePipeline, FeatureExtractor, Standardizer
from repro.fleet import FleetCIService, FleetLane, FleetMarshaller
from repro.video.arrivals import RegularArrivals
from repro.video.events import EventInstance, EventSchedule, EventType
from repro.video.stream import VideoStream
from tests.helpers import calibrated_regressor, engine_predict

# A dense periodic world: two short event instances per 200-frame horizon,
# so span-mode relays bridge a long idle gap that segmented mode skips.
# The lead time is shorter than the period so the precursor ramp resets
# between instances and encodes the phase (a saturated ramp would carry no
# offset information).
ET = EventType("pulse", duration_mean=20, duration_std=2, lead_time=90,
               predictability=0.95)
HORIZON = 200
WINDOW = 10


def periodic_stream(length=12_000, seed=0, period=100, name="stream"):
    rng = np.random.default_rng(seed)
    onsets = RegularArrivals(period=period, offset=30).sample(length, rng)
    instances = []
    for onset in onsets:
        duration = ET.sample_duration(rng)
        end = min(onset + duration - 1, length - 1)
        if instances and onset <= instances[-1].end:
            continue
        instances.append(EventInstance(onset, end, ET))
    return VideoStream(
        length, EventSchedule(length, instances), seed=seed, name=name
    )


@pytest.fixture(scope="module")
def setup():
    extractor = FeatureExtractor()
    train_stream = periodic_stream(seed=1)
    live_stream = periodic_stream(seed=2)
    train_features = extractor.extract(train_stream, [ET])
    standardizer = Standardizer.fit(train_features.values)
    pipeline = CovariatePipeline(WINDOW, standardizer=standardizer)
    builder = DatasetBuilder(window_size=WINDOW, horizon=HORIZON,
                             stride=WINDOW, pipeline=pipeline)
    rng = np.random.default_rng(0)
    # Footnote-1 mode: the L2 target marks every instance in the horizon,
    # so the model learns to light up both pulses per horizon.
    train_records = builder.build(train_stream, train_features, [ET],
                                  max_records=300, rng=rng,
                                  multi_instance=True)
    config = EventHitConfig(
        window_size=WINDOW, horizon=HORIZON, lstm_hidden=16,
        shared_hidden=(16,), head_hidden=(32,), dropout=0.0,
        learning_rate=5e-3, epochs=20, batch_size=32, seed=0,
    )
    model, _ = train_eventhit(train_records, config=config)
    live_features = extractor.extract(live_stream, [ET])
    calib_records = builder.build(live_stream, live_features, [ET],
                                  max_records=200, rng=rng)
    regressor = calibrated_regressor(model, calib_records)
    return model, pipeline, live_stream, live_features, regressor


def run_marshaller(setup, **kwargs):
    model, pipeline, stream, features, regressor = setup
    service = CloudInferenceService(stream)
    marshaller = StreamMarshaller(model, [ET], pipeline, **kwargs)
    report = marshaller.run(stream, features, service)
    return report


class TestSegmentedMode:
    def test_validation(self, setup):
        model, pipeline, stream, features, regressor = setup
        with pytest.raises(ValueError):
            StreamMarshaller(model, [ET], pipeline, segment_min_gap=0)

    def test_segmented_relays_fewer_frames_at_similar_recall(self, setup):
        span = run_marshaller(setup)
        seg = run_marshaller(setup, segment_min_gap=5)
        assert span.frame_recall > 0.6
        # Multiple instances per horizon: span mode bridges the idle gaps,
        # so segmented relays dramatically fewer frames; the recall cost is
        # bounded (raw segments clip a few boundary frames that the span
        # covers by accident — C-REGRESS widening recovers them, tested
        # below).
        assert seg.frames_relayed < 0.8 * span.frames_relayed
        assert seg.frame_recall >= span.frame_recall - 0.15

    def test_segmented_with_regressor_widens_per_segment(self, setup):
        model, pipeline, stream, features, regressor = setup
        plain = run_marshaller(setup, segment_min_gap=5)
        widened = run_marshaller(
            setup, segment_min_gap=5,
            regressor=regressor, alpha=0.95,
        )
        assert widened.frames_relayed >= plain.frames_relayed
        assert widened.frame_recall >= plain.frame_recall - 1e-9

    def test_segmented_billing_consistent(self, setup):
        model, pipeline, stream, features, regressor = setup
        service = CloudInferenceService(stream)
        marshaller = StreamMarshaller(model, [ET], pipeline, segment_min_gap=5)
        report = marshaller.run(stream, features, service)
        assert report.frames_relayed == service.ledger.frames_processed


def fixed_widening(q_start, q_end):
    """C-REGRESS whose quantiles are ``(q_start, q_end)`` at every α: one
    calibration record whose truth lies that far outside its span
    [10, 10]."""
    scores = np.zeros((1, 1, 20))
    scores[0, 0, 9] = 0.9
    records = RecordSet(
        event_types=[ET], horizon=20, frames=[0],
        covariates=np.zeros((1, 1, 1)), labels=[[1.0]],
        starts=[[10 - q_start]], ends=[[10 + q_end]], censored=[[0.0]],
    )
    return ConformalRegressor().calibrate(
        EventHitOutput(np.ones((1, 1)), scores), records
    )


def widened_runs(runs, q_start, q_end, keep=True):
    """Footnote-1 runs of one 20-offset pair, widened by C-REGRESS."""
    scores = np.full((1, 1, 20), 0.1)
    for start, end in runs:
        scores[0, 0, start - 1 : end] = 0.9
    output = EventHitOutput(np.ones((1, 1)), scores)
    _, _, starts, ends = fixed_widening(q_start, q_end).predict(
        output, np.full((1, 1), keep), alpha=0.9, min_gap=1
    )
    return list(zip(starts.tolist(), ends.tolist()))


def test_merge_runs_helper():
    """The widening merges a pair's runs that overlap or touch."""
    assert fixed_widening(2, 3).quantiles(0.5).tolist() == [[2.0, 3.0]]
    assert widened_runs([(2, 3)], 1, 1, keep=False) == []  # empty
    assert widened_runs([(2, 3), (8, 9)], 1, 1) == [(1, 4), (7, 10)]
    assert widened_runs([(2, 3), (6, 8)], 1, 1) == [(1, 9)]  # adjacent
    assert widened_runs([(2, 3), (6, 8)], 2, 2) == [(1, 10)]  # overlap
    # Containment, where clamping at H (or at 1) swallows the later run.
    assert widened_runs([(2, 12), (15, 16)], 0, 9) == [(2, 20)]
    assert widened_runs([(1, 1), (3, 4)], 5, 0) == [(1, 4)]
    # Merged runs chain: the third touches the merged first two.
    assert widened_runs([(2, 3), (6, 7), (10, 11)], 1, 1) == [(1, 12)]


#: sha256 of ``FleetReport.to_dict(include_detections=True)`` for the
#: three-lane fleet of :func:`fleet_digest`, keyed by (segment_min_gap,
#: with C-REGRESS); ``None`` is span mode.  Recorded from the two-branch
#: ``decide`` that served span and segmented mode separately; the one-rule
#: ``decide`` must reproduce them byte for byte.
GOLDEN_FLEET_DIGESTS = {
    (None, False): "577143b428fb509a68c46caef4b3a03d980d9daaa68727bfec3dfc6b99124a28",
    (None, True): "97aef4989c14ffa0e1ac38a54b6bdfb59f9559f05c55ebdfce73f5bdb3c510a3",
    (1, False): "87e27e5c6af8436bc70b7ee44bba959ddf7f325f1182ac8a3377955c69e65a35",
    (1, True): "58bf84d9a21187eb0f9744eecfcb58297a9f9e298c490c2e2bbcf89b3c655d1a",
    (5, False): "73c7b3e7f67ade75efaf3c49b5ffa6b24004bc8461197cdb9c1259332c25d0a4",
    (5, True): "58bf84d9a21187eb0f9744eecfcb58297a9f9e298c490c2e2bbcf89b3c655d1a",
}


@pytest.fixture(scope="module")
def narrow_regressor(setup):
    """C-REGRESS calibrated on truths a few offsets outside the model's own
    Eq. 6 spans, so its widening (a few offsets) merges close runs and
    keeps distant ones apart.  (``setup``'s regressor widens ends by ~100
    offsets, which merges every pair's runs into one.)"""
    model, pipeline, stream, features, _ = setup
    builder = DatasetBuilder(window_size=WINDOW, horizon=HORIZON,
                             stride=WINDOW, pipeline=pipeline)
    records = builder.build(stream, features, [ET], max_records=120,
                            rng=np.random.default_rng(7))
    above = engine_predict(model, records.covariates).frame_scores[:, 0] >= 0.5
    first = above.argmax(axis=1) + 1
    last = HORIZON - above[:, ::-1].argmax(axis=1)
    rng = np.random.default_rng(8)
    n = len(first)
    records = dataclasses.replace(
        records,
        labels=above.any(axis=1)[:, None].astype(float),
        starts=np.maximum(1, first - rng.integers(0, 3, n))[:, None],
        ends=np.minimum(HORIZON, last + rng.integers(0, 3, n))[:, None],
    )
    return calibrated_regressor(model, records)


def fleet_digest(setup, regressor, segment_min_gap):
    model, pipeline, stream, features, _ = setup
    extractor = FeatureExtractor()
    lanes = [FleetLane(stream, features)]
    for seed in (3, 4):
        extra = periodic_stream(length=6_000, seed=seed, name=f"lane{seed}")
        lanes.append(FleetLane(extra, extractor.extract(extra, [ET])))
    marshaller = StreamMarshaller(
        model, [ET], pipeline, regressor=regressor,
        alpha=0.9, segment_min_gap=segment_min_gap,
    )
    report = FleetMarshaller(marshaller).run(
        lanes, FleetCIService([lane.stream for lane in lanes])
    )
    text = json.dumps(report.to_dict(include_detections=True), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("regress", [False, True], ids=["tau2", "cregress"])
@pytest.mark.parametrize("segment_min_gap", [None, 1, 5])
def test_segmented_fleet_reports_match_golden_digests(
    setup, narrow_regressor, segment_min_gap, regress
):
    regressor = narrow_regressor if regress else None
    assert fleet_digest(setup, regressor, segment_min_gap) == (
        GOLDEN_FLEET_DIGESTS[(segment_min_gap, regress)]
    )
