"""Live deployment: frame-by-frame marshalling with a ring buffer.

The other examples evaluate on batched record sets; this one mimics the
production loop of Fig. 1 as a camera would drive it:

1. train EventHit offline on *track-derived* covariates (the paper's
   VIRAT feature recipe: approach distance, motion, object counts) and
   save a checkpoint;
2. reload the checkpoint in a fresh "edge process";
3. consume the live stream one frame at a time through a
   :class:`~repro.features.StreamingCovariateBuffer`, predicting a horizon
   whenever one elapses and relaying only the predicted intervals.

Usage::

    python examples/live_deployment.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.cloud import CloudInferenceService, FlatPricing
from repro.conformal import ConformalClassifier, ConformalRegressor
from repro.core import (
    BatchedInference,
    EventHitConfig,
    load_checkpoint,
    save_checkpoint,
    train_eventhit,
)
from repro.data import DatasetBuilder
from repro.features import (
    CovariatePipeline,
    Standardizer,
    StreamingCovariateBuffer,
    TrackFeatureExtractor,
)
from repro.video.arrivals import PoissonArrivals
from repro.video.events import EventInstance, EventSchedule, EventType
from repro.video.stream import VideoStream

TRUCK = EventType("truck", duration_mean=60, duration_std=8, lead_time=150,
                  predictability=0.9)
WINDOW, HORIZON = 12, 160


def build_stream(length, seed):
    rng = np.random.default_rng(seed)
    onsets = PoissonArrivals(rate=1 / 1800).sample(length, rng)
    instances, last_end = [], -1
    for onset in onsets:
        if onset <= last_end:
            continue
        end = min(onset + TRUCK.sample_duration(rng) - 1, length - 1)
        instances.append(EventInstance(onset, end, TRUCK))
        last_end = end
    return VideoStream(length, EventSchedule(length, instances), seed=seed)


def main() -> None:
    extractor = TrackFeatureExtractor()

    # ------------------------------------------------------------------
    # Offline training + checkpoint.
    # ------------------------------------------------------------------
    print("Training offline on track-derived covariates...")
    train_stream = build_stream(50_000, seed=1)
    calib_stream = build_stream(50_000, seed=2)
    train_features = extractor.extract(train_stream, [TRUCK])
    standardizer = Standardizer.fit(train_features.values)
    pipeline = CovariatePipeline(WINDOW, standardizer=standardizer)
    builder = DatasetBuilder(WINDOW, HORIZON, stride=WINDOW, pipeline=pipeline)
    rng = np.random.default_rng(0)
    train_records = builder.build(train_stream, train_features, [TRUCK],
                                  max_records=350, rng=rng)
    calib_features = extractor.extract(calib_stream, [TRUCK])
    calib_records = builder.build(calib_stream, calib_features, [TRUCK],
                                  max_records=250, rng=rng)
    config = EventHitConfig(
        window_size=WINDOW, horizon=HORIZON, lstm_hidden=16,
        shared_hidden=(16,), head_hidden=(32,), dropout=0.0,
        learning_rate=5e-3, epochs=18, batch_size=32, seed=0,
    )
    model, history = train_eventhit(train_records, config=config)
    print(f"  trained {history.epochs_run} epochs, "
          f"loss {history.final_train_loss:.4f}")

    checkpoint = Path(tempfile.gettempdir()) / "eventhit_live_demo.npz"
    save_checkpoint(model, checkpoint)
    print(f"  checkpoint written to {checkpoint}")

    # ------------------------------------------------------------------
    # Edge process: reload + calibrate + consume the live stream.
    # ------------------------------------------------------------------
    engine = BatchedInference(load_checkpoint(checkpoint))
    calib_output = engine.predict(calib_records.covariates)
    classifier = ConformalClassifier().calibrate(calib_output, calib_records)
    regressor = ConformalRegressor().calibrate(calib_output, calib_records)

    live_stream = build_stream(80_000, seed=3)
    live_features = extractor.extract(live_stream, [TRUCK])
    service = CloudInferenceService(live_stream, pricing=FlatPricing(0.001))
    buffer = StreamingCovariateBuffer(WINDOW, live_features.num_channels,
                                      standardizer=standardizer)

    print("Consuming the live stream frame by frame...")
    confidence, alpha = 0.95, 0.9
    frames_relayed = 0
    truth_frames = 0
    detected_frames = 0
    horizons = 0
    next_decision = WINDOW - 1

    for frame in range(live_stream.length - HORIZON):
        buffer.push(live_features.values[frame])
        if frame != next_decision:
            continue
        # One horizon decision: predict, relay, skip ahead.
        output = engine.predict(buffer.window()[None])
        exists = classifier.predict(output, confidence)
        _, _, starts, ends = regressor.predict(output, exists, alpha)
        truth = set()
        for ev in live_stream.schedule.events_in_horizon(TRUCK, frame, HORIZON):
            truth.update(range(frame + ev.start_offset,
                               frame + ev.end_offset + 1))
        truth_frames += len(truth)
        if exists[0, 0]:  # the one kept pair's widened run
            segment = live_stream.segment(
                frame + int(starts[0]), frame + int(ends[0])
            )
            detections = service.detect(segment, TRUCK)
            frames_relayed += segment.num_frames
            covered = set()
            for det in detections:
                covered.update(range(det.start, det.end + 1))
            detected_frames += len(covered & truth)
        horizons += 1
        next_decision = frame + HORIZON

    covered_frames = horizons * HORIZON
    print()
    print(f"Horizon decisions   : {horizons}")
    print(f"Frames covered      : {covered_frames}")
    print(f"Frames relayed      : {frames_relayed} "
          f"({frames_relayed / covered_frames:.1%})")
    recall = detected_frames / truth_frames if truth_frames else float("nan")
    print(f"Truck-frame recall  : {recall:.1%}")
    print(f"Live bill           : ${service.ledger.total_cost:,.2f} "
          f"(brute force would be ${covered_frames * 0.001:,.2f})")


if __name__ == "__main__":
    main()
