"""Industrial automation: defective products on a pipeline (§I, example 2).

The paper's second motivating scenario: "recognizing defective products in
industrial pipelines, which may be i.i.d. based on a Poisson or geometric
distribution, and triggering automated removal".  A camera watches the
belt; defects arrive *geometrically* (each product is independently
defective with small probability); the cloud model confirms defects and an
actuator removes them.  Missing a defect ships a bad product, so the
operator runs C-CLASSIFY at a high confidence level and treats the
guarantee as a quality-control budget.

Usage::

    python examples/industrial_pipeline.py
"""

import numpy as np

from repro.cloud import CloudInferenceService, StreamMarshaller
from repro.conformal import ConformalClassifier, ConformalRegressor
from repro.core import BatchedInference, EventHitConfig, train_eventhit
from repro.data import DatasetBuilder
from repro.features import CovariatePipeline, FeatureExtractor, Standardizer
from repro.video.arrivals import GeometricArrivals
from repro.video.events import EventInstance, EventSchedule, EventType
from repro.video.stream import VideoStream

# A defect is visible while the faulty product crosses the inspection zone.
DEFECT = EventType("defect", duration_mean=30, duration_std=4, lead_time=120,
                   predictability=0.88)
WINDOW, HORIZON = 10, 150
DEFECT_PROBABILITY = 1 / 2200  # per-frame chance a defective item enters


def build_line(length, seed):
    """Geometric defect arrivals along the belt."""
    rng = np.random.default_rng(seed)
    onsets = GeometricArrivals(DEFECT_PROBABILITY).sample(length, rng)
    instances, last_end = [], -1
    for onset in onsets:
        if onset <= last_end:
            continue
        end = min(onset + DEFECT.sample_duration(rng) - 1, length - 1)
        instances.append(EventInstance(onset, end, DEFECT))
        last_end = end
    return VideoStream(length, EventSchedule(length, instances), seed=seed)


def main() -> None:
    extractor = FeatureExtractor()
    train_line = build_line(60_000, seed=11)
    calib_line = build_line(60_000, seed=12)
    shift_line = build_line(100_000, seed=13)  # one production shift
    print(
        f"Lines ready: {train_line.schedule.occurrence_count(DEFECT)} training "
        f"defects, {shift_line.schedule.occurrence_count(DEFECT)} defects in "
        f"the monitored shift "
        f"({shift_line.occupancy_fraction(DEFECT):.2%} of frames)."
    )

    train_features = extractor.extract(train_line, [DEFECT])
    standardizer = Standardizer.fit(train_features.values)
    pipeline = CovariatePipeline(WINDOW, standardizer=standardizer)
    builder = DatasetBuilder(WINDOW, HORIZON, stride=WINDOW, pipeline=pipeline)
    rng = np.random.default_rng(0)
    train_records = builder.build(train_line, train_features, [DEFECT],
                                  max_records=350, rng=rng)
    calib_features = extractor.extract(calib_line, [DEFECT])
    calib_records = builder.build(calib_line, calib_features, [DEFECT],
                                  max_records=250, rng=rng)

    config = EventHitConfig(
        window_size=WINDOW, horizon=HORIZON, lstm_hidden=16,
        shared_hidden=(16,), head_hidden=(32,), dropout=0.0,
        learning_rate=5e-3, epochs=18, batch_size=32, seed=0,
    )
    print("Training EventHit on the inspection features...")
    model, _ = train_eventhit(train_records, config=config)
    output = BatchedInference(model).predict(calib_records.covariates)
    classifier = ConformalClassifier().calibrate(output, calib_records)
    regressor = ConformalRegressor().calibrate(output, calib_records)

    shift_features = extractor.extract(shift_line, [DEFECT])

    print()
    print(f"{'c':>5} {'recall':>8} {'relayed':>9} {'bill':>8}  guarantee")
    for confidence in (0.80, 0.90, 0.97):
        service = CloudInferenceService(shift_line)
        marshaller = StreamMarshaller(
            model, [DEFECT], pipeline,
            classifier=classifier, regressor=regressor,
            confidence=confidence, alpha=0.9,
        )
        report = marshaller.run(shift_line, shift_features, service)
        print(
            f"{confidence:>5.2f} {report.frame_recall:>8.1%} "
            f"{report.relay_fraction:>9.1%} ${report.total_cost:>7.2f}  "
            f"miss rate <= {1 - confidence:.0%} (Thm 4.2)"
        )

    print()
    print(
        "Raising c buys defect recall with a calibrated guarantee; the "
        "residual miss budget (1 - c) is the quality-control number the "
        "line manager signs off on, and the bill stays a fraction of the "
        f"${shift_line.length * 0.001:,.0f} brute-force cost."
    )


if __name__ == "__main__":
    main()
