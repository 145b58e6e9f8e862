"""Surveillance automation: the paper's motivating scenario end to end.

A construction-site camera watches for trucks approaching a gate (Poisson
arrivals, §I).  The cloud service charges $0.001 per analysed frame, so
sending the raw stream is expensive.  This example builds the scenario from
library primitives — a custom event type, a Poisson schedule, simulated
detector features — then deploys the trained EventHit behind a
:class:`~repro.cloud.StreamMarshaller` and reports the monthly bill with
and without marshalling.

Usage::

    python examples/surveillance_gate.py
"""

import numpy as np

from repro.cloud import CloudInferenceService, FlatPricing, StreamMarshaller
from repro.conformal import ConformalClassifier, ConformalRegressor
from repro.core import BatchedInference, EventHitConfig, train_eventhit
from repro.data import DatasetBuilder
from repro.features import CovariatePipeline, FeatureExtractor, Standardizer
from repro.video.arrivals import PoissonArrivals
from repro.video.events import EventInstance, EventSchedule, EventType
from repro.video.stream import VideoStream

TRUCK = EventType(
    name="truck-at-gate",
    duration_mean=90,
    duration_std=15,
    lead_time=260,  # the truck is visible on the access road before the gate
    predictability=0.9,
)

HORIZON = 240
WINDOW = 20


def build_stream(length: int, seed: int) -> VideoStream:
    """Poisson truck arrivals (≈ one per 2500 frames), gamma durations."""
    rng = np.random.default_rng(seed)
    onsets = PoissonArrivals(rate=1 / 2500).sample(length, rng)
    instances = []
    last_end = -1
    for onset in onsets:
        if onset <= last_end:
            continue
        duration = TRUCK.sample_duration(rng)
        end = min(onset + duration - 1, length - 1)
        instances.append(EventInstance(onset, end, TRUCK))
        last_end = end
    return VideoStream(length, EventSchedule(length, instances), seed=seed)


def main() -> None:
    extractor = FeatureExtractor()
    train_stream = build_stream(60_000, seed=1)
    calib_stream = build_stream(60_000, seed=2)
    live_stream = build_stream(120_000, seed=3)
    print(
        f"Streams ready: {train_stream.schedule.occurrence_count(TRUCK)} "
        f"training arrivals, {live_stream.schedule.occurrence_count(TRUCK)} "
        f"live arrivals, occupancy "
        f"{live_stream.occupancy_fraction(TRUCK):.1%} of frames."
    )

    # ------------------------------------------------------------------
    # Training data: §II triplets from the training stream.
    # ------------------------------------------------------------------
    train_features = extractor.extract(train_stream, [TRUCK])
    standardizer = Standardizer.fit(train_features.values)
    pipeline = CovariatePipeline(WINDOW, standardizer=standardizer)
    builder = DatasetBuilder(
        window_size=WINDOW, horizon=HORIZON, stride=WINDOW, pipeline=pipeline
    )
    rng = np.random.default_rng(0)
    train_records = builder.build(
        train_stream, train_features, [TRUCK], max_records=400, rng=rng
    )
    calib_features = extractor.extract(calib_stream, [TRUCK])
    calib_records = builder.build(
        calib_stream, calib_features, [TRUCK], max_records=300, rng=rng
    )

    config = EventHitConfig(
        window_size=WINDOW,
        horizon=HORIZON,
        lstm_hidden=16,
        shared_hidden=(16,),
        head_hidden=(32,),
        dropout=0.0,
        learning_rate=5e-3,
        epochs=20,
        batch_size=32,
        seed=0,
    )
    print("Training EventHit...")
    model, history = train_eventhit(train_records, config=config)
    print(
        f"  {history.epochs_run} epochs, final loss "
        f"{history.final_train_loss:.4f} ({history.seconds:.1f}s)"
    )

    output = BatchedInference(model).predict(calib_records.covariates)
    classifier = ConformalClassifier().calibrate(output, calib_records)
    regressor = ConformalRegressor().calibrate(output, calib_records)

    # ------------------------------------------------------------------
    # Deployment: marshal the live stream through the paid CI.
    # ------------------------------------------------------------------
    pricing = FlatPricing(price_per_frame=0.001)
    live_features = extractor.extract(live_stream, [TRUCK])

    service = CloudInferenceService(live_stream, pricing=pricing)
    marshaller = StreamMarshaller(
        model,
        [TRUCK],
        pipeline,
        classifier=classifier,
        regressor=regressor,
        confidence=0.97,
        alpha=0.95,
    )
    report = marshaller.run(live_stream, live_features, service)

    brute_force_cost = report.frames_covered * pricing.price_per_frame
    print()
    print(f"Horizons evaluated   : {report.horizons_evaluated}")
    print(f"Frames covered       : {report.frames_covered}")
    print(f"Frames relayed to CI : {report.frames_relayed} "
          f"({report.relay_fraction:.1%})")
    print(f"Truck-frame recall   : {report.frame_recall:.1%}")
    print(f"Gate events detected : "
          f"{len({(d.start, d.end) for d in report.detections})}")
    print(f"Marshalled bill      : ${report.total_cost:,.2f}")
    print(f"Brute-force bill     : ${brute_force_cost:,.2f}")
    print(f"Savings              : "
          f"${report.cost_saving_vs_brute_force(pricing.price_per_frame):,.2f}")


if __name__ == "__main__":
    main()
