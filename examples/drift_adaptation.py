"""Adapting to occurrence-distribution drift (the paper's §VIII future work).

A model is trained on one world (trucks announce themselves 440 frames
ahead), then deployed on a *drifted* world (a layout change cut the warning
to 60 frames and muddied the precursor).  The frozen deployment silently
loses recall; the adaptive deployment audits a fraction of horizons, its
CUSUM chart notices the misses exceeding the conformal budget, and it
recalibrates the conformal layers online from the audited ground truth.

Both deployments run through the one serving loop
(``StreamMarshaller.run(lifecycle=...)``) with a registry-less
``LifecycleController``; audits are full-horizon relays, so
``audited_outcome`` bills them on top of the run's cost and credits the
event frames they covered.

Usage::

    python examples/drift_adaptation.py
"""

import numpy as np

from repro.cloud import CloudInferenceService, StreamMarshaller
from repro.conformal import ConformalClassifier, ConformalRegressor
from repro.core import BatchedInference, EventHitConfig, train_eventhit
from repro.data import build_experiment_data
from repro.drift import MissRateCusum
from repro.features import CovariatePipeline, FeatureExtractor
from repro.lifecycle import LifecycleController, audited_outcome
from repro.video import make_thumos
from repro.video.datasets import EVENT_TYPES, place_instances
from repro.video.events import EventSchedule, EventType
from repro.video.stream import VideoStream


def drifted_stream(spec, seed=9):
    """Same arrival process, changed observability (lead 440 → 60)."""
    drifted_type = EventType(
        name="E7",
        duration_mean=EVENT_TYPES["E7"].duration_mean,
        duration_std=EVENT_TYPES["E7"].duration_std,
        lead_time=60,
        predictability=0.35,
    )
    instances = place_instances(
        drifted_type, spec.occurrences["E7"], spec.length,
        np.random.default_rng(seed),
    )
    stream = VideoStream(
        spec.length, EventSchedule(spec.length, instances), seed=seed,
        name="drifted-world",
    )
    return stream, drifted_type


def main() -> None:
    spec = make_thumos(scale=0.25).with_events(["E7"])
    print("Training EventHit on the original world...")
    data = build_experiment_data(spec, seed=0, max_records=300, stride=10)
    config = EventHitConfig(
        window_size=spec.window_size, horizon=spec.horizon,
        lstm_hidden=16, shared_hidden=(16,), head_hidden=(32,),
        dropout=0.0, learning_rate=5e-3, epochs=20, batch_size=32, seed=0,
    )
    model, _ = train_eventhit(data.train, config=config)
    pipeline = CovariatePipeline(spec.window_size, standardizer=data.standardizer)

    stream, drifted_type = drifted_stream(spec)
    features = FeatureExtractor().extract(stream, [drifted_type])
    print(f"Deploying on the drifted world "
          f"({stream.schedule.occurrence_count(drifted_type)} events, "
          f"lead time 440 -> 60 frames)...")

    def deploy(audit_rate):
        output = BatchedInference(model).predict(data.calibration.covariates)
        classifier = ConformalClassifier().calibrate(output, data.calibration)
        regressor = ConformalRegressor().calibrate(output, data.calibration)
        marshaller = StreamMarshaller(
            model, data.event_types, pipeline,
            classifier=classifier, regressor=regressor,
            confidence=0.95, alpha=0.9,
        )
        controller = LifecycleController(
            marshaller, None, audit_rate=audit_rate, min_positives=3, seed=3,
            cusum=MissRateCusum(budget=0.05, slack=0.05, threshold=2.0),
        )
        service = CloudInferenceService(stream)
        report = marshaller.run(stream, features, service, lifecycle=controller)
        return report, controller, audited_outcome(report, stream, controller)

    frozen, frozen_lc, frozen_out = deploy(audit_rate=0.0)
    adaptive, adaptive_lc, adaptive_out = deploy(audit_rate=0.25)

    print()
    print(f"{'':24}{'frozen':>10}{'adaptive':>10}")
    print(f"{'horizons evaluated':24}{frozen.horizons_evaluated:>10}"
          f"{adaptive.horizons_evaluated:>10}")
    print(f"{'horizons audited':24}{frozen_lc.audits:>10}"
          f"{adaptive_lc.audits:>10}")
    print(f"{'audited misses':24}{frozen_lc.audit_misses:>10}"
          f"{adaptive_lc.audit_misses:>10}")
    print(f"{'drift recalibrations':24}{frozen_lc.recalibrations:>10}"
          f"{adaptive_lc.recalibrations:>10}")
    print(f"{'frame recall':24}{frozen_out.recall:>10.3f}"
          f"{adaptive_out.recall:>10.3f}")
    print(f"{'frames relayed':24}{frozen.frames_relayed:>10}"
          f"{adaptive.frames_relayed:>10}")
    print(f"{'audit frames':24}{frozen_lc.audit_frames:>10}"
          f"{adaptive_lc.audit_frames:>10}")
    print(f"{'cost incl. audits ($)':24}{frozen_out.cost:>10.2f}"
          f"{adaptive_out.cost:>10.2f}")
    print()
    print(
        "The frozen deployment keeps the pre-drift calibration and misses "
        "events silently; the adaptive one pays a bounded audit overhead, "
        "detects the broken guarantee, recalibrates, and recovers recall."
    )


if __name__ == "__main__":
    main()
