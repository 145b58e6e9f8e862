"""Extension benchmark — drift detection & adaptation (paper §VIII).

Not a paper figure: the paper lists drift handling as future work.  This
bench quantifies the implementation: deploying a model trained on one
world onto a drifted world, the frozen pipeline loses recall silently
while the adaptive pipeline (audit sampling + CUSUM + online conformal
recalibration) detects the break and recovers a large share of it.

Both deployments serve through ``StreamMarshaller.run(lifecycle=...)``
with a registry-less :class:`~repro.lifecycle.LifecycleController` (its
recalibrate-only response); the adaptive one's audits are billed and
their ground truth credited by :func:`~repro.lifecycle.audited_outcome`.
"""

import numpy as np
import pytest

from repro.cloud import CloudInferenceService, StreamMarshaller
from repro.conformal import ConformalClassifier, ConformalRegressor
from repro.core import EventHitConfig, train_eventhit
from repro.data import build_experiment_data
from repro.drift import MissRateCusum
from repro.features import CovariatePipeline, FeatureExtractor
from repro.lifecycle import LifecycleController, audited_outcome
from repro.video import make_thumos
from repro.video.datasets import EVENT_TYPES, place_instances
from repro.video.events import EventSchedule, EventType
from repro.video.stream import VideoStream


def _drifted_stream(spec, seed=9):
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
    return (
        VideoStream(spec.length, EventSchedule(spec.length, instances), seed=seed),
        drifted_type,
    )


def test_drift_adaptation(benchmark, save_result):
    def run():
        spec = make_thumos(scale=0.25).with_events(["E7"])
        data = build_experiment_data(spec, seed=0, max_records=300, stride=10)
        config = EventHitConfig(
            window_size=spec.window_size, horizon=spec.horizon,
            lstm_hidden=16, shared_hidden=(16,), head_hidden=(32,),
            dropout=0.0, learning_rate=5e-3, epochs=20, batch_size=32, seed=0,
        )
        model, _ = train_eventhit(data.train, config=config)
        pipeline = CovariatePipeline(
            spec.window_size, standardizer=data.standardizer
        )
        stream, drifted_type = _drifted_stream(spec)
        features = FeatureExtractor().extract(stream, [drifted_type])

        def deploy(audit_rate):
            classifier = ConformalClassifier(model).calibrate(data.calibration)
            regressor = ConformalRegressor(model).calibrate(data.calibration)
            marshaller = StreamMarshaller(
                model, data.event_types, pipeline,
                classifier=classifier, regressor=regressor,
                confidence=0.95, alpha=0.9,
            )
            controller = LifecycleController(
                marshaller, None, audit_rate=audit_rate,
                min_positives=3, seed=3,
                cusum=MissRateCusum(budget=0.05, slack=0.05, threshold=2.0),
            )
            service = CloudInferenceService(stream)
            report = marshaller.run(
                stream, features, service, lifecycle=controller
            )
            return report, controller, audited_outcome(
                report, stream, controller
            )

        return deploy(0.0), deploy(0.25)

    (frozen_report, _, frozen), (adaptive_report, controller, adaptive) = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    save_result(
        "ext_drift",
        "\n".join(
            [
                f"frozen recall={frozen.recall:.3f} "
                f"relayed={frozen_report.frames_relayed} "
                f"cost={frozen.cost:.3f}",
                f"adaptive recall={adaptive.recall:.3f} "
                f"relayed={adaptive_report.frames_relayed} "
                f"audit_frames={controller.audit_frames} "
                f"cost={adaptive.cost:.3f} "
                f"audited={controller.audits} "
                f"misses={controller.audit_misses} "
                f"recalibrations={controller.recalibrations}",
            ]
        ),
    )

    # Drift breaks the frozen pipeline...
    assert frozen.recall < 0.6
    # ...the adaptive one audits, signals, and recovers.
    assert controller.audits > 0
    assert controller.audit_misses > 0 or controller.recalibrations > 0
    assert adaptive.recall > frozen.recall + 0.15
