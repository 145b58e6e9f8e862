"""Tests for the registry-less lifecycle response: audit sampling, drift
signals and online conformal recalibration inside the serving loop, plus
the audit billing and credit of :func:`repro.lifecycle.audited_outcome`."""

import numpy as np
import pytest

from repro.cloud import CloudInferenceService, StreamMarshaller
from repro.conformal import ConformalClassifier
from repro.core import EventHitConfig, train_eventhit
from repro.data import build_experiment_data
from repro.drift import MissRateCusum
from repro.features import CovariatePipeline, FeatureExtractor
from repro.lifecycle import AuditBuffer, LifecycleController, audited_outcome
from repro.video import make_thumos
from repro.video.datasets import EVENT_TYPES, place_instances
from repro.video.events import EventSchedule, EventType
from repro.video.stream import VideoStream
from tests.helpers import calibrated, calibrated_classifier, calibrated_regressor

CONFIG = EventHitConfig(
    window_size=10, horizon=200, lstm_hidden=16, shared_hidden=(16,),
    head_hidden=(32,), dropout=0.0, learning_rate=5e-3, epochs=12,
    batch_size=32, seed=0,
)

PRICE = 0.001  # the paper's flat per-frame price audits are billed at


@pytest.fixture(scope="module")
def setup():
    spec = make_thumos(scale=0.08).with_events(["E7"])
    data = build_experiment_data(spec, seed=0, max_records=200, stride=15)
    model, _ = train_eventhit(data.train, config=CONFIG)
    pipeline = CovariatePipeline(spec.window_size, standardizer=data.standardizer)
    return spec, data, model, pipeline


def deploy(setup, audit_rate, seed=0, **kwargs):
    """A freshly calibrated marshaller under a registry-less controller."""
    spec, data, model, pipeline = setup
    classifier, regressor = calibrated(model, data.calibration)
    marshaller = StreamMarshaller(
        model, data.event_types, pipeline,
        classifier=classifier, regressor=regressor,
        confidence=0.95, alpha=0.9,
    )
    controller = LifecycleController(
        marshaller, None, audit_rate=audit_rate, seed=seed, **kwargs
    )
    return marshaller, controller


def run(marshaller, controller, stream, features, service=None, **kwargs):
    service = service or CloudInferenceService(stream)
    report = marshaller.run(
        stream, features, service, lifecycle=controller, **kwargs
    )
    return report, audited_outcome(report, stream, controller)


class TestAuditBuffer:
    def test_validation(self):
        with pytest.raises(ValueError):
            AuditBuffer([EVENT_TYPES["E7"]], horizon=200, maxlen=0)
        empty = AuditBuffer([EVENT_TYPES["E7"]], horizon=200)
        with pytest.raises(ValueError):
            empty.to_records()

    def test_sliding_window(self):
        buffer = AuditBuffer([EVENT_TYPES["E7"]], horizon=10, maxlen=2)
        for i in range(4):
            buffer.add(i, np.zeros((3, 2)), np.array([1.0]),
                       np.array([2]), np.array([4]), np.array([0.0]))
        assert len(buffer) == 2
        records = buffer.to_records()
        np.testing.assert_array_equal(records.frames, [2, 3])

    def test_readiness(self):
        buffer = AuditBuffer([EVENT_TYPES["E7"]], horizon=10, maxlen=10)
        assert not buffer.ready_for_calibration()
        for i in range(3):
            buffer.add(i, np.zeros((3, 2)), np.array([1.0]),
                       np.array([1]), np.array([4]), np.array([0.0]))
        assert buffer.ready_for_calibration(min_positives=3)
        assert not buffer.ready_for_calibration(min_positives=4)

    def test_positives_per_event(self):
        buffer = AuditBuffer([EVENT_TYPES["E7"], EVENT_TYPES["E8"]], horizon=10)
        buffer.add(0, np.zeros((3, 2)), np.array([1.0, 0.0]),
                   np.array([1, 0]), np.array([2, 0]), np.array([0.0, 0.0]))
        np.testing.assert_array_equal(buffer.positives_per_event(), [1, 0])


class TestValidation:
    def test_requires_calibrated_components(self, setup):
        spec, data, model, pipeline = setup
        classifier = calibrated_classifier(model, data.calibration)
        with pytest.raises(ValueError, match="must be calibrated"):
            StreamMarshaller(model, data.event_types, pipeline,
                             classifier=ConformalClassifier())
        half = StreamMarshaller(model, data.event_types, pipeline,
                                classifier=classifier)
        with pytest.raises(ValueError, match="calibrated conformal"):
            LifecycleController(half, None)

    def test_knob_validation(self, setup):
        for audit_rate, kwargs in ((1.5, {}), (-0.1, {}),
                                   (0.2, dict(min_positives=0))):
            with pytest.raises(ValueError):
                deploy(setup, audit_rate, **kwargs)
        for audit_rate in (0.0, 1.0):
            _, controller = deploy(setup, audit_rate=audit_rate)
            assert controller.audit_rate == audit_rate


class TestRegistryless:
    def test_register_incumbent_needs_a_registry(self, setup):
        _, controller = deploy(setup, audit_rate=0.2)
        with pytest.raises(ValueError, match="registry"):
            controller.register_incumbent()

    def test_scheduled_trigger_recalibrates_in_place(self, setup):
        spec, data, model, pipeline = setup
        marshaller, controller = deploy(
            setup, audit_rate=1.0, retrain_every_audits=4, min_records=4,
            min_positives=1,
        )
        classifier = marshaller.classifier
        run(marshaller, controller, data.test_stream, data.test_features,
            max_horizons=12)
        assert controller.recalibrations >= 1
        assert controller.retrains == controller.swaps == 0
        # Same network, same conformal objects, recalibrated on the buffer.
        assert marshaller.model is model
        assert marshaller.classifier is classifier

    def test_recalibration_invalidates_the_quantile_memo(self, setup):
        spec, data, model, pipeline = setup
        marshaller, controller = deploy(
            setup, audit_rate=1.0, retrain_every_audits=4, min_records=4,
            min_positives=1,
        )
        regressor = marshaller.regressor
        alpha = marshaller.alpha
        before = regressor.quantiles(alpha)  # memoized before serving
        calibrated_on = []
        calibrate = regressor.calibrate

        def spy(output, records):
            calibrated_on.append(records)
            return calibrate(output, records)

        regressor.calibrate = spy
        run(marshaller, controller, data.test_stream, data.test_features,
            max_horizons=12)
        assert controller.recalibrations >= 1 and calibrated_on
        fresh = calibrated_regressor(model, calibrated_on[-1])
        np.testing.assert_array_equal(
            regressor.quantiles(alpha), fresh.quantiles(alpha)
        )
        assert not np.array_equal(before, fresh.quantiles(alpha))


class TestStationary:
    def test_stationary_run_rarely_recalibrates(self, setup):
        spec, data, model, pipeline = setup
        marshaller, controller = deploy(setup, audit_rate=0.2)
        report, outcome = run(
            marshaller, controller, data.test_stream, data.test_features
        )
        assert report.horizons_evaluated > 0
        assert controller.audits > 0
        # Exchangeable deployment: the guarantee holds, CUSUM stays quiet.
        assert controller.recalibrations <= 1
        assert outcome.recall > 0.5

    def test_audit_rate_zero_never_audits(self, setup):
        spec, data, model, pipeline = setup
        marshaller, controller = deploy(setup, audit_rate=0.0)
        report, outcome = run(
            marshaller, controller, data.test_stream, data.test_features,
            max_horizons=10,
        )
        assert controller.audits == 0
        assert controller.recalibrations == 0
        assert controller.audit_frames == 0
        # Nothing to bill or credit: the outcome is the report's own.
        assert outcome.cost == report.total_cost
        assert outcome.recall == report.effective_recall

    def test_audit_rate_one_audits_everything(self, setup):
        spec, data, model, pipeline = setup
        marshaller, controller = deploy(setup, audit_rate=1.0)
        report, outcome = run(
            marshaller, controller, data.test_stream, data.test_features,
            max_horizons=5,
        )
        assert controller.audits == 5
        assert len(controller.audited_spans[data.test_stream]) == 5
        # Full audit = full relay = perfect recall on covered horizons.
        assert outcome.recall == pytest.approx(1.0)

    def test_cost_is_the_run_delta_plus_audit_frames(self, setup):
        spec, data, model, pipeline = setup
        service = CloudInferenceService(data.test_stream)
        # An earlier run on the same account: its bill is not this run's.
        warm_m, _ = deploy(setup, audit_rate=0.0)
        warm_m.run(data.test_stream, data.test_features, service,
                   max_horizons=8)
        cost_before = service.ledger.total_cost
        frames_before = service.ledger.frames_processed
        assert cost_before > 0

        marshaller, controller = deploy(setup, audit_rate=0.3, seed=1)
        report, outcome = run(
            marshaller, controller, data.test_stream, data.test_features,
            service=service,
        )
        assert controller.audits > 0
        assert report.frames_relayed == (
            service.ledger.frames_processed - frames_before
        )
        assert controller.audit_frames == controller.audits * marshaller.horizon
        assert outcome.cost == pytest.approx(
            service.ledger.total_cost - cost_before
            + controller.audit_frames * PRICE
        )


def drifted_stream(spec, seed=9):
    """A deployment stream whose event dynamics changed after training:
    shorter lead time and weaker precursor (camera moved / new layout)."""
    import zlib

    drifted_type = EventType(
        name="E7",
        duration_mean=EVENT_TYPES["E7"].duration_mean,
        duration_std=EVENT_TYPES["E7"].duration_std,
        lead_time=60,  # trained world had 440
        predictability=0.35,
    )
    instances = place_instances(
        drifted_type, spec.occurrences["E7"], spec.length,
        np.random.default_rng(zlib.crc32(b"drift") + seed),
    )
    schedule = EventSchedule(spec.length, instances)
    return VideoStream(spec.length, schedule, seed=seed, name="drifted"), drifted_type


class TestUnderDrift:
    def test_drift_recalibrates_and_recovers_recall(self, setup):
        spec = setup[0]
        stream, drifted_type = drifted_stream(spec)
        features = FeatureExtractor().extract(stream, [drifted_type])

        def outcome(audit_rate):
            marshaller, controller = deploy(
                setup, audit_rate=audit_rate, min_positives=3, seed=3,
                cusum=MissRateCusum(budget=0.05, slack=0.05, threshold=2.0),
            )
            _, result = run(marshaller, controller, stream, features)
            return controller, result

        controller, adaptive = outcome(audit_rate=0.25)
        _, frozen = outcome(audit_rate=0.0)

        # The drifted world breaks the trained model; audits must notice.
        assert controller.audit_misses > 0 or controller.recalibrations > 0
        # Adaptation (recalibration + audit coverage) recovers recall that
        # the frozen deployment loses.
        assert adaptive.recall > frozen.recall
