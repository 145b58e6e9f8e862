"""Cross-module robustness and failure-injection tests.

These cover the seams between subsystems: degenerate streams, horizonless
runs, tied conformal scores, empty predictions, widening invariants — the
places where production deployments actually break.
"""

import numpy as np
import pytest

from repro.cloud import CloudInferenceService, StreamMarshaller
from repro.core import (
    EventHit,
    EventHitConfig,
    EventHitOutput,
    PredictionBatch,
    threshold_predictions,
)
from repro.data import DatasetBuilder, RecordSet
from repro.features import CovariatePipeline, extract_features
from repro.metrics import evaluate, recall, spillage
from repro.video.events import EventInstance, EventSchedule, EventType
from repro.video.stream import VideoStream
from tests.helpers import calibrated_classifier, calibrated_regressor, engine_predict

ET = EventType("e", duration_mean=10, duration_std=1, lead_time=50)

SMALL = EventHitConfig(
    window_size=4, horizon=12, lstm_hidden=8, shared_hidden=(8,),
    head_hidden=(8,), dropout=0.0, epochs=2, batch_size=8, seed=0,
)


def empty_records(b=6, h=12, m=4, d=3):
    """Records with no events at all (pure negative stream)."""
    rng = np.random.default_rng(0)
    return RecordSet(
        event_types=[ET],
        horizon=h,
        frames=np.arange(b) + m,
        covariates=rng.normal(size=(b, m, d)),
        labels=np.zeros((b, 1)),
        starts=np.zeros((b, 1), dtype=int),
        ends=np.zeros((b, 1), dtype=int),
        censored=np.zeros((b, 1)),
    )


class TestDegenerateStreams:
    def test_eventless_stream_features_extractable(self):
        stream = VideoStream(500, EventSchedule(500, []), seed=0)
        features = extract_features(stream, [ET])
        assert features.values.shape == (500, 6)
        assert np.all(np.isfinite(features.values))

    def test_eventless_records_buildable(self):
        stream = VideoStream(500, EventSchedule(500, []), seed=0)
        features = extract_features(stream, [ET])
        builder = DatasetBuilder(window_size=4, horizon=50, stride=25)
        records = builder.build(stream, features, [ET])
        assert records.labels.sum() == 0

    def test_calibration_on_eventless_records_fails_loudly(self):
        model = EventHit(3, 1, config=SMALL)
        with pytest.raises(ValueError, match="no positive"):
            calibrated_classifier(model, empty_records())
        with pytest.raises(ValueError, match="no positive"):
            calibrated_regressor(model, empty_records())

    def test_single_event_stream_survives_everything(self):
        stream = VideoStream(
            400, EventSchedule(400, [EventInstance(100, 109, ET)]), seed=0
        )
        features = extract_features(stream, [ET])
        builder = DatasetBuilder(window_size=4, horizon=50, stride=10)
        records = builder.build(stream, features, [ET])
        assert records.labels.sum() > 0

    def test_wall_to_wall_event_stream(self):
        """A stream that is one long event — SPL must be NaN-free."""
        stream = VideoStream(
            300, EventSchedule(300, [EventInstance(0, 299, ET)]), seed=0
        )
        features = extract_features(stream, [ET])
        builder = DatasetBuilder(window_size=4, horizon=50, stride=25)
        records = builder.build(stream, features, [ET])
        pred = PredictionBatch(
            exists=np.ones_like(records.labels, dtype=bool),
            starts=np.ones_like(records.starts),
            ends=np.full_like(records.ends, 50),
            horizon=50,
        )
        assert spillage(pred, records) == 0.0  # no non-event frames exist
        assert recall(pred, records) == 1.0


class TestMarshallerEdges:
    def make_model_and_pipeline(self):
        model = EventHit(6, 1, config=SMALL)
        pipeline = CovariatePipeline(SMALL.window_size)
        return model, pipeline

    def test_stream_shorter_than_horizon_runs_zero_horizons(self):
        model, pipeline = self.make_model_and_pipeline()
        stream = VideoStream(10, EventSchedule(10, []), seed=0)
        features = extract_features(stream, [ET])
        service = CloudInferenceService(stream)
        marshaller = StreamMarshaller(model, [ET], pipeline)
        report = marshaller.run(stream, features, service)
        assert report.horizons_evaluated == 0
        assert np.isnan(report.frame_recall)
        assert service.ledger.frames_processed == 0

    def test_event_at_stream_boundary(self):
        """An event ending exactly at the last frame must not crash."""
        model, pipeline = self.make_model_and_pipeline()
        stream = VideoStream(
            100, EventSchedule(100, [EventInstance(95, 99, ET)]), seed=0
        )
        features = extract_features(stream, [ET])
        service = CloudInferenceService(stream)
        marshaller = StreamMarshaller(model, [ET], pipeline, tau1=0.0)
        report = marshaller.run(stream, features, service)
        assert report.frames_relayed <= service.stream.length * 2


class TestConformalTies:
    def test_all_tied_scores_valid_pvalues(self):
        """Identical calibration scores: p-values collapse to the two
        extremes but stay valid probabilities."""
        from repro.conformal import conformal_p_values

        calib = np.full(20, 0.4)
        p_equal = conformal_p_values(np.array([0.4]), calib)[0]
        p_worse = conformal_p_values(np.array([0.41]), calib)[0]
        assert p_equal == pytest.approx(20 / 21)
        assert p_worse == 0.0

    def test_classifier_with_saturated_model(self):
        """A model emitting identical scores everywhere: c=1 must still
        predict all-positive (the guarantee's trivial regime)."""
        model = EventHit(3, 1, config=SMALL)
        rng = np.random.default_rng(0)
        records = empty_records()
        records.labels[:3, 0] = 1.0
        records.starts[:3, 0] = 1
        records.ends[:3, 0] = 4
        records = RecordSet(
            event_types=records.event_types, horizon=records.horizon,
            frames=records.frames, covariates=records.covariates,
            labels=records.labels, starts=records.starts, ends=records.ends,
            censored=records.censored,
        )
        clf = calibrated_classifier(model, records)
        output = engine_predict(model, records.covariates)
        assert clf.predict(output, confidence=1.0).all()


class TestPredictionEdges:
    def test_empty_prediction_batch_metrics(self):
        records = empty_records()
        pred = PredictionBatch(
            exists=np.zeros_like(records.labels, dtype=bool),
            starts=np.zeros_like(records.starts),
            ends=np.zeros_like(records.ends),
            horizon=records.horizon,
        )
        summary = evaluate(pred, records)
        assert np.isnan(summary.rec)  # no present events
        assert summary.spl == 0.0
        assert summary.frames_relayed == 0

    def test_threshold_predictions_extreme_taus(self):
        output = EventHitOutput(
            np.random.default_rng(0).uniform(0.2, 0.8, (4, 1)),
            np.random.default_rng(1).uniform(0.2, 0.8, (4, 1, 12)),
        )
        everything = threshold_predictions(output, tau1=0.0, tau2=0.0)
        nothing = threshold_predictions(output, tau1=1.0, tau2=1.0)
        assert everything.exists.all()
        assert everything.predicted_frames().sum() == 4 * 12
        assert not nothing.exists.any()

    def test_widening_never_reduces_recall(self):
        """C-REGRESS-style widening is recall-monotone by construction."""
        rng = np.random.default_rng(0)
        b, h = 12, 20
        labels = np.ones((b, 1))
        starts = rng.integers(3, 10, size=(b, 1))
        ends = starts + rng.integers(0, 5, size=(b, 1))
        records = RecordSet(
            event_types=[ET], horizon=h, frames=np.arange(b),
            covariates=np.zeros((b, 2, 1)), labels=labels,
            starts=starts, ends=ends, censored=np.zeros((b, 1)),
        )
        ps = rng.integers(1, 15, size=(b, 1))
        pe = np.minimum(h, ps + rng.integers(0, 4, size=(b, 1)))
        base = PredictionBatch(
            exists=np.ones((b, 1), dtype=bool), starts=ps, ends=pe, horizon=h
        )
        widened = PredictionBatch(
            base.exists, np.maximum(1, ps - 3), np.minimum(h, pe + 3), h
        )
        assert recall(widened, records) >= recall(base, records)

    def test_model_handles_single_record_batch(self):
        model = EventHit(3, 1, config=SMALL)
        out = engine_predict(model, np.zeros((1, 4, 3)))
        assert out.batch_size == 1
        batch = threshold_predictions(out)
        assert batch.exists.shape == (1, 1)


class TestNumericalStability:
    def test_training_with_extreme_feature_scales(self):
        """Unstandardised features with large magnitude must not NaN out."""
        from repro.core import train_eventhit

        rng = np.random.default_rng(0)
        covariates = rng.normal(0, 100.0, size=(32, 4, 3))
        labels = (rng.random((32, 1)) < 0.5).astype(float)
        starts = np.where(labels > 0, 2, 0).astype(int)
        ends = np.where(labels > 0, 6, 0).astype(int)
        records = RecordSet(
            event_types=[ET], horizon=12, frames=np.arange(32),
            covariates=covariates, labels=labels, starts=starts,
            ends=ends, censored=np.zeros((32, 1)),
        )
        model, history = train_eventhit(records, config=SMALL)
        assert all(np.isfinite(loss) for loss in history.train_losses)
        out = engine_predict(model, covariates)
        assert np.all(np.isfinite(out.scores))

    def test_bce_saturated_outputs_finite(self):
        from repro.nn.functional import binary_cross_entropy
        from repro.nn import Tensor

        pred = Tensor(np.array([[1.0, 0.0, 1.0]]))
        target = np.array([[0.0, 1.0, 1.0]])
        loss = binary_cross_entropy(pred, target)
        assert np.isfinite(loss.item())
