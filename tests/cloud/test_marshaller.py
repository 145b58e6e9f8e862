"""Integration tests for the stream marshalling loop."""

import pytest

from repro.cloud import CloudInferenceService, StreamMarshaller
from repro.conformal import ConformalClassifier
from repro.core import BatchedInference, EventHit, EventHitConfig, train_eventhit
from repro.data import build_experiment_data
from repro.features import CovariatePipeline
from repro.video import make_thumos
from tests.helpers import calibrated, calibrated_regressor


CONFIG = EventHitConfig(
    window_size=10,
    horizon=200,
    lstm_hidden=16,
    shared_hidden=(16,),
    head_hidden=(32,),
    dropout=0.0,
    learning_rate=5e-3,
    epochs=12,
    batch_size=32,
    seed=0,
)


@pytest.fixture(scope="module")
def setup():
    spec = make_thumos(scale=0.06).with_events(["E7"])
    data = build_experiment_data(spec, seed=0, max_records=150, stride=15)
    model, _ = train_eventhit(data.train, config=CONFIG)
    pipeline = CovariatePipeline(spec.window_size, standardizer=data.standardizer)
    return spec, data, model, pipeline


class TestMarshaller:
    def test_basic_run_accounts_consistently(self, setup):
        spec, data, model, pipeline = setup
        service = CloudInferenceService(data.test_stream)
        marshaller = StreamMarshaller(
            model, data.event_types, pipeline, tau1=0.5, tau2=0.5
        )
        report = marshaller.run(data.test_stream, data.test_features, service)
        assert report.horizons_evaluated > 0
        assert report.frames_covered == report.horizons_evaluated * spec.horizon
        assert report.frames_relayed == service.ledger.frames_processed
        assert report.total_cost == pytest.approx(
            service.ledger.total_cost
        )
        assert 0 <= report.relay_fraction <= 1

    def test_recall_reasonable_with_conformal(self, setup):
        spec, data, model, pipeline = setup
        classifier, regressor = calibrated(model, data.calibration)
        service = CloudInferenceService(data.test_stream)
        marshaller = StreamMarshaller(
            model,
            data.event_types,
            pipeline,
            classifier=classifier,
            regressor=regressor,
            confidence=0.95,
            alpha=0.95,
        )
        report = marshaller.run(data.test_stream, data.test_features, service)
        assert report.frame_recall > 0.5
        # The whole point: relay far fewer frames than brute force.
        assert report.relay_fraction < 0.9

    def test_conformal_relays_more_than_plain(self, setup):
        spec, data, model, pipeline = setup
        plain_service = CloudInferenceService(data.test_stream)
        plain = StreamMarshaller(model, data.event_types, pipeline)
        plain_report = plain.run(data.test_stream, data.test_features, plain_service)

        classifier, regressor = calibrated(model, data.calibration)
        conf_service = CloudInferenceService(data.test_stream)
        conf = StreamMarshaller(
            model, data.event_types, pipeline,
            classifier=classifier, regressor=regressor,
            confidence=0.99, alpha=0.99,
        )
        conf_report = conf.run(data.test_stream, data.test_features, conf_service)
        assert conf_report.frames_relayed >= plain_report.frames_relayed

    def test_max_horizons_limits_work(self, setup):
        spec, data, model, pipeline = setup
        service = CloudInferenceService(data.test_stream)
        marshaller = StreamMarshaller(model, data.event_types, pipeline)
        report = marshaller.run(
            data.test_stream, data.test_features, service, max_horizons=3
        )
        assert report.horizons_evaluated == 3

    def test_cost_saving_vs_brute_force(self, setup):
        spec, data, model, pipeline = setup
        service = CloudInferenceService(data.test_stream)
        marshaller = StreamMarshaller(model, data.event_types, pipeline)
        report = marshaller.run(data.test_stream, data.test_features, service)
        saving = report.cost_saving_vs_brute_force(0.001)
        assert saving > 0

    def test_validation(self, setup):
        spec, data, model, pipeline = setup
        service = CloudInferenceService(data.test_stream)
        with pytest.raises(ValueError):
            StreamMarshaller(model, [], pipeline)
        uncal = ConformalClassifier()
        with pytest.raises(ValueError):
            StreamMarshaller(model, data.event_types, pipeline, classifier=uncal)
        with pytest.raises(ValueError):
            StreamMarshaller(model, data.event_types, pipeline, confidence=2.0)
        with pytest.raises(ValueError):
            StreamMarshaller(model, data.event_types, pipeline, alpha=0.0)

    def test_tau2_checked_at_construction(self, setup):
        """τ2 outside [0, 1] is rejected by the constructor, not at the
        first tick, and also when a regressor (which extracts at its own
        τ2) is set."""
        spec, data, model, pipeline = setup
        regressor = calibrated_regressor(model, data.calibration)
        for layer in (None, regressor):
            for tau2 in (-0.1, 1.5, float("nan")):
                with pytest.raises(ValueError, match="tau2"):
                    StreamMarshaller(model, data.event_types, pipeline,
                                     regressor=layer, tau2=tau2)
            for tau2 in (0.0, 1.0):
                StreamMarshaller(model, data.event_types, pipeline,
                                 regressor=layer, tau2=tau2)

    def test_engine_is_the_one_owner_of_the_model(self, setup):
        spec, data, model, pipeline = setup
        other = EventHit(model.num_features, model.num_events, config=CONFIG)
        marshaller = StreamMarshaller(model, data.event_types, pipeline)
        assert type(marshaller.inference) is BatchedInference
        assert marshaller.model is marshaller.inference.model is model
        with pytest.raises(AttributeError):
            marshaller.model = other

    def test_wrong_stream_binding_raises(self, setup):
        spec, data, model, pipeline = setup
        service = CloudInferenceService(data.train_stream)
        marshaller = StreamMarshaller(model, data.event_types, pipeline)
        with pytest.raises(ValueError):
            marshaller.run(data.test_stream, data.test_features, service)

    def test_start_frame_validation(self, setup):
        spec, data, model, pipeline = setup
        service = CloudInferenceService(data.test_stream)
        marshaller = StreamMarshaller(model, data.event_types, pipeline)
        with pytest.raises(ValueError):
            marshaller.run(
                data.test_stream, data.test_features, service, start_frame=0
            )


class TestMarshallerObservability:
    """The marshalling loop must keep books consistent with its report."""

    @pytest.fixture(autouse=True)
    def clean_obs(self):
        from repro import obs

        obs.reset()
        yield
        obs.reset()

    def test_counters_spans_and_ci_books_match_report(self, setup):
        from repro import obs

        spec, data, model, pipeline = setup
        obs.configure(enabled=True)
        service = CloudInferenceService(data.test_stream)
        marshaller = StreamMarshaller(model, data.event_types, pipeline)
        report = marshaller.run(
            data.test_stream, data.test_features, service, max_horizons=4
        )
        snap = obs.get_registry().snapshot()
        counters = snap["counters"]
        assert counters["marshal.horizons"] == report.horizons_evaluated
        assert counters["marshal.frames_covered"] == report.frames_covered
        assert counters["marshal.frames_relayed"] == report.frames_relayed
        assert counters["marshal.cost"] == pytest.approx(report.total_cost)
        assert counters["stage.frames_relayed"] == report.frames_relayed
        assert counters["stage.predictions"] == report.horizons_evaluated
        if service.ledger.requests:
            assert counters["ci.requests"] == service.ledger.requests
            assert counters["ci.frames"] == service.ledger.frames_processed
            assert counters["ci.simulated_seconds"] == pytest.approx(
                service.simulated_seconds
            )
            assert (
                snap["histograms"]["ci.call_seconds"]["count"]
                == service.ledger.requests
            )
        # A single-stream run is a one-lane fleet run: one tick per
        # horizon on this fault-free run (nothing left to drain).
        names = [r.name for r in obs.get_tracer().records]
        assert names.count("fleet.run") == 1
        assert names.count("fleet.tick") == report.horizons_evaluated
        tick_spans = [
            r for r in obs.get_tracer().records if r.name == "fleet.tick"
        ]
        assert all(r.parent == "fleet.run" for r in tick_spans)

    def test_widening_counter_counts_conformal_regress_use(self, setup):
        from repro import obs

        spec, data, model, pipeline = setup
        obs.configure(enabled=True)
        classifier, regressor = calibrated(model, data.calibration)
        service = CloudInferenceService(data.test_stream)
        marshaller = StreamMarshaller(
            model, data.event_types, pipeline,
            classifier=classifier, regressor=regressor,
            confidence=0.99, alpha=0.99,
        )
        report = marshaller.run(data.test_stream, data.test_features, service)
        counters = obs.get_registry().snapshot()["counters"]
        if report.frames_relayed:
            assert counters.get("marshal.widenings", 0) > 0

    def test_disabled_run_records_nothing(self, setup):
        from repro import obs

        spec, data, model, pipeline = setup
        service = CloudInferenceService(data.test_stream)
        marshaller = StreamMarshaller(model, data.event_types, pipeline)
        marshaller.run(
            data.test_stream, data.test_features, service, max_horizons=2
        )
        assert obs.get_registry().names() == []
        assert obs.get_tracer().records == []
