"""The no-swap pin: attaching a lifecycle controller that never swaps
must leave marshalling output **byte-identical** to a lifecycle-free run.

Observation is free — audits, drift detection, even failed retrains and
canary rollbacks only touch controller-private state.  The only thing
allowed to change marshalling behavior is an applied swap, and these
tests run with the production-strict canary gate, under which a
small-buffer candidate never beats the incumbent.
"""

import json

import pytest

from repro.cloud import CloudInferenceService
from repro.conformal import ConformalClassifier
from repro.fleet import FleetCIService, FleetLane, FleetMarshaller
from repro.lifecycle import LifecycleController, ModelRegistry

MAX_HORIZONS = 5


def serialize(report):
    return json.dumps(report.to_dict(include_detections=True), sort_keys=True)


def strict_controller(marshaller, tmp_path, **kwargs):
    controller = LifecycleController(
        marshaller,
        ModelRegistry(tmp_path / "registry"),
        audit_rate=kwargs.pop("audit_rate", 1.0),
        min_records=4,
        min_positives=1,
        **kwargs,
    )
    controller.register_incumbent()
    return controller


class TestSequential:
    def test_zero_swap_run_is_byte_identical(self, setup, make_marshaller, tmp_path):
        spec, data, model, pipeline = setup

        def run(lifecycle):
            marshaller = make_marshaller()
            service = CloudInferenceService(data.test_stream)
            controller = (
                strict_controller(marshaller, tmp_path) if lifecycle else None
            )
            report = marshaller.run(
                data.test_stream,
                data.test_features,
                service,
                max_horizons=MAX_HORIZONS,
                lifecycle=controller,
            )
            return report, controller

        baseline, _ = run(lifecycle=False)
        observed, controller = run(lifecycle=True)
        # The controller genuinely watched the run...
        assert controller.audits == MAX_HORIZONS
        assert controller.swaps == 0
        # ...and left no fingerprints on it.
        assert serialize(observed) == serialize(baseline)
        assert observed.model_swaps == 0
        assert observed.swap_voided_frames == 0

    def test_auditless_controller_is_also_invisible(
        self, setup, make_marshaller, tmp_path
    ):
        spec, data, model, pipeline = setup
        baseline = make_marshaller().run(
            data.test_stream,
            data.test_features,
            CloudInferenceService(data.test_stream),
            max_horizons=MAX_HORIZONS,
        )
        marshaller = make_marshaller()
        controller = strict_controller(marshaller, tmp_path, audit_rate=0.0)
        observed = marshaller.run(
            data.test_stream,
            data.test_features,
            CloudInferenceService(data.test_stream),
            max_horizons=MAX_HORIZONS,
            lifecycle=controller,
        )
        assert serialize(observed) == serialize(baseline)


class TestFleet:
    @pytest.fixture
    def lanes(self, setup):
        from repro.features import FeatureExtractor
        from repro.video import make_stream

        spec, data, model, pipeline = setup
        extractor = FeatureExtractor()
        stream = make_stream(spec, seed=901, name="lane1")
        return [
            FleetLane(stream=data.test_stream, features=data.test_features),
            FleetLane(
                stream=stream,
                features=extractor.extract(stream, data.event_types),
            ),
        ]

    def test_zero_swap_fleet_is_byte_identical(
        self, setup, make_marshaller, tmp_path, lanes
    ):
        def run(lifecycle):
            marshaller = make_marshaller()
            controller = (
                strict_controller(marshaller, tmp_path) if lifecycle else None
            )
            fleet = FleetMarshaller(marshaller, scheduler="round-robin")
            report = fleet.run(
                lanes,
                FleetCIService([lane.stream for lane in lanes]),
                max_horizons=MAX_HORIZONS,
                lifecycle=controller,
            )
            return report, controller

        baseline, _ = run(lifecycle=False)
        observed, controller = run(lifecycle=True)
        assert controller.audits == len(lanes) * MAX_HORIZONS
        assert controller.swaps == 0
        for name in baseline.per_stream:
            assert serialize(observed.per_stream[name]) == serialize(
                baseline.per_stream[name]
            ), f"lane {name} diverged under a zero-swap lifecycle"

    def test_lifecycle_free_fleet_never_reads_p_values(
        self, make_marshaller, lanes, monkeypatch
    ):
        # Serving decides C-CLASSIFY through compiled thresholds; only the
        # lifecycle's drift detector reads p-values.
        def no_p_values(self, output):
            raise AssertionError("p_values called on the serving path")

        monkeypatch.setattr(ConformalClassifier, "p_values", no_p_values)
        fleet = FleetMarshaller(make_marshaller(), scheduler="round-robin")
        report = fleet.run(
            lanes,
            FleetCIService([lane.stream for lane in lanes]),
            max_horizons=MAX_HORIZONS,
        )
        assert report.ticks == MAX_HORIZONS
        assert report.relays_flushed > 0
