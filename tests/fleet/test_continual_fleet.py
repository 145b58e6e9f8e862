"""Fleet/lifecycle/ingest interactions of the continual engine.

At the repo's production geometry (horizon >= window, so consecutive
windows never overlap) the continual engine warms up on every tick —
which is exactly why a fleet served through it must produce reports
**byte-identical** to the windowed engine, and why the state-reset hooks
(run start, guard-voided horizons, quarantine) can be exercised without
changing a single decision.
"""

import json

import numpy as np
import pytest

from repro.cloud import CloudInferenceService, StreamMarshaller
from repro.core import (
    BatchedInference,
    ContinualInference,
    EventHitConfig,
    make_engine,
    train_eventhit,
)
from repro.data import build_experiment_data
from repro.features import CovariatePipeline, FeatureExtractor
from repro.fleet import FleetCIService, FleetLane, FleetMarshaller
from repro.ingest import IngestFaultInjector, IngestFaultPlan, StreamGuard
from repro.video import make_stream, make_thumos

CONFIG = EventHitConfig(
    window_size=10,
    horizon=200,
    lstm_hidden=12,
    shared_hidden=(12,),
    head_hidden=(24,),
    dropout=0.0,
    learning_rate=5e-3,
    epochs=3,
    batch_size=32,
    seed=0,
)

NUM_LANES = 3
MAX_HORIZONS = 4


@pytest.fixture(scope="module")
def setup():
    spec = make_thumos(scale=0.06).with_events(["E7"])
    data = build_experiment_data(spec, seed=0, max_records=120, stride=15)
    model, _ = train_eventhit(data.train, config=CONFIG)
    pipeline = CovariatePipeline(spec.window_size, standardizer=data.standardizer)
    extractor = FeatureExtractor()
    lanes = [FleetLane(stream=data.test_stream, features=data.test_features)]
    for i in range(1, NUM_LANES):
        stream = make_stream(spec, seed=900 + i, name=f"lane{i}")
        lanes.append(
            FleetLane(
                stream=stream, features=extractor.extract(stream, data.event_types)
            )
        )
    return spec, data, model, pipeline, lanes


def make_marshaller(setup, engine="windowed"):
    spec, data, model, pipeline, lanes = setup
    return StreamMarshaller(
        model,
        data.event_types,
        pipeline,
        tau1=0.5,
        tau2=0.5,
        inference=make_engine(engine, model),
    )


def fleet_reports(setup, engine):
    spec, data, model, pipeline, lanes = setup
    fleet = FleetMarshaller(make_marshaller(setup, engine))
    report = fleet.run(
        lanes,
        FleetCIService([lane.stream for lane in lanes]),
        max_horizons=MAX_HORIZONS,
    )
    return {
        name: json.dumps(
            lane_report.to_dict(include_detections=True), sort_keys=True
        )
        for name, lane_report in report.per_stream.items()
    }, fleet


class RecordingEngine(BatchedInference):
    """A windowed engine that records the stateful-protocol calls."""

    def __init__(self, model):
        super().__init__(model)
        self.resets = []
        self.update_keys = []

    def update(self, windows, keys, end_frames):
        self.update_keys.append(list(keys))
        return self.predict(windows)

    def reset(self, keys=None):
        self.resets.append(None if keys is None else list(keys))


class TestByteIdentity:
    def test_continual_fleet_byte_identical_to_windowed(self, setup):
        """The acceptance pin: horizon >= window, so zero carried state
        survives between ticks and the engines must not differ by a bit."""
        windowed, _ = fleet_reports(setup, "windowed")
        continual, _ = fleet_reports(setup, "continual")
        assert windowed == continual

    def test_continual_fleet_equals_sequential_continual(self, setup):
        spec, data, model, pipeline, lanes = setup
        fleet_result, _ = fleet_reports(setup, "continual")
        marshaller = make_marshaller(setup, "continual")
        for lane in lanes:
            service = CloudInferenceService(lane.stream)
            report = marshaller.run(
                lane.stream, lane.features, service, max_horizons=MAX_HORIZONS
            )
            want = json.dumps(
                report.to_dict(include_detections=True), sort_keys=True
            )
            assert fleet_result[lane.name] == want


class TestStateResetHooks:
    def test_run_start_resets_all_lanes(self, setup):
        spec, data, model, pipeline, lanes = setup
        marshaller = make_marshaller(setup)
        engine = RecordingEngine(model)
        marshaller.inference = engine
        lane = lanes[0]
        marshaller.run(
            lane.stream,
            lane.features,
            CloudInferenceService(lane.stream),
            max_horizons=1,
        )
        assert engine.resets[0] is None  # full reset before any tick
        assert engine.update_keys == [[lane.stream.name]]

    def test_voided_horizons_drop_lane_state(self, setup):
        # Heavy ingest corruption: the guard imputes, every dirty horizon
        # is guarantee-voided, and each voided horizon must drop the
        # lane's carried state before the engine sees the next window.
        spec, data, model, pipeline, lanes = setup
        marshaller = make_marshaller(setup)
        engine = RecordingEngine(model)
        marshaller.inference = engine
        lane = lanes[0]
        corrupted = IngestFaultInjector(
            IngestFaultPlan.uniform(0.3, seed=5)
        ).inject(lane.features)
        report = marshaller.run(
            lane.stream,
            corrupted,
            CloudInferenceService(lane.stream),
            max_horizons=MAX_HORIZONS,
            guard=StreamGuard(imputation="hold-last"),
        )
        assert report.guarantee_voided_frames > 0
        assert [lane.stream.name] in engine.resets

    def test_fleet_run_resets_and_keys_lanes_by_name(self, setup):
        spec, data, model, pipeline, lanes = setup
        marshaller = make_marshaller(setup)
        engine = RecordingEngine(model)
        marshaller.inference = engine
        fleet = FleetMarshaller(marshaller)
        fleet.run(
            lanes,
            FleetCIService([lane.stream for lane in lanes]),
            max_horizons=1,
        )
        assert engine.resets[0] is None
        assert engine.update_keys == [[lane.name for lane in lanes]]

    def test_continual_voided_run_matches_windowed(self, setup):
        # With resets firing on every voided horizon, a guarded corrupted
        # run through the continual engine still reproduces the windowed
        # engine's report byte for byte (all-warmup geometry).
        spec, data, model, pipeline, lanes = setup
        lane = lanes[0]
        corrupted = IngestFaultInjector(
            IngestFaultPlan.uniform(0.3, seed=5)
        ).inject(lane.features)
        results = {}
        for engine_name in ("windowed", "continual"):
            marshaller = make_marshaller(setup, engine_name)
            report = marshaller.run(
                lane.stream,
                corrupted,
                CloudInferenceService(lane.stream),
                max_horizons=MAX_HORIZONS,
                guard=StreamGuard(imputation="hold-last"),
            )
            results[engine_name] = json.dumps(
                report.to_dict(include_detections=True), sort_keys=True
            )
        assert results["windowed"] == results["continual"]


class TestHotSwapRebase:
    def test_rebind_preserves_engine_kind_across_swap(self, setup):
        # What the lifecycle controller does at swap time, distilled:
        # rebind must keep the deployment's engine choice while dropping
        # carried state (the post-swap warm-up rebase).
        spec, data, model, pipeline, lanes = setup
        marshaller = make_marshaller(setup, "continual")
        engine = marshaller.inference
        frames = np.random.default_rng(0).normal(
            size=(1, CONFIG.window_size, model.num_features)
        )
        engine.update(frames, ["lane0"], [CONFIG.window_size - 1])
        assert engine.has_state("lane0")
        marshaller.inference = marshaller.inference.rebind(model)
        swapped = marshaller.inference
        assert type(swapped) is ContinualInference
        assert not swapped.has_state("lane0")
