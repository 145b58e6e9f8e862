"""Integration tests for fleet marshalling over one shared CI account.

The load-bearing test is the equivalence pin: under round-robin
scheduling, no budget, and fault-free infrastructure, the fleet's
per-stream reports must serialize **byte-identically** to N sequential
``StreamMarshaller.run`` calls over private services.
"""

import json

import pytest

from repro.cloud import (
    CloudInferenceService,
    FaultInjector,
    FaultPlan,
    ResilientCIClient,
    RetryPolicy,
    StreamMarshaller,
)
from repro.cloud.pricing import TieredPricing
from repro.core import BatchedInference, EventHit, EventHitConfig, train_eventhit
from repro.features import CovariatePipeline, FeatureExtractor, Standardizer
from repro.fleet import FleetCIService, FleetLane, FleetMarshaller, FleetScheduler
from repro.obs import configure, get_registry
from repro.video import make_stream, make_thumos
from repro.data import build_experiment_data

CONFIG = EventHitConfig(
    window_size=10,
    horizon=200,
    lstm_hidden=16,
    shared_hidden=(16,),
    head_hidden=(32,),
    dropout=0.0,
    learning_rate=5e-3,
    epochs=8,
    batch_size=32,
    seed=0,
)

NUM_LANES = 4
MAX_HORIZONS = 5


@pytest.fixture(scope="module")
def setup():
    spec = make_thumos(scale=0.06).with_events(["E7"])
    data = build_experiment_data(spec, seed=0, max_records=150, stride=15)
    model, _ = train_eventhit(data.train, config=CONFIG)
    pipeline = CovariatePipeline(spec.window_size, standardizer=data.standardizer)
    marshaller = StreamMarshaller(
        model, data.event_types, pipeline, tau1=0.5, tau2=0.5
    )
    extractor = FeatureExtractor()
    lanes = [FleetLane(stream=data.test_stream, features=data.test_features)]
    for i in range(1, NUM_LANES):
        stream = make_stream(spec, seed=900 + i, name=f"lane{i}")
        lanes.append(
            FleetLane(
                stream=stream, features=extractor.extract(stream, data.event_types)
            )
        )
    return spec, data, marshaller, lanes


def fresh_service(lanes):
    return FleetCIService([lane.stream for lane in lanes])


def run_sequential(marshaller, lanes, **kwargs):
    reports = {}
    for lane in lanes:
        service = CloudInferenceService(lane.stream)
        reports[lane.name] = marshaller.run(
            lane.stream, lane.features, service, **kwargs
        )
    return reports


class TestEquivalence:
    def test_reports_byte_identical_to_sequential(self, setup):
        """The acceptance pin: round-robin + no budget + zero faults."""
        spec, data, marshaller, lanes = setup
        fleet = FleetMarshaller(marshaller, scheduler="round-robin")
        fleet_report = fleet.run(
            lanes, fresh_service(lanes), max_horizons=MAX_HORIZONS
        )
        sequential = run_sequential(marshaller, lanes, max_horizons=MAX_HORIZONS)
        assert list(fleet_report.per_stream) == [lane.name for lane in lanes]
        for name, expected in sequential.items():
            got = fleet_report.per_stream[name].to_dict(include_detections=True)
            want = expected.to_dict(include_detections=True)
            assert json.dumps(got, sort_keys=True) == json.dumps(
                want, sort_keys=True
            ), f"lane {name} diverged from its sequential run"

    def test_equivalence_holds_under_tiered_pricing(self, setup):
        """Shadow-ledger attribution replays the lane-local tier walk."""
        spec, data, marshaller, lanes = setup
        pricing = TieredPricing(((0, 0.002), (500, 0.0005)))
        fleet = FleetMarshaller(marshaller, scheduler="round-robin")
        service = FleetCIService(
            [lane.stream for lane in lanes], pricing=pricing
        )
        fleet_report = fleet.run(lanes, service, max_horizons=MAX_HORIZONS)
        for lane in lanes:
            private = CloudInferenceService(lane.stream, pricing=pricing)
            expected = marshaller.run(
                lane.stream, lane.features, private, max_horizons=MAX_HORIZONS
            )
            assert (
                fleet_report.per_stream[lane.name].total_cost
                == expected.total_cost
            )
        # Pooled billing walks the tier schedule faster, so the shared
        # account charges no more than the sum of private accounts.
        assert fleet_report.shared_cost <= fleet_report.attributed_cost + 1e-9

    def test_fleet_rollup_merges_lanes(self, setup, monkeypatch):
        spec, data, marshaller, lanes = setup
        rows = []
        predict = BatchedInference.predict

        def counted(engine, windows):
            rows.append(len(windows))
            return predict(engine, windows)

        monkeypatch.setattr(BatchedInference, "predict", counted)
        fleet = FleetMarshaller(marshaller)
        report = fleet.run(lanes, fresh_service(lanes), max_horizons=3)
        # One stacked forward per tick over every lane.
        assert rows == [len(lanes)] * 3
        rollup = report.fleet
        assert rollup.horizons_evaluated == 3 * len(lanes)
        assert rollup.frames_relayed == sum(
            r.frames_relayed for r in report.per_stream.values()
        )
        assert report.max_batch_size == len(lanes)

    def test_cost_conservation_flat_pricing(self, setup):
        """Shared billing ≈ sum of attributed lane costs (flat pricing)."""
        spec, data, marshaller, lanes = setup
        fleet = FleetMarshaller(marshaller)
        report = fleet.run(lanes, fresh_service(lanes), max_horizons=MAX_HORIZONS)
        assert report.shared_cost == pytest.approx(report.attributed_cost)
        assert report.shared_frames == sum(
            r.frames_relayed for r in report.per_stream.values()
        )


class TestBudgetAndSchedulers:
    def test_budget_postpones_but_never_drops(self, setup):
        spec, data, marshaller, lanes = setup
        # Eager thresholds so several lanes relay every tick and the
        # budget actually bites.
        eager = StreamMarshaller(
            marshaller.model,
            marshaller.event_types,
            marshaller.pipeline,
            tau1=0.2,
            tau2=0.2,
        )
        unlimited = FleetMarshaller(eager).run(
            lanes, fresh_service(lanes), max_horizons=MAX_HORIZONS
        )
        budgeted = FleetMarshaller(eager, tick_budget_frames=150).run(
            lanes, fresh_service(lanes), max_horizons=MAX_HORIZONS
        )
        assert budgeted.relays_postponed > 0
        assert budgeted.ticks > unlimited.ticks  # drain ticks appended
        # Scheduling delays relays; it must not change what gets relayed.
        assert budgeted.relays_flushed == unlimited.relays_flushed
        assert (
            budgeted.fleet.frames_relayed == unlimited.fleet.frames_relayed
        )

    @pytest.mark.parametrize("scheduler", ["deadline", "cost-aware"])
    def test_alternative_schedulers_relay_same_work(self, setup, scheduler):
        spec, data, marshaller, lanes = setup
        baseline = FleetMarshaller(marshaller).run(
            lanes, fresh_service(lanes), max_horizons=MAX_HORIZONS
        )
        other = FleetMarshaller(
            marshaller, scheduler=scheduler, tick_budget_frames=200
        ).run(lanes, fresh_service(lanes), max_horizons=MAX_HORIZONS)
        assert other.scheduler == scheduler
        assert other.fleet.frames_relayed == baseline.fleet.frames_relayed
        assert other.fleet.detected_event_frames == (
            baseline.fleet.detected_event_frames
        )

    def test_single_lane_fleet_matches_sequential(self, setup):
        spec, data, marshaller, lanes = setup
        fleet = FleetMarshaller(marshaller)
        report = fleet.run(lanes[:1], fresh_service(lanes[:1]), max_horizons=4)
        expected = run_sequential(marshaller, lanes[:1], max_horizons=4)
        got = report.per_stream[lanes[0].name].to_dict()
        assert got == expected[lanes[0].name].to_dict()


class TestFaultHandling:
    def make_stack(self, lanes, rate, seed=5):
        service = fresh_service(lanes)
        injector = FaultInjector(service, FaultPlan(seed=seed).with_failure_rate(rate))
        return ResilientCIClient(injector, policy=RetryPolicy(max_attempts=2))

    def test_raise_policy_propagates(self, setup):
        spec, data, marshaller, lanes = setup
        client = self.make_stack(lanes, rate=0.8)
        fleet = FleetMarshaller(marshaller)
        from repro.cloud.faults import CIError

        with pytest.raises(CIError):
            fleet.run(lanes, client, max_horizons=MAX_HORIZONS)

    def test_skip_policy_charges_losses(self, setup):
        spec, data, marshaller, lanes = setup
        client = self.make_stack(lanes, rate=0.5)
        fleet = FleetMarshaller(marshaller)
        report = fleet.run(
            lanes, client, max_horizons=MAX_HORIZONS, failure_policy="skip"
        )
        rollup = report.fleet
        assert rollup.segments_failed > 0
        assert rollup.frames_lost > 0
        assert rollup.retries > 0

    def test_defer_policy_requeues_and_terminates(self, setup):
        spec, data, marshaller, lanes = setup
        client = self.make_stack(lanes, rate=0.5)
        fleet = FleetMarshaller(marshaller)
        report = fleet.run(
            lanes,
            client,
            max_horizons=MAX_HORIZONS,
            failure_policy="defer",
            max_deferrals=2,
        )
        rollup = report.fleet
        assert rollup.segments_deferred > 0
        # Every relay either landed, or was charged as lost after its
        # deferral budget — nothing silently vanishes.
        assert rollup.frames_relayed + rollup.frames_lost > 0


class TestObservability:
    def test_fleet_counters_recorded(self, setup):
        spec, data, marshaller, lanes = setup
        eager = StreamMarshaller(
            marshaller.model,
            marshaller.event_types,
            marshaller.pipeline,
            tau1=0.2,
            tau2=0.2,
        )
        configure(enabled=True)
        try:
            registry = get_registry()
            registry.reset()
            FleetMarshaller(eager, tick_budget_frames=150).run(
                lanes, fresh_service(lanes), max_horizons=3
            )
            snapshot = registry.snapshot()
            counters = snapshot["counters"]
            gauges = snapshot["gauges"]
            histograms = snapshot["histograms"]
            assert gauges["fleet.streams"]["value"] == len(lanes)
            assert counters["fleet.sched.flushed"] > 0
            assert counters["fleet.sched.postponed"] > 0
            assert histograms["fleet.batch_size"]["max"] == len(lanes)
        finally:
            configure(enabled=False)


class TestValidation:
    def test_plain_service_serves_its_one_lane(self, setup):
        # A plain CloudInferenceService is a one-stream account: bare or
        # under a fault/resilience wrapper stack, it serves a one-lane
        # fleet run exactly as a one-stream FleetCIService does.
        spec, data, marshaller, lanes = setup
        lane = lanes[0]
        reference = FleetMarshaller(marshaller).run(
            [lane], FleetCIService([lane.stream]), max_horizons=MAX_HORIZONS
        )
        want = json.dumps(reference.to_dict(include_detections=True))
        plain = CloudInferenceService(lane.stream)
        stack = ResilientCIClient(
            FaultInjector(CloudInferenceService(lane.stream), FaultPlan()),
            policy=RetryPolicy(max_attempts=1),
        )
        for service in (plain, stack):
            result = FleetMarshaller(marshaller).run(
                [lane], service, max_horizons=MAX_HORIZONS
            )
            assert json.dumps(result.to_dict(include_detections=True)) == want
        assert result.per_stream[lane.name].horizons_evaluated == MAX_HORIZONS
        assert plain.ledger.frames_processed == reference.shared_frames > 0

    def test_plain_service_rejects_another_stream(self, setup):
        spec, data, marshaller, lanes = setup
        plain = CloudInferenceService(lanes[0].stream)
        with pytest.raises(ValueError, match="not registered"):
            FleetMarshaller(marshaller).run(lanes[1:2], plain, max_horizons=1)
        with pytest.raises(ValueError, match="not registered"):
            plain.activate(lanes[1].stream)

    def test_plain_service_rejects_a_second_lane(self, setup):
        spec, data, marshaller, lanes = setup
        plain = CloudInferenceService(lanes[0].stream)
        with pytest.raises(ValueError, match="not registered"):
            FleetMarshaller(marshaller).run(lanes[:2], plain, max_horizons=1)
        assert plain.ledger.requests == 0

    def test_unregistered_lane_rejected(self, setup):
        spec, data, marshaller, lanes = setup
        service = fresh_service(lanes[:2])
        with pytest.raises(ValueError, match="not registered"):
            FleetMarshaller(marshaller).run(lanes[:3], service, max_horizons=1)

    def test_duplicate_stream_names_rejected(self, setup):
        spec, data, marshaller, lanes = setup
        with pytest.raises(ValueError, match="duplicate"):
            FleetCIService([lanes[0].stream, lanes[0].stream])

    def test_bad_budget_rejected(self, setup):
        spec, data, marshaller, lanes = setup
        with pytest.raises(ValueError, match="tick_budget_frames"):
            FleetMarshaller(marshaller, tick_budget_frames=0)

    def test_bad_failure_policy_rejected(self, setup):
        spec, data, marshaller, lanes = setup
        with pytest.raises(ValueError, match="failure_policy"):
            FleetMarshaller(marshaller).run(
                lanes, fresh_service(lanes), failure_policy="retry"
            )

    def test_activation_switches_ground_truth(self, setup):
        spec, data, marshaller, lanes = setup
        service = fresh_service(lanes)
        assert service.stream is lanes[0].stream
        service.activate(lanes[1].stream)
        assert service.stream is lanes[1].stream
        with pytest.raises(ValueError, match="not registered"):
            service.activate(make_stream(spec, seed=4242, name="stranger"))


class CountingStandardizer(Standardizer):
    """A :class:`Standardizer` that counts the rows it transforms."""

    rows = 0

    def transform(self, values):
        self.rows += values.shape[0]
        return super().transform(values)


class TestStandardizationWork:
    """Feature work per served window is M rows, however long the stream
    and however many lanes the fleet reads round-robin."""

    WIDE_LANES = 72
    HORIZONS = 2

    def wide_run(self, setup, scale):
        spec, data, marshaller, _ = setup
        counting = CountingStandardizer(
            mean=data.standardizer.mean, std=data.standardizer.std
        )
        pipeline = CovariatePipeline(spec.window_size, standardizer=counting)
        counted = StreamMarshaller(
            marshaller.model, data.event_types, pipeline, tau1=0.5, tau2=0.5
        )
        lane_spec = make_thumos(scale=scale).with_events(["E7"])
        extractor = FeatureExtractor()
        lanes = []
        for i in range(self.WIDE_LANES):
            stream = make_stream(lane_spec, seed=2000 + i, name=f"wide{i}")
            features = extractor.extract(stream, data.event_types)
            lanes.append(FleetLane(stream=stream, features=features))
        fleet = FleetMarshaller(counted, scheduler="round-robin")
        report = fleet.run(lanes, fresh_service(lanes), max_horizons=self.HORIZONS)
        rows = counting.rows
        repeat = fleet.run(lanes, fresh_service(lanes), max_horizons=self.HORIZONS)
        assert json.dumps(
            report.to_dict(include_detections=True), sort_keys=True
        ) == json.dumps(repeat.to_dict(include_detections=True), sort_keys=True)
        return rows, lanes[0].features.num_frames

    @pytest.mark.parametrize("scale", [0.03, 0.06])
    def test_rows_standardized_are_lane_horizons_times_window(self, setup, scale):
        spec = setup[0]
        rows, stream_frames = self.wide_run(setup, scale)
        assert stream_frames > spec.window_size
        assert rows == self.WIDE_LANES * self.HORIZONS * spec.window_size


class RecordingScheduler(FleetScheduler):
    """Keeps each tick's relay pool in the order the fleet built it."""

    name = "recording"

    def __init__(self):
        self.pools = []

    def order(self, requests, context):
        self.pools.append(list(requests))
        return list(requests)


class TestRelayPoolOrder:
    def test_fresh_requests_grouped_by_lane_then_event_then_run(self):
        # Three event heads, untrained weights, every pair kept and each
        # pair's scores cut into runs: the pool must list lane 0's
        # requests first, event by event, each event's runs in frame order.
        spec = make_thumos(scale=0.06)
        extractor = FeatureExtractor()
        lanes = []
        for i in range(3):
            stream = make_stream(spec, seed=3000 + i, name=f"order{i}")
            lanes.append(
                FleetLane(
                    stream=stream,
                    features=extractor.extract(stream, spec.event_types),
                )
            )
        model = EventHit(
            lanes[0].features.num_channels, len(spec.event_types), config=CONFIG
        )
        marshaller = StreamMarshaller(
            model,
            spec.event_types,
            CovariatePipeline(spec.window_size),
            tau1=0.0,
            tau2=0.5,
            segment_min_gap=1,
        )
        scheduler = RecordingScheduler()
        FleetMarshaller(marshaller, scheduler=scheduler).run(
            lanes, fresh_service(lanes), max_horizons=3
        )
        lane_index = {lane.name: i for i, lane in enumerate(lanes)}
        event_index = {event: k for k, event in enumerate(spec.event_types)}
        pairs, repeated = set(), False
        for pool in scheduler.pools:
            keys = [
                (lane_index[r.lane], event_index[r.event_type], r.segment.start)
                for r in pool
            ]
            assert keys == sorted(keys)
            pool_pairs = [key[:2] for key in keys]
            repeated |= len(set(pool_pairs)) < len(pool_pairs)
            pairs.update(pool_pairs)
        assert {lane for lane, _ in pairs} == {0, 1, 2}
        assert {event for _, event in pairs} == {0, 1, 2}
        assert repeated, "no (lane, event) pair relayed more than one run"
