"""Fleet telemetry layer: gauges, time series, SLO timeline, flight dumps.

Two load-bearing pins:

* **telemetry-off equivalence** — enabling the telemetry layer must not
  perturb a single decision: per-stream reports from a telemetry-on run
  serialize byte-identically to a telemetry-off run of the same fleet.
* **chaos determinism** — a seeded fault-injected run produces a
  byte-for-byte reproducible SLO alert timeline and flight-recorder
  dump (everything is keyed to tick indices and simulated values; wall
  clock only feeds the live latency SLO, never these artifacts).
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.cloud import (
    BreakerConfig,
    FaultInjector,
    FaultPlan,
    ResilientCIClient,
    RetryPolicy,
    StreamMarshaller,
)
from repro.core import EventHitConfig, train_eventhit
from repro.data import build_experiment_data
from repro.features import CovariatePipeline, FeatureExtractor
from repro.features.extractors import FeatureMatrix
from repro.fleet import FleetCIService, FleetLane, FleetMarshaller
from repro.ingest import StreamGuard
from repro.obs.flight import FLEET_LANE, FlightRecorder
from repro.obs.slo import SLOSpec
from repro.obs.timeseries import TimeSeriesStore
from repro.video import make_stream, make_thumos

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

NUM_LANES = 3
MAX_HORIZONS = 4


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


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def fresh_service(lanes):
    return FleetCIService([lane.stream for lane in lanes])


def enable_telemetry(capacity=512):
    obs.configure(enabled=True)
    obs.get_registry().reset()
    store = TimeSeriesStore(capacity=capacity)
    obs.set_timeseries(store)
    recorder = FlightRecorder()
    obs.set_flight_recorder(recorder)
    return store, recorder


def reports_json(report):
    return json.dumps(
        {
            name: r.to_dict(include_detections=True)
            for name, r in report.per_stream.items()
        },
        sort_keys=True,
    )


#: Alerting specs over deterministic series only (no wall-clock input),
#: tight enough that a rate-0.5 skip-policy chaos run trips them.
CHAOS_SPECS = (
    SLOSpec(name="frames-lost", series="fleet.frames_lost_ratio",
            objective="ceiling", target=0.0, budget=0.25,
            long_window=4, short_window=1, warn_burn=1.0, page_burn=2.0),
    SLOSpec(name="recall-floor", series="fleet.recall_cum",
            objective="floor", target=0.99, budget=0.5,
            long_window=4, short_window=2),
)


def chaos_run(marshaller, lanes, rate=0.8, seed=5):
    """One seeded fault-injected fleet run with full telemetry installed."""
    store, recorder = enable_telemetry()
    board = obs.set_slo_specs(CHAOS_SPECS)
    injector = FaultInjector(
        fresh_service(lanes), FaultPlan(seed=seed).with_failure_rate(rate)
    )
    client = ResilientCIClient(
        injector,
        policy=RetryPolicy(max_attempts=2),
        breaker=BreakerConfig(failure_threshold=2, recovery_seconds=5.0),
    )
    report = FleetMarshaller(marshaller).run(
        lanes, client, max_horizons=MAX_HORIZONS, failure_policy="skip"
    )
    return report, store, recorder, board


class TestTelemetryOffEquivalence:
    def test_reports_byte_identical_with_and_without_telemetry(self, setup):
        spec, data, marshaller, lanes = setup
        assert not obs.is_enabled()
        baseline = FleetMarshaller(marshaller, scheduler="round-robin").run(
            lanes, fresh_service(lanes), max_horizons=MAX_HORIZONS
        )
        enable_telemetry()
        instrumented = FleetMarshaller(marshaller, scheduler="round-robin").run(
            lanes, fresh_service(lanes), max_horizons=MAX_HORIZONS
        )
        assert reports_json(instrumented) == reports_json(baseline)

    def test_disabled_run_leaves_stores_empty(self, setup):
        spec, data, marshaller, lanes = setup
        FleetMarshaller(marshaller).run(
            lanes, fresh_service(lanes), max_horizons=2
        )
        assert obs.get_timeseries().num_samples == 0
        assert obs.get_flight_recorder().lanes() == []


class TestBackpressureTelemetry:
    def test_gauges_and_per_tick_samples(self, setup):
        spec, data, marshaller, lanes = setup
        store, recorder = enable_telemetry()
        eager = StreamMarshaller(
            marshaller.model, marshaller.event_types, marshaller.pipeline,
            tau1=0.2, tau2=0.2,
        )
        report = FleetMarshaller(eager, tick_budget_frames=150).run(
            lanes, fresh_service(lanes), max_horizons=3
        )
        gauges = obs.get_registry().snapshot()["gauges"]
        for name in (
            "fleet.backlog.segments",
            "fleet.backlog.frames",
            "fleet.budget.utilization",
            "fleet.lanes_quarantined",
            "fleet.recall_cum",
            "fleet.frames_lost_ratio",
            "fleet.tick_cost",
            "fleet.cost_cum",
        ):
            assert name in gauges, f"missing gauge {name}"
        # budget bites on this run, so the backlog and utilization moved
        assert gauges["fleet.budget.utilization"]["max"] > 0
        assert store.total("fleet.sched.postponed") > 0
        # one time-series row per tick, tick ids 0..ticks-1
        assert store.num_samples == report.ticks
        assert store.ticks().tolist() == list(range(report.ticks))
        # cumulative cost series is monotone and ends at the shared cost
        cost = store.values("fleet.cost_cum")
        assert np.all(np.diff(cost) >= -1e-9)
        assert cost[-1] == pytest.approx(report.shared_cost)

    def test_flight_recorder_covers_every_lane_and_fleet(self, setup):
        spec, data, marshaller, lanes = setup
        store, recorder = enable_telemetry()
        report = FleetMarshaller(marshaller).run(
            lanes, fresh_service(lanes), max_horizons=2
        )
        recorded = set(recorder.lanes())
        assert {lane.name for lane in lanes} <= recorded
        assert FLEET_LANE in recorded
        fleet_entries = recorder.snapshot()[FLEET_LANE]
        assert len(fleet_entries) == report.ticks
        assert {"tick", "backlog_segments", "backlog_frames", "flushed",
                "postponed", "budget_spent", "breaker"} <= set(fleet_entries[0])
        lane_entries = recorder.snapshot()[lanes[0].name]
        assert {"tick", "frame", "horizons", "requests", "deferred",
                "failed", "health", "cost"} <= set(lane_entries[0])

    def test_resilient_stack_surfaces_breaker_state(self, setup):
        spec, data, marshaller, lanes = setup
        report, store, recorder, board = chaos_run(marshaller, lanes)
        entries = recorder.snapshot()[FLEET_LANE]
        assert all(e["breaker"] in ("closed", "half_open", "open")
                   for e in entries)
        gauges = obs.get_registry().snapshot()["gauges"]
        # threshold 2 at rate 0.8: the breaker tripped at least once, so
        # its transition hook published the state-code gauge
        assert "ci.breaker.state_code" in gauges
        assert any(d["reason"] == "circuit-open" for d in recorder.dumps)


class TestChaosDeterminism:
    def test_slo_timeline_and_flight_dump_pinned(self, setup):
        """Byte-for-byte reproducibility of the chaos artifacts."""
        spec, data, marshaller, lanes = setup
        report1, store1, rec1, board1 = chaos_run(marshaller, lanes)
        timeline1 = json.dumps(board1.timeline(), sort_keys=True)
        flight1 = rec1.to_json()

        report2, store2, rec2, board2 = chaos_run(marshaller, lanes)
        timeline2 = json.dumps(board2.timeline(), sort_keys=True)
        flight2 = rec2.to_json()

        assert timeline1 == timeline2
        assert flight1 == flight2
        # the run actually alerted and actually dumped — the pin is not
        # vacuously comparing empty artifacts
        assert board1.timeline(), "chaos run produced no SLO alerts"
        assert rec1.dumps_total > 0, "chaos run produced no flight dumps"
        assert any(d["reason"] == "failure-policy" for d in rec1.dumps)

    def test_deterministic_series_match_across_runs(self, setup):
        spec, data, marshaller, lanes = setup
        _, store1, _, _ = chaos_run(marshaller, lanes)
        _, store2, _, _ = chaos_run(marshaller, lanes)
        for name in ("fleet.frames_lost_ratio", "fleet.recall_cum",
                     "fleet.cost_cum", "fleet.sched.flushed"):
            a, b = store1.values(name), store2.values(name)
            assert np.array_equal(a, b, equal_nan=True), f"{name} diverged"


class TestQuarantineDump:
    def test_quarantined_lane_triggers_auto_dump(self, setup):
        spec, data, marshaller, lanes = setup
        store, recorder = enable_telemetry()
        # Poison every frame of one lane: the guard quarantines it
        # immediately and it stays quarantined for the whole run.
        sick = lanes[1]
        values = sick.features.values.copy()
        values[:] = np.nan
        poisoned = FleetLane(
            stream=sick.stream,
            features=FeatureMatrix(values, list(sick.features.channel_names)),
        )
        mixed = [lanes[0], poisoned, lanes[2]]
        report = FleetMarshaller(marshaller).run(
            mixed,
            fresh_service(mixed),
            max_horizons=2,
            guard=StreamGuard(quarantine_policy="relay-all"),
        )
        dumps = recorder.dumps
        assert any(
            d["reason"] == "quarantine" and d["lane"] == poisoned.name
            for d in dumps
        )
        gauges = obs.get_registry().snapshot()["gauges"]
        assert gauges["fleet.lanes_quarantined"]["max"] >= 1
        # healthy lanes keep reporting normally
        assert report.per_stream[lanes[0].name].horizons_evaluated == 2


def horizon_truth(lane, start, frame, marshaller):
    """Ground-truth frames of ``lane`` over ``(start, frame]``, summed one
    horizon at a time the way a per-horizon loop would count them."""
    total = 0
    for first in range(start, frame, marshaller.horizon):
        for event_type in marshaller.event_types:
            total += lane.stream.schedule.frames_in(
                event_type, first + 1, first + marshaller.horizon
            )
    return total


def event_start_frame(marshaller, lane):
    """A start frame on which ``lane``'s first event instance begins that
    leaves room for MAX_HORIZONS horizons: a settlement that also counted
    its range's first frame (the decision frame) would over-count."""
    lo = marshaller.pipeline.min_frame()
    hi = lane.stream.length - MAX_HORIZONS * marshaller.horizon - 1
    starts = [
        inst.start
        for event_type in marshaller.event_types
        for inst in lane.stream.schedule.instances_of(event_type)
        if lo <= inst.start <= hi
    ]
    assert starts, "no event instance starts inside the runnable range"
    return min(starts)


class TestTruthSettlement:
    """Truth is settled per lane span, yet reads as if counted per horizon."""

    def test_sampled_truth_is_settled_to_every_cursor(self, setup, monkeypatch):
        spec, data, marshaller, lanes = setup
        store, _ = enable_telemetry()
        start = event_start_frame(marshaller, lanes[0])
        sampled = []
        tick_telemetry = FleetMarshaller._tick_telemetry

        def sample(self, states, *args):
            sampled.append([
                (s.report.true_event_frames,
                 horizon_truth(s.lane, start, s.frame, marshaller))
                for s in states
            ])
            return tick_telemetry(self, states, *args)

        monkeypatch.setattr(FleetMarshaller, "_tick_telemetry", sample)
        report = FleetMarshaller(marshaller).run(
            lanes, fresh_service(lanes), start_frame=start,
            max_horizons=MAX_HORIZONS,
        )
        assert len(sampled) == report.ticks == MAX_HORIZONS
        for row in sampled:
            assert [got for got, _ in row] == [want for _, want in row]
        assert sum(want for _, want in sampled[-1]) > 0
        # The recall series reads the settled totals.
        true_frames = sum(got for got, _ in sampled[-1])
        detected = sum(r.detected_event_frames for r in report.per_stream.values())
        assert store.values("fleet.recall_cum")[-1] == detected / true_frames

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_report_truth_equals_per_horizon_sum_on_every_path(
        self, setup, telemetry
    ):
        spec, data, marshaller, lanes = setup
        if telemetry:
            enable_telemetry()
        # A served lane, a quarantined lane under "skip" and a shed lane.
        sick = lanes[1]
        values = sick.features.values.copy()
        values[:] = np.nan
        poisoned = FleetLane(
            stream=sick.stream,
            features=FeatureMatrix(values, list(sick.features.channel_names)),
        )
        mixed = [lanes[0], poisoned, lanes[2]]
        start = event_start_frame(marshaller, lanes[0])
        probed = []
        report = FleetMarshaller(marshaller).run(
            mixed,
            fresh_service(mixed),
            start_frame=start,
            max_horizons=MAX_HORIZONS,
            guard=StreamGuard(quarantine_policy="skip"),
            lane_modes={lanes[2].name: "relay-all"},
            probe=lambda tick, states, rep, service: probed.append(
                [s.report.true_event_frames for s in states]
            ),
        )
        for i, lane in enumerate(mixed):
            rep = report.per_stream[lane.name]
            assert rep.horizons_evaluated == MAX_HORIZONS
            end = start + MAX_HORIZONS * marshaller.horizon
            assert rep.true_event_frames == horizon_truth(lane, start, end, marshaller)
            # The probe sees each tick's totals settled.
            assert [row[i] for row in probed] == [
                horizon_truth(lane, start, start + (t + 1) * marshaller.horizon,
                              marshaller)
                for t in range(MAX_HORIZONS)
            ]
        assert report.per_stream[poisoned.name].quarantined_frames > 0
        assert report.per_stream[lanes[2].name].frames_relayed > 0
