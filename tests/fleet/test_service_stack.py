"""The fleet resolves its CI wrapper stack by attribute, not by class.

A benchmark tracer (or any instrumentation) may stand a forwarding proxy
in for the top of the stack, or swap a wrapper's ``.service`` link for
one.  Neither proxy is an instance of a wrapper class, so a run over the
proxied stack must still find the account, the retry clock and the
breaker, and produce byte-identical reports and flight rows.
"""

import json

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
from repro.fleet import FleetCIService, FleetLane, FleetMarshaller
from repro.obs.flight import FLEET_LANE, FlightRecorder
from repro.video import make_stream, make_thumos

CONFIG = EventHitConfig(
    window_size=10,
    horizon=200,
    lstm_hidden=16,
    shared_hidden=(16,),
    head_hidden=(32,),
    dropout=0.0,
    learning_rate=5e-3,
    epochs=6,
    batch_size=32,
    seed=0,
)


class Forward:
    """Forward every attribute read to ``target``."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, attr):
        return getattr(self._target, attr)


@pytest.fixture(scope="module")
def setup():
    spec = make_thumos(scale=0.06).with_events(["E7"])
    data = build_experiment_data(spec, seed=0, max_records=150, stride=15)
    model, _ = train_eventhit(data.train, config=CONFIG)
    pipeline = CovariatePipeline(spec.window_size, standardizer=data.standardizer)
    marshaller = StreamMarshaller(
        model, data.event_types, pipeline, tau1=0.3, tau2=0.3
    )
    extractor = FeatureExtractor()
    lanes = [FleetLane(stream=data.test_stream, features=data.test_features)]
    for i in (1, 2):
        stream = make_stream(spec, seed=900 + i, name=f"lane{i}")
        lanes.append(
            FleetLane(
                stream=stream, features=extractor.extract(stream, data.event_types)
            )
        )
    return marshaller, lanes


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def chaos_run(marshaller, lanes, proxied):
    obs.configure(enabled=True)
    obs.get_registry().reset()
    recorder = FlightRecorder()
    obs.set_flight_recorder(recorder)
    injector = FaultInjector(
        FleetCIService([lane.stream for lane in lanes]),
        FaultPlan(seed=5).with_failure_rate(0.8),
    )
    service = ResilientCIClient(
        injector,
        policy=RetryPolicy(max_attempts=2, seed=5),
        breaker=BreakerConfig(failure_threshold=2, recovery_seconds=5.0),
    )
    if proxied:
        injector.service = Forward(injector.service)
        service = Forward(service)
    report = FleetMarshaller(marshaller).run(
        lanes, service, max_horizons=4, failure_policy="defer"
    )
    return report, recorder


def test_proxied_stack_runs_byte_identical(setup):
    marshaller, lanes = setup
    plain, plain_flight = chaos_run(marshaller, lanes, proxied=False)
    proxied, proxied_flight = chaos_run(marshaller, lanes, proxied=True)

    def dump(report):
        return json.dumps(report.to_dict(include_detections=True), sort_keys=True)

    assert dump(proxied) == dump(plain)
    assert proxied_flight.to_json() == plain_flight.to_json()
    # The resilient node was found through the proxy: its retries reached
    # the report and its breaker state reached every fleet flight row.
    assert proxied.fleet.retries > 0
    rows = proxied_flight.snapshot()[FLEET_LANE]
    assert rows and all(
        row["breaker"] in ("closed", "half_open", "open") for row in rows
    )
