"""The one wrapper base and the one stack resolver in ``repro.cloud.service``."""

import pytest

from repro.cloud import (
    CloudInferenceService,
    FaultInjector,
    FaultPlan,
    ResilientCIClient,
    RetryPolicy,
)
from repro.cloud.faults import CITransientError
from repro.cloud.service import ServiceStack, ServiceWrapper
from repro.fleet import FleetCIService
from repro.video.events import EventInstance, EventSchedule, EventType
from repro.video.stream import StreamSegment, VideoStream

ET = EventType("truck", duration_mean=20, duration_std=2)
OVERLAPPING = [StreamSegment(0, 99), StreamSegment(50, 149)]


def make_stream():
    sched = EventSchedule(
        1000, [EventInstance(100, 149, ET), EventInstance(600, 619, ET)]
    )
    return VideoStream(1000, sched, seed=0)


class Forward:
    """Forward every attribute read to ``target``."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, attr):
        return getattr(self._target, attr)


WRAPPERS = {
    "fault": lambda s: FaultInjector(s, FaultPlan(seed=0)),
    "resilient": lambda s: ResilientCIClient(s),
    "resilient-fault": lambda s: ResilientCIClient(
        FaultInjector(s, FaultPlan(seed=0))
    ),
}


class TestWrapperBilling:
    @pytest.mark.parametrize("name", sorted(WRAPPERS))
    def test_overlapping_batch_billed_like_bare_service(self, name):
        bare = CloudInferenceService(make_stream())
        expected = bare.detect_many(OVERLAPPING, ET)
        wrapped = WRAPPERS[name](CloudInferenceService(make_stream()))
        assert wrapped.detect_many(OVERLAPPING, ET) == expected
        assert wrapped.ledger.frames_processed == 150
        assert wrapped.ledger.requests == 1
        assert wrapped.ledger.total_cost == pytest.approx(bare.ledger.total_cost)

    def test_wrappers_share_the_service_detect_many(self):
        for cls in (FaultInjector, ResilientCIClient):
            assert issubclass(cls, ServiceWrapper)
            assert cls.detect_many is CloudInferenceService.detect_many
            for attr in ("stream", "pricing", "ledger", "detect_many"):
                assert attr not in vars(cls), f"{cls.__name__}.{attr}"

    def test_service_link_is_writable(self):
        service = CloudInferenceService(make_stream())
        injector = FaultInjector(CloudInferenceService(make_stream()), FaultPlan())
        injector.service = Forward(service)
        injector.detect(StreamSegment(0, 9), ET)
        assert injector.ledger is service.ledger
        assert service.ledger.frames_processed == 10


class TestServiceStackResolve:
    def test_plain_service(self):
        service = CloudInferenceService(make_stream())
        stack = ServiceStack.resolve(service)
        assert stack.top is service and stack.account is service
        assert stack.resilient is None and stack.breaker is None
        assert stack.retries == 0
        stack.advance_clock(5.0)  # no clock to move: a no-op
        assert service.simulated_seconds == 0.0

    def test_resilient_over_fault_over_fleet(self):
        fleet = FleetCIService([make_stream()])
        client = ResilientCIClient(FaultInjector(fleet, FaultPlan(seed=0)))
        stack = ServiceStack.resolve(client)
        assert stack.top is client
        assert stack.account is fleet
        assert stack.resilient is client
        assert stack.breaker is client.breaker
        stack.advance_clock(2.5)
        assert client.simulated_seconds == pytest.approx(2.5)

    def test_fault_over_fleet_has_no_resilient_node(self):
        fleet = FleetCIService([make_stream()])
        injector = FaultInjector(fleet, FaultPlan(seed=0))
        stack = ServiceStack.resolve(injector)
        assert stack.account is fleet and stack.resilient is None

    def test_stack_without_activate_raises_type_error(self):
        class Headless:
            service = None

        with pytest.raises(TypeError, match="no activate"):
            ServiceStack.resolve(ResilientCIClient(Headless()))

    def test_resolves_through_forwarding_proxies(self):
        fleet = FleetCIService([make_stream()])
        injector = FaultInjector(fleet, FaultPlan(seed=0))
        injector.service = Forward(fleet)
        top = Forward(ResilientCIClient(injector))
        stack = ServiceStack.resolve(top)
        assert stack.top is top
        assert stack.resilient is top
        assert stack.account is injector.service

    def test_retries_read_live_across_reset(self):
        client = ResilientCIClient(
            FaultInjector(
                CloudInferenceService(make_stream()),
                FaultPlan(seed=0, transient_rate=1.0),
            ),
            policy=RetryPolicy(max_attempts=3),
        )
        stack = ServiceStack.resolve(client)
        with pytest.raises(CITransientError):
            client.detect(StreamSegment(0, 9), ET)
        assert stack.retries == 2
        client.reset()  # replaces the stats object
        assert stack.retries == 0
