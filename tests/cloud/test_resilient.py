"""Tests for the resilient CI client: retries, backoff, circuit breaker."""

import numpy as np
import pytest

from repro import obs
from repro.cloud import (
    BreakerConfig,
    CIBreakerOpen,
    CircuitBreaker,
    CIThrottled,
    CITransientError,
    CloudInferenceService,
    FaultInjector,
    ResilientCIClient,
    RetryPolicy,
)
from repro.video.events import EventInstance, EventSchedule, EventType
from repro.video.stream import StreamSegment, VideoStream

ET = EventType("truck", duration_mean=20, duration_std=2)


def make_stream():
    sched = EventSchedule(
        1000, [EventInstance(100, 149, ET), EventInstance(600, 619, ET)]
    )
    return VideoStream(1000, sched, seed=0)


def make_client(plan=None, policy=None, breaker=None):
    service = CloudInferenceService(make_stream())
    wrapped = service if plan is None else FaultInjector(service, plan)
    return ResilientCIClient(wrapped, policy=policy, breaker=breaker)


class _FlakyService:
    """CloudInferenceService shape that fails a scripted number of times."""

    def __init__(self, failures_before_success, error_factory=None):
        self.inner = CloudInferenceService(make_stream())
        self.failures_left = failures_before_success
        self.error_factory = error_factory or (
            lambda: CITransientError("scripted failure")
        )

    @property
    def stream(self):
        return self.inner.stream

    @property
    def pricing(self):
        return self.inner.pricing

    @property
    def ledger(self):
        return self.inner.ledger

    @property
    def simulated_seconds(self):
        return self.inner.simulated_seconds

    def reset(self):
        self.inner.reset()

    def detect(self, segment, event_type):
        if self.failures_left > 0:
            self.failures_left -= 1
            raise self.error_factory()
        return self.inner.detect(segment, event_type)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_seconds=0)
        with pytest.raises(ValueError):
            RetryPolicy(retry_budget=-1)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0, jitter=0.0)
        rng = np.random.default_rng(0)
        delays = [policy.backoff_delay(a, rng) for a in (1, 2, 3, 4, 5)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_is_deterministic_and_downward(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5)
        a = policy.backoff_delay(1, np.random.default_rng(3))
        b = policy.backoff_delay(1, np.random.default_rng(3))
        assert a == b
        assert 0.5 <= a <= 1.0

    def test_dict_round_trip(self):
        policy = RetryPolicy(max_attempts=7, deadline_seconds=12.0, retry_budget=3)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(ValueError):
            RetryPolicy.from_dict({"nope": 1})


class TestBreakerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(half_open_probes=0)

    def test_dict_round_trip(self):
        config = BreakerConfig(failure_threshold=2, recovery_seconds=5.0)
        assert BreakerConfig.from_dict(config.to_dict()) == config


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=3))
        for t in range(2):
            breaker.record_failure(float(t))
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(2.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(2.5)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        breaker.record_failure(0.0)
        breaker.record_success(0.5)
        breaker.record_failure(1.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_then_close(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, recovery_seconds=10.0)
        )
        breaker.record_failure(0.0)
        assert not breaker.allow(5.0)
        assert breaker.allow(10.0)  # transitions to half-open
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success(10.5)
        assert breaker.state == CircuitBreaker.CLOSED
        assert [(a, b) for a, b, _ in breaker.transitions] == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, recovery_seconds=1.0)
        )
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        breaker.record_failure(1.5)
        assert breaker.state == CircuitBreaker.OPEN
        # recovery clock restarts from the re-open
        assert not breaker.allow(2.0)
        assert breaker.allow(2.5)

    def test_multiple_probes_required(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, recovery_seconds=1.0, half_open_probes=2)
        )
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        breaker.record_success(1.1)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success(1.2)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.open_count == 1


class TestResilientCIClient:
    def test_zero_faults_is_transparent(self):
        client = make_client()
        direct = CloudInferenceService(make_stream())
        seg = StreamSegment(90, 200)
        assert client.detect(seg, ET) == direct.detect(seg, ET)
        assert client.ledger.total_cost == direct.ledger.total_cost
        assert client.stats.retries == 0
        assert client.stats.successes == 1

    def test_retries_through_transient_failures(self):
        flaky = _FlakyService(failures_before_success=2)
        client = ResilientCIClient(flaky, RetryPolicy(max_attempts=4, base_delay=0.5))
        detections = client.detect(StreamSegment(90, 200), ET)
        assert len(detections) == 1
        assert client.stats.retries == 2
        assert client.stats.successes == 1
        assert client.stats.seconds_waited > 0
        assert client.simulated_seconds > flaky.simulated_seconds

    def test_exhausted_attempts_reraise_last_error(self):
        flaky = _FlakyService(failures_before_success=10)
        client = ResilientCIClient(flaky, RetryPolicy(max_attempts=3))
        with pytest.raises(CITransientError):
            client.detect(StreamSegment(0, 9), ET)
        assert client.stats.failures == 1
        assert client.stats.retries == 2

    def test_retry_budget_is_client_lifetime(self):
        flaky = _FlakyService(failures_before_success=10)
        client = ResilientCIClient(
            flaky, RetryPolicy(max_attempts=10, retry_budget=3)
        )
        with pytest.raises(CITransientError):
            client.detect(StreamSegment(0, 9), ET)
        assert client.stats.retries == 3
        assert client.stats.budget_exhausted == 1
        # budget spent: the next failing call gets no retries at all
        flaky.failures_left = 10
        with pytest.raises(CITransientError):
            client.detect(StreamSegment(0, 9), ET)
        assert client.stats.retries == 3

    def test_deadline_bounds_one_call(self):
        flaky = _FlakyService(failures_before_success=10)
        client = ResilientCIClient(
            flaky,
            RetryPolicy(
                max_attempts=100, base_delay=1.0, multiplier=1.0, jitter=0.0,
                deadline_seconds=3.5,
            ),
        )
        with pytest.raises(CITransientError):
            client.detect(StreamSegment(0, 9), ET)
        assert client.stats.deadline_exhausted == 1
        assert client.stats.retries == 3  # 3 x 1s fits in 3.5s, a 4th wouldn't

    def test_throttle_retry_after_extends_backoff(self):
        flaky = _FlakyService(
            failures_before_success=1,
            error_factory=lambda: CIThrottled("slow down", retry_after=9.0),
        )
        client = ResilientCIClient(
            flaky, RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0)
        )
        client.detect(StreamSegment(90, 200), ET)
        assert client.stats.seconds_waited == pytest.approx(9.0)

    def test_breaker_opens_and_rejects_fast(self):
        flaky = _FlakyService(failures_before_success=100)
        client = ResilientCIClient(
            flaky,
            RetryPolicy(max_attempts=1),
            BreakerConfig(failure_threshold=3, recovery_seconds=60.0),
        )
        for _ in range(3):
            with pytest.raises(CITransientError):
                client.detect(StreamSegment(0, 9), ET)
        assert client.breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CIBreakerOpen):
            client.detect(StreamSegment(0, 9), ET)
        assert client.stats.breaker_rejections == 1
        # the rejected call never reached the service
        assert flaky.failures_left == 97

    def test_breaker_recovers_after_clock_advance(self):
        flaky = _FlakyService(failures_before_success=3)
        client = ResilientCIClient(
            flaky,
            RetryPolicy(max_attempts=1),
            BreakerConfig(failure_threshold=3, recovery_seconds=60.0),
        )
        for _ in range(3):
            with pytest.raises(CITransientError):
                client.detect(StreamSegment(0, 9), ET)
        with pytest.raises(CIBreakerOpen):
            client.detect(StreamSegment(0, 9), ET)
        client.advance_clock(60.0)
        detections = client.detect(StreamSegment(90, 200), ET)  # half-open probe
        assert len(detections) == 1
        assert client.breaker.state == CircuitBreaker.CLOSED

    def test_reset_restores_everything(self):
        flaky = _FlakyService(failures_before_success=2)
        client = ResilientCIClient(flaky, RetryPolicy(max_attempts=4, retry_budget=5))
        client.detect(StreamSegment(90, 200), ET)
        client.reset()
        assert client.stats.calls == 0
        assert client.ledger.frames_processed == 0
        assert client.simulated_seconds == 0.0
        assert client.breaker.transitions == []

    def test_detect_many_delegates_per_segment(self):
        client = make_client()
        detections = client.detect_many(
            [StreamSegment(90, 200), StreamSegment(590, 640)], ET
        )
        assert len(detections) == 2
        assert client.stats.calls == 2

    def test_advance_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            make_client().advance_clock(-1.0)


class TestResilientObservability:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_retry_and_breaker_counters(self):
        obs.configure(enabled=True)
        flaky = _FlakyService(failures_before_success=100)
        client = ResilientCIClient(
            flaky,
            RetryPolicy(max_attempts=2),
            # each call makes 2 attempts, so the 4th attempt-failure (end
            # of the second call) opens the circuit
            BreakerConfig(failure_threshold=4, recovery_seconds=60.0),
        )
        for _ in range(2):
            with pytest.raises(CITransientError):
                client.detect(StreamSegment(0, 9), ET)
        with pytest.raises(CIBreakerOpen):
            client.detect(StreamSegment(0, 9), ET)
        counters = obs.get_registry().snapshot()["counters"]
        assert counters["ci.resilient.retries"] == client.stats.retries
        assert counters["ci.resilient.exhausted"] == 2
        assert counters["ci.breaker.opened"] == 1
        assert counters["ci.resilient.breaker_rejections"] == 1
        names = [r.name for r in obs.get_tracer().records]
        assert "ci.resilient.detect" in names
