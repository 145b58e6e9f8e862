"""Resilient cloud-inference client: retries, backoff, circuit breaker.

:class:`ResilientCIClient` wraps any ``CloudInferenceService``-shaped
object (typically a :class:`~repro.cloud.faults.FaultInjector` in tests
and chaos sweeps, the raw service in production-shaped runs) and adds the
failure semantics a live deployment needs:

* capped exponential backoff with *deterministic* jitter (seeded RNG —
  never a real ``sleep``; waits advance a simulated clock);
* per-call deadlines and a client-lifetime retry budget;
* a circuit breaker (closed → open → half-open probing) whose state
  changes emit ``repro.obs`` counters and structured log events.

:class:`RetryPolicy` and :class:`BreakerConfig` are plain dataclasses with
``to_dict``/``from_dict`` so policies serialize into experiment configs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import inc, log_debug, log_info, set_gauge, span
from ..video.events import EventType
from ..video.stream import StreamSegment
from .faults import CIBreakerOpen, CIError, CIThrottled
from .service import ServiceWrapper

__all__ = [
    "RetryPolicy",
    "BreakerConfig",
    "CircuitBreaker",
    "ResilienceStats",
    "ResilientCIClient",
]


def _dataclass_from_dict(cls, data: Dict[str, object]):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**data)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``deadline_seconds`` bounds the *simulated* time one ``detect`` call may
    spend across attempts; ``retry_budget`` bounds total retries over the
    client's lifetime (``None`` = unlimited).  ``seed`` drives the jitter
    RNG so a policy replays identically.
    """

    max_attempts: int = 4
    base_delay: float = 0.1
    max_delay: float = 10.0
    multiplier: float = 2.0
    jitter: float = 0.1
    deadline_seconds: Optional[float] = None
    retry_budget: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive when set")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative when set")

    def backoff_delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered down."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter:
            raw *= 1.0 - self.jitter * float(rng.random())
        return raw

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RetryPolicy":
        return _dataclass_from_dict(cls, data)


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker tuning.

    After ``failure_threshold`` consecutive failures the breaker opens and
    rejects calls for ``recovery_seconds`` of simulated time, then lets
    probes through (half-open); ``half_open_probes`` consecutive probe
    successes close it again, one probe failure re-opens it.
    """

    failure_threshold: int = 5
    recovery_seconds: float = 30.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.recovery_seconds < 0:
            raise ValueError("recovery_seconds must be non-negative")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BreakerConfig":
        return _dataclass_from_dict(cls, data)


class CircuitBreaker:
    """Closed → open → half-open state machine over a simulated clock.

    Every transition is recorded in ``transitions`` as
    ``(from_state, to_state, at_seconds)`` and mirrored into ``repro.obs``
    (``ci.breaker.opened`` / ``.half_opened`` / ``.closed`` counters), so a
    chaos run's breaker history is fully auditable and reproducible.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, config: Optional[BreakerConfig] = None):
        self.config = config or BreakerConfig()
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self._probe_successes = 0
        self.transitions: List[Tuple[str, str, float]] = []

    _TRANSITION_COUNTERS = {
        OPEN: "ci.breaker.opened",
        HALF_OPEN: "ci.breaker.half_opened",
        CLOSED: "ci.breaker.closed",
    }

    #: Numeric encoding of ``state`` for the ``ci.breaker.state_code``
    #: gauge (time-series stores need numbers; ordered by severity).
    STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

    def _transition(self, to_state: str, now: float) -> None:
        from_state = self.state
        self.state = to_state
        self.transitions.append((from_state, to_state, now))
        inc(self._TRANSITION_COUNTERS[to_state])
        set_gauge("ci.breaker.state_code", self.STATE_CODES[to_state])
        log_info(
            "ci.breaker.transition", from_state=from_state, to_state=to_state,
            at=now,
        )

    # ------------------------------------------------------------------
    @property
    def open_count(self) -> int:
        return sum(1 for _, to, _ in self.transitions if to == self.OPEN)

    def allow(self, now: float) -> bool:
        """Whether a call may proceed at simulated time ``now``.

        An open breaker whose recovery window has elapsed transitions to
        half-open as a side effect and lets the probe through.
        """
        if self.state == self.OPEN:
            assert self.opened_at is not None
            if now - self.opened_at >= self.config.recovery_seconds:
                self._probe_successes = 0
                self._transition(self.HALF_OPEN, now)
                return True
            return False
        return True

    def record_success(self, now: float) -> None:
        if self.state == self.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.config.half_open_probes:
                self.consecutive_failures = 0
                self._transition(self.CLOSED, now)
        else:
            self.consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        if self.state == self.HALF_OPEN:
            self.opened_at = now
            self._transition(self.OPEN, now)
            return
        self.consecutive_failures += 1
        if (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self.opened_at = now
            self._transition(self.OPEN, now)

    def reset(self) -> None:
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = None
        self._probe_successes = 0
        self.transitions = []


@dataclass
class ResilienceStats:
    """Books of one resilient client."""

    calls: int = 0
    successes: int = 0
    failures: int = 0
    retries: int = 0
    attempts: int = 0
    breaker_rejections: int = 0
    budget_exhausted: int = 0
    deadline_exhausted: int = 0
    seconds_waited: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class ResilientCIClient(ServiceWrapper):
    """Retry/backoff/breaker wrapper with the service's duck type.

    The client is itself ``CloudInferenceService``-shaped, so it can stand
    wherever a service does — including inside ``StreamMarshaller.run``.
    Backoff waits advance a simulated clock (``seconds_waited``); combined
    with the wrapped service's ``simulated_seconds`` they drive breaker
    recovery timing, so runs are fully deterministic.
    """

    def __init__(
        self,
        service,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
    ):
        super().__init__(service)
        self.policy = policy or RetryPolicy()
        self.breaker = CircuitBreaker(breaker)
        self.stats = ResilienceStats()
        self._rng = np.random.default_rng(self.policy.seed)
        self._waited = 0.0
        self._budget_left = self.policy.retry_budget

    # ------------------------------------------------------------------
    @property
    def simulated_seconds(self) -> float:
        """Inner simulated time plus backoff waits."""
        return self.service.simulated_seconds + self._waited

    @property
    def retry_budget_remaining(self) -> Optional[int]:
        """Retries left in the lifetime budget (``None`` = unlimited)."""
        return self._budget_left

    def _now(self) -> float:
        return self.service.simulated_seconds + self._waited

    def advance_clock(self, seconds: float) -> None:
        """Advance the simulated clock by stream time passing outside calls.

        The marshalling loop calls this once per horizon (horizon/fps
        seconds): it is what lets an *open* breaker reach its recovery
        window when every call is being rejected — otherwise simulated
        time would freeze and the circuit could never half-open.
        """
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self._waited += seconds

    def reset(self) -> None:
        self.service.reset()
        self.breaker.reset()
        self.stats = ResilienceStats()
        self._rng = np.random.default_rng(self.policy.seed)
        self._waited = 0.0
        self._budget_left = self.policy.retry_budget

    # ------------------------------------------------------------------
    def detect(self, segment: StreamSegment, event_type: EventType) -> List:
        """``detect`` with retries, backoff, deadline, budget, and breaker.

        Raises :class:`CIBreakerOpen` without touching the service while
        the circuit is open; otherwise re-raises the last :class:`CIError`
        once attempts, budget, or deadline are exhausted.
        """
        self.stats.calls += 1
        attempt = 0
        started = self._now()
        with span("ci.resilient.detect", frames=segment.num_frames):
            while True:
                if not self.breaker.allow(self._now()):
                    self.stats.breaker_rejections += 1
                    inc("ci.resilient.breaker_rejections")
                    raise CIBreakerOpen(
                        f"circuit open; call rejected at t={self._now():.3f}s"
                    )
                attempt += 1
                self.stats.attempts += 1
                try:
                    detections = self.service.detect(segment, event_type)
                except CIError as exc:
                    self.breaker.record_failure(self._now())
                    inc("ci.resilient.attempt_failures")
                    if not self._schedule_retry(attempt, started, exc):
                        self.stats.failures += 1
                        inc("ci.resilient.exhausted")
                        raise
                else:
                    self.breaker.record_success(self._now())
                    self.stats.successes += 1
                    return detections

    def _schedule_retry(self, attempt: int, started: float, exc: CIError) -> bool:
        """Consume budget and wait out the backoff; False = give up."""
        if attempt >= self.policy.max_attempts:
            return False
        if self._budget_left is not None and self._budget_left <= 0:
            self.stats.budget_exhausted += 1
            inc("ci.resilient.budget_exhausted")
            return False
        delay = self.policy.backoff_delay(attempt, self._rng)
        if isinstance(exc, CIThrottled):
            delay = max(delay, exc.retry_after)
        deadline = self.policy.deadline_seconds
        if deadline is not None and (self._now() + delay - started) > deadline:
            self.stats.deadline_exhausted += 1
            inc("ci.resilient.deadline_exhausted")
            return False
        self._waited += delay
        self.stats.seconds_waited += delay
        if self._budget_left is not None:
            self._budget_left -= 1
            set_gauge("ci.resilient.budget_remaining", self._budget_left)
        self.stats.retries += 1
        inc("ci.resilient.retries")
        inc("ci.resilient.backoff_seconds", delay)
        log_debug(
            "ci.retry",
            attempt=attempt,
            delay=delay,
            error=type(exc).__name__,
        )
        return True
