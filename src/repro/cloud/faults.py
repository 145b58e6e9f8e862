"""Deterministic fault injection for the cloud inference path.

The paper's deployment story (Fig. 1, §VI.A) relays frame ranges to a
remote pay-per-frame CI service; a real deployment therefore lives with
timeouts, throttling, transient errors, hard outages, latency spikes, and
partial responses.  This module makes those failures *reproducible*: a
:class:`FaultInjector` wraps any ``CloudInferenceService``-shaped object
and, from a seeded RNG plus a declarative :class:`FaultPlan`, injects typed
:class:`CIError` failures on ``detect()`` with exact bookkeeping of whether
each failed call was billed (real pay-per-frame APIs bill timeouts; the
``bill_on_timeout`` knob models both contracts).

Everything is deterministic: one RNG draw per non-outage call, in call
order, so the same seed + plan + call sequence reproduces the same faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

from ..faults import FaultBooks, FaultPlanBase, draw_kind, even_rates
from ..obs import inc, log_debug
from ..video.events import EventType
from ..video.stream import StreamSegment
from .service import ServiceWrapper

__all__ = [
    "CIError",
    "CITimeout",
    "CIThrottled",
    "CITransientError",
    "CIOutage",
    "CIBreakerOpen",
    "FaultPlan",
    "FaultStats",
    "FaultInjector",
]


# ----------------------------------------------------------------------
# Fault taxonomy
# ----------------------------------------------------------------------
class CIError(RuntimeError):
    """Base class of every cloud-inference failure.

    ``billed`` records whether the failed call was charged to the ledger —
    the distinction a cost-aware retry policy must reason about.
    """

    def __init__(self, message: str, billed: bool = False):
        super().__init__(message)
        self.billed = billed


class CITimeout(CIError):
    """The CI did not answer within its deadline.

    Depending on the provider contract the frames may still be billed
    (``FaultPlan.bill_on_timeout``).
    """


class CIThrottled(CIError):
    """Rate-limited before processing; carries the provider's retry hint."""

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message, billed=False)
        self.retry_after = retry_after


class CITransientError(CIError):
    """A retryable 5xx-style failure; the request never processed."""


class CIOutage(CIError):
    """Hard downtime: the service is unreachable for a window of calls."""

    def __init__(self, message: str, window: Tuple[int, int]):
        super().__init__(message, billed=False)
        self.window = window


class CIBreakerOpen(CIError):
    """A resilient client refused the call because its circuit is open."""


#: Fault kinds in the order the injector's single RNG draw resolves them.
_FAULT_KINDS = ("timeout", "throttle", "transient", "partial", "latency_spike")
#: The kinds that raise; ``uniform``/``with_failure_rate`` rescale these.
_RAISING_KINDS = _FAULT_KINDS[:3]


# ----------------------------------------------------------------------
# Declarative plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan(FaultPlanBase):
    """Declarative description of the faults one injector produces.

    Rates are per-call probabilities resolved from a single uniform draw,
    so ``timeout_rate + throttle_rate + transient_rate + partial_rate +
    latency_spike_rate`` must not exceed 1.  ``outages`` are half-open
    ``[start, end)`` windows over the call index — hard downtime that
    fails deterministically without consuming an RNG draw.
    """

    KINDS = _FAULT_KINDS

    timeout_rate: float = 0.0
    throttle_rate: float = 0.0
    transient_rate: float = 0.0
    partial_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_seconds: float = 5.0
    retry_after_seconds: float = 1.0
    partial_fraction: float = 0.5
    outages: Tuple[Tuple[int, int], ...] = ()
    bill_on_timeout: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        self._check_rates(one_draw="fault")
        if not 0.0 < self.partial_fraction <= 1.0:
            raise ValueError("partial_fraction must be in (0, 1]")
        if self.latency_spike_seconds < 0:
            raise ValueError("latency_spike_seconds must be non-negative")
        if self.retry_after_seconds < 0:
            raise ValueError("retry_after_seconds must be non-negative")
        self._normalize_windows("outages", "outage")

    # ------------------------------------------------------------------
    @property
    def failure_rate(self) -> float:
        """Probability a call *raises* (timeouts + throttles + transients)."""
        return self.timeout_rate + self.throttle_rate + self.transient_rate

    @classmethod
    def uniform(cls, failure_rate: float, seed: int = 0, **overrides) -> "FaultPlan":
        """A plan spreading ``failure_rate`` evenly over the raising faults."""
        return cls(
            seed=seed,
            **even_rates(failure_rate, _RAISING_KINDS, "failure_rate"),
            **overrides,
        )

    def with_failure_rate(self, failure_rate: float) -> "FaultPlan":
        """This plan rescaled so its raising faults sum to ``failure_rate``."""
        return self._rescaled(failure_rate, _RAISING_KINDS, "failure_rate")


# ----------------------------------------------------------------------
# Bookkeeping
# ----------------------------------------------------------------------
@dataclass
class FaultStats(FaultBooks):
    """Exact books of what one injector did."""

    TOTAL = "failures"

    calls: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    outage_rejections: int = 0
    billed_failures: int = 0
    unbilled_failures: int = 0
    frames_billed_on_failure: int = 0
    partial_responses: int = 0
    detections_truncated: int = 0
    latency_spikes: int = 0
    spike_seconds: float = 0.0

    @property
    def failures(self) -> int:
        """Calls that raised (outages included)."""
        return self.billed_failures + self.unbilled_failures


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------
class FaultInjector(ServiceWrapper):
    """Wrap a ``CloudInferenceService``-shaped object with seeded faults.

    The wrapper mirrors the service interface (``detect`` / ``detect_many``
    / ``reset`` plus the ``stream`` / ``pricing`` / ``ledger`` /
    ``simulated_seconds`` attributes), so marshalling code cannot tell the
    difference — until a fault fires.
    """

    def __init__(self, service, plan: FaultPlan):
        super().__init__(service)
        self.plan = plan
        self.stats = FaultStats()
        self._rates = plan.rates()
        self._rng = np.random.default_rng(plan.seed)
        self._call_index = 0
        self._spike_seconds = 0.0

    # ------------------------------------------------------------------
    @property
    def simulated_seconds(self) -> float:
        """Inner processing time plus injected latency spikes."""
        return self.service.simulated_seconds + self._spike_seconds

    def reset(self) -> None:
        """Reset the inner service *and* replay the fault sequence."""
        self.service.reset()
        self.stats = FaultStats()
        self._rng = np.random.default_rng(self.plan.seed)
        self._call_index = 0
        self._spike_seconds = 0.0

    # ------------------------------------------------------------------
    def _raise(self, kind: str, exc: CIError) -> None:
        self.stats.record_fault(kind)
        if exc.billed:
            self.stats.billed_failures += 1
        else:
            self.stats.unbilled_failures += 1
        inc("ci.faults.injected")
        inc(f"ci.faults.{kind}")
        log_debug("ci.fault", kind=kind, billed=exc.billed, call=self._call_index)
        raise exc

    def detect(self, segment: StreamSegment, event_type: EventType) -> List:
        """Inner ``detect`` with at most one injected fault per call."""
        index = self._call_index
        self._call_index += 1
        self.stats.calls += 1

        for window in self.plan.outages:
            if window[0] <= index < window[1]:
                self.stats.outage_rejections += 1
                self._raise(
                    "outage",
                    CIOutage(
                        f"CI outage window [{window[0]}, {window[1]}) "
                        f"(call {index})",
                        window=window,
                    ),
                )

        kind = draw_kind(float(self._rng.random()), _FAULT_KINDS, self._rates)

        if kind == "timeout":
            billed = self.plan.bill_on_timeout
            if billed:
                # The provider processed (and billed) the frames; the
                # response just never arrived.
                self.service.detect(segment, event_type)
                self.stats.frames_billed_on_failure += segment.num_frames
            self._raise(
                "timeout", CITimeout(f"CI timeout on call {index}", billed=billed)
            )
        if kind == "throttle":
            self._raise(
                "throttle",
                CIThrottled(
                    f"CI throttled on call {index}",
                    retry_after=self.plan.retry_after_seconds,
                ),
            )
        if kind == "transient":
            self._raise(
                "transient", CITransientError(f"CI transient error on call {index}")
            )

        detections = self.service.detect(segment, event_type)
        if kind == "partial":
            # Full segment billed, results truncated to a prefix of it.
            keep = max(
                1, int(math.ceil(self.plan.partial_fraction * segment.num_frames))
            )
            prefix_end = segment.start + keep - 1
            truncated = []
            for det in detections:
                if det.start > prefix_end:
                    continue
                if det.end > prefix_end:
                    det = replace(det, end=prefix_end)
                truncated.append(det)
            self.stats.partial_responses += 1
            self.stats.detections_truncated += len(detections) - len(truncated)
            self.stats.record_fault("partial")
            inc("ci.faults.injected")
            inc("ci.faults.partial")
            log_debug(
                "ci.fault", kind="partial", call=index, prefix_end=prefix_end
            )
            return truncated
        if kind == "latency_spike":
            self.stats.latency_spikes += 1
            self.stats.spike_seconds += self.plan.latency_spike_seconds
            self._spike_seconds += self.plan.latency_spike_seconds
            self.stats.record_fault("latency_spike")
            inc("ci.faults.injected")
            inc("ci.faults.latency_spike")
            inc("ci.faults.spike_seconds", self.plan.latency_spike_seconds)
        return detections
