"""Simulated cloud inference service (the CI of Fig. 1).

The paper assumes the CI hosts "the latest and most advanced models" and is
*accurate* for the events of interest (§VI.A); what the framework optimises
is how many frames reach it.  Accordingly the simulated service answers
detection queries from the ground-truth schedule, while keeping the books
that the paper's evaluation needs: frames processed, per-request billing,
and simulated processing time (via the timing model's CI rate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..obs import inc, observe, span
from ..video.events import EventType
from ..video.stream import StreamSegment, VideoStream
from .pricing import FlatPricing, PricingModel

__all__ = [
    "Detection",
    "UsageLedger",
    "CloudInferenceService",
    "ServiceWrapper",
    "ServiceStack",
    "merge_segments",
]


def merge_segments(segments: Sequence[StreamSegment]) -> List[StreamSegment]:
    """Maximal disjoint segments covering ``segments``.

    Overlapping *or adjacent* inputs coalesce — the billing-relevant union
    used by :meth:`CloudInferenceService.detect_many`.
    """
    ordered = sorted(segments, key=lambda s: (s.start, s.end))
    merged: List[StreamSegment] = []
    for segment in ordered:
        if merged and segment.start <= merged[-1].end + 1:
            if segment.end > merged[-1].end:
                merged[-1] = StreamSegment(merged[-1].start, segment.end)
        else:
            merged.append(segment)
    return merged


@dataclass(frozen=True)
class Detection:
    """One event detection returned by the CI for a relayed segment."""

    event_name: str
    start: int  # absolute frame
    end: int  # absolute frame

    @property
    def num_frames(self) -> int:
        return self.end - self.start + 1


@dataclass
class UsageLedger:
    """Billing/usage record of one CI account."""

    frames_processed: int = 0
    requests: int = 0
    total_cost: float = 0.0
    frames_per_event: Dict[str, int] = field(default_factory=dict)

    def charge(self, event_name: str, frames: int, cost: float) -> None:
        self.frames_processed += frames
        self.requests += 1
        self.total_cost += cost
        self.frames_per_event[event_name] = (
            self.frames_per_event.get(event_name, 0) + frames
        )

    def reset(self) -> None:
        """Zero every counter in place (new billing period).

        In-place so references held by wrappers (fault injectors, resilient
        clients) keep observing the same ledger object.
        """
        self.frames_processed = 0
        self.requests = 0
        self.total_cost = 0.0
        self.frames_per_event.clear()

    def merge(self, *others: "UsageLedger") -> "UsageLedger":
        """Fold other ledgers into this one (multi-account aggregation).

        Frame/request counts and costs add; ``frames_per_event`` unions
        key-wise.  Returns ``self`` so ``UsageLedger().merge(*ledgers)``
        builds a fresh rollup — the coordinator merges shard-local
        ledger deltas this way, which is exact because frames and
        requests are integers and each shard's cost was billed against
        its own account.
        """
        for other in others:
            self.frames_processed += other.frames_processed
            self.requests += other.requests
            self.total_cost += other.total_cost
            for name, frames in other.frames_per_event.items():
                self.frames_per_event[name] = (
                    self.frames_per_event.get(name, 0) + frames
                )
        return self

    @classmethod
    def merged(cls, ledgers: Sequence["UsageLedger"]) -> "UsageLedger":
        """A new ledger aggregating ``ledgers`` (inputs untouched)."""
        return cls().merge(*ledgers)


class CloudInferenceService:
    """A pay-per-frame event-detection service over a known stream.

    Parameters
    ----------
    stream:
        The stream whose ground truth the "advanced cloud model" detects.
    pricing:
        Billing model; defaults to the paper's flat Rekognition price.
    ci_fps:
        Frames/second the service sustains (drives simulated latency).
    """

    def __init__(
        self,
        stream: VideoStream,
        pricing: Optional[PricingModel] = None,
        ci_fps: float = 20.0,
    ):
        if ci_fps <= 0:
            raise ValueError("ci_fps must be positive")
        self.stream = stream
        self.pricing = pricing or FlatPricing()
        self.ci_fps = ci_fps
        self.ledger = UsageLedger()
        self._simulated_seconds = 0.0

    # ------------------------------------------------------------------
    @property
    def simulated_seconds(self) -> float:
        """Total simulated processing time spent by the CI."""
        return self._simulated_seconds

    def reset(self) -> None:
        """Clear the ledger (new billing period)."""
        self.ledger.reset()
        self._simulated_seconds = 0.0

    def has_stream(self, stream: VideoStream) -> bool:
        """Whether this account answers for exactly ``stream``."""
        return stream is self.stream

    def activate(self, stream: VideoStream) -> "CloudInferenceService":
        """Route subsequent ``detect`` calls to ``stream``.

        A plain service is a one-stream account, so the only stream it
        can activate is its own; :class:`~repro.fleet.service.FleetCIService`
        overrides both methods for a registry of streams.
        """
        if not self.has_stream(stream):
            raise ValueError(
                f"stream {stream.name!r} is not registered with this service"
            )
        return self

    # ------------------------------------------------------------------
    def detect(
        self, segment: StreamSegment, event_type: EventType
    ) -> List[Detection]:
        """Run the (accurate) cloud model on ``segment`` for one event type.

        Bills every frame of the segment regardless of outcome — exactly the
        cost model that makes marshalling worthwhile.
        """
        if segment.end >= self.stream.length:
            raise ValueError(
                f"segment [{segment.start}, {segment.end}] exceeds stream "
                f"length {self.stream.length}"
            )
        frames = segment.num_frames
        with span("ci.detect", event=event_type.name, frames=frames) as call:
            cost = self.pricing.cost(self.ledger.frames_processed + frames) - (
                self.pricing.cost(self.ledger.frames_processed)
            )
            self.ledger.charge(event_type.name, frames, cost)
            self._simulated_seconds += frames / self.ci_fps

            detections = [
                Detection(
                    event_name=event_type.name,
                    start=max(instance.start, segment.start),
                    end=min(instance.end, segment.end),
                )
                for instance in self.stream.schedule.instances_between(
                    event_type, segment.start, segment.end
                )
            ]
        observe("ci.call_seconds", call.seconds)
        inc("ci.requests")
        inc("ci.frames", frames)
        inc("ci.cost", cost)
        inc("ci.simulated_seconds", frames / self.ci_fps)
        return detections

    def detect_many(
        self, segments: Sequence[StreamSegment], event_type: EventType
    ) -> List[Detection]:
        """Detect over several segments, merging the per-segment results.

        Overlapping or adjacent input segments are merged into maximal
        disjoint segments *before* billing, so no frame is charged twice
        for one batch (and under tiered pricing the merged frame count is
        what walks the tier schedule).  One request is billed per merged
        segment.
        """
        out: List[Detection] = []
        for segment in merge_segments(segments):
            out.extend(self.detect(segment, event_type))
        return out


class ServiceWrapper:
    """Base of the objects that wrap a service and stand in for it.

    The fault injector and the resilient client subclass it.  ``service``
    is the wrapped object, kept as a plain writable attribute (so an
    instrumenting proxy can be swapped in for it); ``stream``, ``pricing``
    and ``ledger`` are the wrapped service's, and ``detect_many`` *is*
    :meth:`CloudInferenceService.detect_many` (merge, then ``self.detect``
    per merged segment), so a wrapper bills an overlapping batch exactly
    like the bare service.  Subclasses define ``detect``, ``reset`` and
    ``simulated_seconds``.
    """

    def __init__(self, service):
        self.service = service

    @property
    def stream(self) -> VideoStream:
        return self.service.stream

    @property
    def pricing(self) -> PricingModel:
        return self.service.pricing

    @property
    def ledger(self) -> UsageLedger:
        return self.service.ledger

    detect_many = CloudInferenceService.detect_many


@dataclass(frozen=True)
class ServiceStack:
    """A service wrapper stack, resolved by one walk of its ``.service`` links.

    ``top`` is the object handed in: every ``detect``, ``ledger`` and
    ``pricing`` call goes there, so whatever wraps the top sees every call.
    ``account`` is the bottom of the chain, the first object with an
    ``activate`` method; it owns ``activate`` and ``has_stream``.
    ``resilient`` is the first object above it that exposes
    ``advance_clock``; it owns the simulated clock, ``stats.retries``,
    ``breaker`` and ``retry_budget_remaining``, and is ``None`` for a
    plain or fault-only stack.  Resolution reads attributes only, so a
    forwarding proxy in place of any member resolves like the member.
    """

    top: object
    account: object
    resilient: Optional[object] = None

    @classmethod
    def resolve(cls, service) -> "ServiceStack":
        resilient = None
        node = service
        while node is not None:
            if callable(getattr(node, "activate", None)):
                return cls(service, node, resilient)
            if resilient is None and hasattr(node, "advance_clock"):
                resilient = node
            node = getattr(node, "service", None)
        raise TypeError(
            "service stack has no activate(); wrap a CloudInferenceService "
            "or FleetCIService"
        )

    @property
    def breaker(self):
        """The resilient node's circuit breaker (``None`` without one)."""
        return None if self.resilient is None else self.resilient.breaker

    @property
    def retries(self) -> int:
        """Retries so far.  Read live: ``ResilientCIClient.reset`` replaces
        its stats object."""
        return 0 if self.resilient is None else self.resilient.stats.retries

    def advance_clock(self, seconds: float) -> None:
        """Let ``seconds`` of stream time pass on the resilient node's clock
        (a no-op without one)."""
        if self.resilient is not None:
            self.resilient.advance_clock(seconds)
