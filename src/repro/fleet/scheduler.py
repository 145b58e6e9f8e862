"""Pluggable relay schedulers for the fleet marshaller.

Every tick the fleet collects the relay segments all streams decided to
send, then a scheduler orders them before they are flushed to the shared
CI under the global per-tick frame budget.  Whatever the budget cuts off
rolls into the next tick's pool, so the scheduler's ordering *is* the
fleet's quality-of-service policy:

* ``round-robin`` — fair interleaving of per-stream FIFO queues (the
  rotation origin advances with the tick).  Within one stream, relay
  order is exactly a one-lane run's order, which is what makes a
  zero-fault fleet run byte-identical to N one-lane runs.
* ``deadline`` — earliest-deadline-first: segments whose predicted
  occurrence starts at the earliest absolute frame flush first, so
  nearly-due events are never starved by a busy neighbour stream.
* ``cost-aware`` — budget balancing: streams with the least attributed
  spend go first, cheapest segments first within a stream, which
  maximises the number of distinct streams served per tick.

Schedulers are pure orderings: ``order`` must return a permutation of its
input (the fleet validates this), never drop or invent work.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type

from ..video.events import EventType
from ..video.stream import StreamSegment

__all__ = [
    "RelayRequest",
    "SchedulerContext",
    "FleetScheduler",
    "RoundRobinScheduler",
    "DeadlineFirstScheduler",
    "CostAwareScheduler",
    "SCHEDULERS",
    "make_scheduler",
]


@dataclass
class RelayRequest:
    """One segment one stream wants relayed to the shared CI.

    ``tick`` is the tick the request was first enqueued (its age);
    ``deferrals`` counts CI failures absorbed so far under the ``defer``
    failure policy.
    """

    lane: str
    segment: StreamSegment
    event_type: EventType
    tick: int
    deferrals: int = 0

    @property
    def frames(self) -> int:
        return self.segment.num_frames


@dataclass(frozen=True)
class SchedulerContext:
    """Fleet state a scheduler may consult when ordering a tick's pool."""

    tick: int
    budget_frames: Optional[int]
    lane_cost: Dict[str, float] = field(default_factory=dict)
    lane_frames: Dict[str, int] = field(default_factory=dict)


class FleetScheduler:
    """Interface: order a tick's relay pool (must return a permutation)."""

    name = "base"

    def order(
        self, requests: List[RelayRequest], context: SchedulerContext
    ) -> List[RelayRequest]:
        raise NotImplementedError


class RoundRobinScheduler(FleetScheduler):
    """Fair interleaving of per-stream FIFO queues.

    Preserves each stream's internal relay order (required for the
    byte-identical-to-sequential guarantee) and rotates which stream
    leads each tick so no stream systematically wins budget ties.
    """

    name = "round-robin"

    def order(
        self, requests: List[RelayRequest], context: SchedulerContext
    ) -> List[RelayRequest]:
        queues: "OrderedDict[str, deque]" = OrderedDict()
        for request in requests:
            queues.setdefault(request.lane, deque()).append(request)
        lanes = list(queues)
        if lanes:
            start = context.tick % len(lanes)
            lanes = lanes[start:] + lanes[:start]
        ordered: List[RelayRequest] = []
        pending = [queues[lane] for lane in lanes]
        while pending:
            for queue in pending:
                if queue:
                    ordered.append(queue.popleft())
            pending = [queue for queue in pending if queue]
        return ordered


class DeadlineFirstScheduler(FleetScheduler):
    """Earliest-deadline-first by the segment's absolute start frame.

    A relay segment's deadline is the moment its predicted occurrence
    begins; flushing in deadline order keeps the CI's answers freshest
    for the events about to happen.  Older (postponed / deferred)
    requests win ties.
    """

    name = "deadline"

    def order(
        self, requests: List[RelayRequest], context: SchedulerContext
    ) -> List[RelayRequest]:
        return sorted(
            requests, key=lambda r: (r.segment.start, r.tick, r.segment.end)
        )


class CostAwareScheduler(FleetScheduler):
    """Budget balancing: least-spent streams first, cheapest relays first.

    Ordering by attributed per-stream spend keeps one chatty stream from
    monopolising the shared account, and preferring small segments within
    a stream maximises how many relays fit under the per-tick budget.
    """

    name = "cost-aware"

    def order(
        self, requests: List[RelayRequest], context: SchedulerContext
    ) -> List[RelayRequest]:
        return sorted(
            requests,
            key=lambda r: (
                context.lane_cost.get(r.lane, 0.0),
                r.frames,
                r.tick,
                r.segment.start,
            ),
        )


#: Registry of the built-in scheduling policies, keyed by CLI name.
SCHEDULERS: Dict[str, Type[FleetScheduler]] = {
    RoundRobinScheduler.name: RoundRobinScheduler,
    DeadlineFirstScheduler.name: DeadlineFirstScheduler,
    CostAwareScheduler.name: CostAwareScheduler,
}


def make_scheduler(name: str) -> FleetScheduler:
    """Instantiate a scheduler by registry name."""
    try:
        return SCHEDULERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
