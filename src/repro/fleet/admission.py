"""Admission control and tiered load shedding for fleet marshalling.

A fleet that accepts every camera unconditionally has two overload
failure modes: the intake side (more lanes than a worker can tick) and
the serving side (ticks that fall behind real time, visible as rising
tick latency and relay backlog).  This module bounds both without ever
dropping frames:

* **Intake** — :meth:`AdmissionController.submit` admits lanes up to a
  serving capacity and parks the overflow in a *bounded* queue; past the
  queue bound, submission fails loudly (:class:`AdmissionQueueFull`)
  instead of silently accepting work that can never be served.  Queued
  lanes are drained in FIFO waves via :meth:`AdmissionController.next_wave`.
* **Shedding** — :meth:`AdmissionController.heartbeat` consumes the
  backpressure signals the fleet tick loop already exports (tick-latency
  p99 and relay-backlog depth) and degrades one lane per pressured
  heartbeat to the ``"relay-all"`` tier (see
  :data:`~repro.fleet.marshaller.LANE_MODES`): the lane's whole horizon
  is relayed at baseline quality — more CI cost, zero model compute,
  zero dropped frames.  Re-admission is hysteretic: a lane returns to
  serving only after ``readmit_calm_heartbeats`` consecutive heartbeats
  below the *low* watermarks, so a fleet oscillating around the shed
  threshold does not flap.

The controller is a pure deterministic state machine — no clocks, no
randomness — so tests drive it with synthetic signals and sharded runs
reproduce bit-for-bit.  :class:`AdmissionDriver` is the glue that runs it
live: an ``on_tick`` hook reading the registry's backpressure metrics and
applying transitions to a :class:`~repro.fleet.marshaller.FleetMarshaller`
``lane_modes`` mapping between ticks.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, List, MutableMapping, Optional, Tuple

from ..obs import Gauge, Histogram, get_registry, inc, log_info

__all__ = [
    "LANE_STATES",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDriver",
    "AdmissionQueueFull",
    "Transition",
]

#: Lane lifecycle states tracked by the controller.  ``QUEUED`` lanes
#: wait in the bounded intake queue; ``ADMITTED`` lanes are serving;
#: ``SHED`` lanes are admitted but degraded to relay-all; ``RETIRED``
#: lanes finished their run.
LANE_STATES = ("QUEUED", "ADMITTED", "SHED", "RETIRED")


class AdmissionQueueFull(RuntimeError):
    """The bounded intake queue rejected a lane (explicit, never silent)."""


@dataclass(frozen=True)
class AdmissionConfig:
    """Watermarks and capacities of one admission controller.

    The shed watermarks (``shed_*``) are *high* trip points: a heartbeat
    above either one sheds a lane.  The readmit watermarks are *low*
    trip points: only heartbeats at or below **both** count toward the
    calm streak.  Keeping the low watermarks strictly below the high
    ones is the hysteresis band that prevents shed/readmit flapping.
    """

    max_lanes: int = 64
    queue_capacity: int = 1024
    shed_latency_p99: float = float("inf")
    shed_backlog_frames: float = float("inf")
    readmit_latency_p99: float = 0.0
    readmit_backlog_frames: float = 0.0
    readmit_calm_heartbeats: int = 3
    min_serving_lanes: int = 1

    def __post_init__(self) -> None:
        if self.max_lanes < 1:
            raise ValueError("max_lanes must be >= 1")
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")
        if self.readmit_latency_p99 > self.shed_latency_p99:
            raise ValueError(
                "readmit_latency_p99 must not exceed shed_latency_p99 "
                "(the gap is the hysteresis band)"
            )
        if self.readmit_backlog_frames > self.shed_backlog_frames:
            raise ValueError(
                "readmit_backlog_frames must not exceed shed_backlog_frames"
            )
        if self.readmit_calm_heartbeats < 1:
            raise ValueError("readmit_calm_heartbeats must be >= 1")
        if self.min_serving_lanes < 1:
            raise ValueError("min_serving_lanes must be >= 1")


@dataclass(frozen=True)
class Transition:
    """One shed or readmit decision, tagged with the tick that made it."""

    kind: str  # "shed" | "readmit"
    lane: str
    tick: int


class AdmissionController:
    """Deterministic intake + overload state machine for one worker.

    Lanes move ``QUEUED -> ADMITTED <-> SHED -> RETIRED``.  Shedding is
    LIFO over the serving set (the most recently admitted lane degrades
    first — the oldest tenants keep full service) and re-admission is
    FIFO over the shed set, one lane per qualifying heartbeat in both
    directions so the fleet adjusts gradually rather than in lockstep.
    """

    def __init__(self, config: Optional[AdmissionConfig] = None):
        self.config = config or AdmissionConfig()
        self._states: "OrderedDict[str, str]" = OrderedDict()
        self._queue: Deque[str] = deque()
        self._shed: List[str] = []
        self._calm_streak = 0
        self.events: List[Transition] = []

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(self, names) -> Tuple[List[str], List[str]]:
        """Offer lanes for admission; returns ``(admitted, queued)``.

        Admission is in offer order up to ``max_lanes`` serving slots;
        the rest join the bounded FIFO queue.  A lane that would
        overflow the queue raises :class:`AdmissionQueueFull` — the
        caller sees exactly which lane was refused, and nothing is
        dropped on the floor.
        """
        admitted: List[str] = []
        queued: List[str] = []
        for name in names:
            if name in self._states:
                raise ValueError(f"lane {name!r} already submitted")
            if not self._queue and self.serving_count() < self.config.max_lanes:
                self._states[name] = "ADMITTED"
                admitted.append(name)
            else:
                if len(self._queue) >= self.config.queue_capacity:
                    raise AdmissionQueueFull(
                        f"lane {name!r} refused: intake queue at capacity "
                        f"({self.config.queue_capacity})"
                    )
                self._states[name] = "QUEUED"
                self._queue.append(name)
                queued.append(name)
        if admitted:
            inc("fleet.admission.admitted", len(admitted))
        if queued:
            inc("fleet.admission.queued", len(queued))
        return admitted, queued

    def retire(self, names) -> None:
        """Mark lanes done (their wave completed); shed membership ends."""
        for name in names:
            state = self._states.get(name)
            if state in ("ADMITTED", "SHED"):
                self._states[name] = "RETIRED"
                if name in self._shed:
                    self._shed.remove(name)

    def next_wave(self) -> List[str]:
        """Admit up to ``max_lanes`` queued lanes as the next wave (FIFO)."""
        wave: List[str] = []
        while self._queue and len(wave) < self.config.max_lanes:
            name = self._queue.popleft()
            self._states[name] = "ADMITTED"
            wave.append(name)
        if wave:
            inc("fleet.admission.waves")
            inc("fleet.admission.admitted", len(wave))
            log_info("fleet.admission.wave", lanes=len(wave))
        return wave

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def lane_state(self, name: str) -> Optional[str]:
        return self._states.get(name)

    def serving_count(self) -> int:
        return sum(1 for s in self._states.values() if s == "ADMITTED")

    def shed_count(self) -> int:
        return len(self._shed)

    def queued_count(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Overload FSM
    # ------------------------------------------------------------------
    def heartbeat(
        self, tick: int, latency_p99: float, backlog_frames: float
    ) -> List[Transition]:
        """Feed one backpressure sample; returns the transitions it causes.

        * Above either shed watermark: the calm streak resets and the
          most recently admitted serving lane degrades (never below
          ``min_serving_lanes``).
        * At or below both readmit watermarks: the calm streak grows;
          once it reaches ``readmit_calm_heartbeats`` the
          longest-shed lane is re-admitted and the streak restarts (so
          recovery is also one lane per qualifying streak, not a
          thundering herd).
        * In the hysteresis band between the watermarks the streak
          holds — neither growing nor resetting.
        """
        config = self.config
        pressured = (
            latency_p99 > config.shed_latency_p99
            or backlog_frames > config.shed_backlog_frames
        )
        calm = (
            latency_p99 <= config.readmit_latency_p99
            and backlog_frames <= config.readmit_backlog_frames
        )
        transitions: List[Transition] = []
        if pressured:
            self._calm_streak = 0
            serving = [
                name for name, state in self._states.items()
                if state == "ADMITTED"
            ]
            if len(serving) > config.min_serving_lanes:
                lane = serving[-1]
                self._states[lane] = "SHED"
                self._shed.append(lane)
                transitions.append(Transition("shed", lane, tick))
        elif calm:
            self._calm_streak += 1
            if (
                self._shed
                and self._calm_streak >= config.readmit_calm_heartbeats
            ):
                lane = self._shed.pop(0)
                self._states[lane] = "ADMITTED"
                transitions.append(Transition("readmit", lane, tick))
                self._calm_streak = 0
        self.events.extend(transitions)
        return transitions


class AdmissionDriver:
    """``on_tick`` hook wiring live backpressure into an admission FSM.

    After every fleet tick the driver samples the shed signals — the
    ``fleet.tick_seconds`` histogram's p99 and the
    ``fleet.backlog.frames`` gauge, both exported by
    :meth:`FleetMarshaller._tick_telemetry` — feeds them to the
    controller as a heartbeat, and applies the resulting transitions to
    the run's live ``lane_modes`` mapping, where they take effect at the
    next tick boundary.

    ``signals``, when given, replaces the registry read with
    ``signals(tick) -> (latency_p99, backlog_frames)`` — deterministic
    tests inject synthetic pressure this way, and it is also the seam
    for external pressure sources.  With observability disabled the
    registry has no series to read and the driver reports zero pressure.

    A driver whose controller never transitions is behaviorally inert:
    the wrapped run stays byte-identical to one without it.
    """

    def __init__(
        self,
        controller: AdmissionController,
        lane_modes: MutableMapping[str, str],
        signals: Optional[Callable[[int], Tuple[float, float]]] = None,
        on_tick: Optional[Callable[[int], None]] = None,
    ):
        self.controller = controller
        self.lane_modes = lane_modes
        self.signals = signals
        self.on_tick = on_tick

    def read_signals(self, tick: int) -> Tuple[float, float]:
        if self.signals is not None:
            latency_p99, backlog = self.signals(tick)
        else:
            registry = get_registry()
            histogram = registry.get("fleet.tick_seconds")
            latency_p99 = (
                histogram.percentile(99)
                if isinstance(histogram, Histogram)
                else 0.0
            )
            gauge = registry.get("fleet.backlog.frames")
            backlog = gauge.read() if isinstance(gauge, Gauge) else 0.0
        if latency_p99 != latency_p99:
            latency_p99 = 0.0
        if backlog != backlog:
            backlog = 0.0
        return float(latency_p99), float(backlog)

    def __call__(self, tick: int) -> None:
        latency_p99, backlog = self.read_signals(tick)
        for transition in self.controller.heartbeat(tick, latency_p99, backlog):
            self.lane_modes[transition.lane] = (
                "relay-all" if transition.kind == "shed" else "serve"
            )
        if self.on_tick is not None:
            self.on_tick(tick)
