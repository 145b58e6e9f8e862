"""Marshal a fleet of streams through one shared CI account.

This is the repository's one horizon loop: a single-stream
:meth:`StreamMarshaller.run <repro.cloud.marshaller.StreamMarshaller.run>`
is a one-lane run of it over a plain
:class:`~repro.cloud.service.CloudInferenceService`.  Deployments watch
*many* cameras, and the two expensive resources — the EventHit forward pass
and the CI account — are both batchable:

* **Inference** — every tick, all active lanes' collection windows are
  cut and standardized as one ``(num_streams, window, features)`` block
  by a single :meth:`~repro.features.pipeline.CovariatePipeline.windows_at`
  call and pushed through a single
  :class:`~repro.core.batched.BatchedInference` call.
  Because the engine is batch-size invariant, each lane's scores are
  bitwise what a solo run would compute.
* **Relaying** — the segments every lane wants relayed enter a shared
  pool; a pluggable :class:`~repro.fleet.scheduler.FleetScheduler` orders
  the pool and the fleet flushes it to the shared CI under a global
  per-tick frame budget.  What the budget cuts off rolls into the next
  tick's pool.

Equivalence contract
--------------------
With the ``round-robin`` scheduler, no budget, and a fault-free service,
an N-lane ``FleetMarshaller.run`` produces **byte-identical** per-stream
:class:`~repro.cloud.marshaller.MarshallingReport` dicts to N one-lane runs
(``StreamMarshaller.run`` over private services): round-robin keeps each
lane's relay order FIFO — deferred relays ahead of fresh ones — and
per-lane costs are attributed by replaying the pricing model against a
per-lane *shadow ledger* (so a lane's ``total_cost`` is what its private
account would have billed, even though the shared ledger pools the
frames).  ``tests/fleet`` pins this.

With a budget or a different scheduler, the fleet trades that exact
equivalence for throughput/QoS control: relays may land ticks later (the
CI clock differs), but no relay is ever dropped by scheduling — only the
failure policy can drop work.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cloud.faults import CIError
from ..cloud.marshaller import FAILURE_POLICIES, MarshallingReport, StreamMarshaller
from ..cloud.service import ServiceStack, UsageLedger
from ..features.extractors import FeatureMatrix
from ..ingest.guard import (
    HEALTH_STATES,
    HEALTHY,
    QUARANTINED,
    GuardedStream,
    StreamGuard,
)
from ..obs import (
    get_flight_recorder,
    inc,
    is_enabled,
    log_info,
    observe,
    record_tick,
    set_gauge,
    span,
    update_slos,
)
from ..video.stream import VideoStream
from .scheduler import (
    FleetScheduler,
    RelayRequest,
    RoundRobinScheduler,
    SchedulerContext,
    make_scheduler,
)

__all__ = ["FleetLane", "FleetReport", "FleetMarshaller", "LANE_MODES"]

#: Per-lane serving modes (see ``FleetMarshaller.run(lane_modes=...)``).
#: ``"serve"`` is the normal predicted path; ``"relay-all"`` is the shed
#: tier — the lane bypasses the forward pass and relays its whole horizon
#: through the shared pool (the quarantine fallback machinery), so load
#: shedding degrades coverage *quality* (cost) but never drops frames.
LANE_MODES = ("serve", "relay-all")


@dataclass
class FleetLane:
    """One stream's inputs to a fleet run."""

    stream: VideoStream
    features: FeatureMatrix

    @property
    def name(self) -> str:
        return self.stream.name


class _LaneState:
    """Mutable per-lane run state (cursor, report, shadow ledger)."""

    __slots__ = (
        "lane",
        "name",
        "stream",
        "report",
        "shadow",
        "frame",
        "done",
        "guarded",
        "features",
        "last_health",
        "mode",
        "truth_from",
    )

    def __init__(self, lane: FleetLane, start_frame: int):
        self.lane = lane
        self.name = lane.name
        self.stream = lane.stream
        self.report = MarshallingReport()
        # Private replay of this lane's billing, for cost attribution: the
        # shared ledger charges marginal cost against the *pooled* frame
        # count; the shadow recomputes it against the lane-local count,
        # i.e. what the lane's own account would have paid.
        self.shadow = UsageLedger()
        self.frame = start_frame
        # Ground truth is counted into the report up to this frame
        # (FleetMarshaller._settle_truth); frames past it are still owed.
        self.truth_from = start_frame
        self.done = False
        # Set by _make_states when a guard is in play: the sanitized view
        # this lane's windows are cut from (same object as lane.features
        # on a clean stream).
        self.guarded: Optional[GuardedStream] = None
        self.features = lane.features
        # Health code observed at the last guard triage (None = unguarded);
        # telemetry uses the transition into QUARANTINED as a trip wire.
        self.last_health: Optional[int] = None
        # Current serving mode (one of LANE_MODES); admission control
        # flips it between ticks via the run's ``lane_modes`` mapping.
        self.mode: str = "serve"


@dataclass
class FleetReport:
    """Outcome of marshalling a fleet: per-stream reports plus fleet stats.

    ``per_stream`` maps lane name to that stream's
    :class:`~repro.cloud.marshaller.MarshallingReport`, with ``total_cost``
    attributed via the lane's shadow ledger.  ``shared_cost`` is what the
    pooled account actually billed for the run; under non-linear (tiered)
    pricing it is at most the sum of attributed costs — the pooling
    discount.
    """

    per_stream: "OrderedDict[str, MarshallingReport]" = field(
        default_factory=OrderedDict
    )
    scheduler: str = RoundRobinScheduler.name
    ticks: int = 0
    max_batch_size: int = 0
    relays_flushed: int = 0
    relays_postponed: int = 0
    shared_cost: float = 0.0
    shared_frames: int = 0
    shed_transitions: int = 0
    readmit_transitions: int = 0

    @property
    def num_streams(self) -> int:
        return len(self.per_stream)

    @property
    def fleet(self) -> MarshallingReport:
        """Fleet-level rollup (fresh aggregate; inputs untouched)."""
        return MarshallingReport.merged(list(self.per_stream.values()))

    @property
    def attributed_cost(self) -> float:
        """Sum of per-lane attributed costs (== ``shared_cost`` under flat
        pricing up to float association; ≥ under tiered pricing)."""
        return sum(r.total_cost for r in self.per_stream.values())

    def fold_counters(self, other: "FleetReport") -> None:
        """Add ``other``'s relay, billing and admission counters into this
        report, keeping the larger batch.

        ``ticks`` and ``per_stream`` stay with the caller: sequential
        admission waves add ticks, concurrent shards take the max.
        """
        self.max_batch_size = max(self.max_batch_size, other.max_batch_size)
        self.relays_flushed += other.relays_flushed
        self.relays_postponed += other.relays_postponed
        self.shared_cost += other.shared_cost
        self.shared_frames += other.shared_frames
        self.shed_transitions += other.shed_transitions
        self.readmit_transitions += other.readmit_transitions

    def to_dict(self, include_detections: bool = False) -> Dict[str, object]:
        return {
            "num_streams": self.num_streams,
            "scheduler": self.scheduler,
            "ticks": self.ticks,
            "max_batch_size": self.max_batch_size,
            "relays_flushed": self.relays_flushed,
            "relays_postponed": self.relays_postponed,
            "shared_cost": self.shared_cost,
            "shared_frames": self.shared_frames,
            "shed_transitions": self.shed_transitions,
            "readmit_transitions": self.readmit_transitions,
            "attributed_cost": self.attributed_cost,
            "fleet": self.fleet.to_dict(include_detections=include_detections),
            "per_stream": {
                name: report.to_dict(include_detections=include_detections)
                for name, report in self.per_stream.items()
            },
        }


class FleetMarshaller:
    """Multiplex N streams over one decision engine and one CI account.

    Parameters
    ----------
    marshaller:
        The shared decision engine: its model, conformal layers,
        thresholds, and pipeline apply to every lane, and its
        ``inference`` engine runs the stacked forward pass.
    scheduler:
        A :class:`~repro.fleet.scheduler.FleetScheduler` instance or a
        registry name (``"round-robin"``, ``"deadline"``,
        ``"cost-aware"``).
    tick_budget_frames:
        Global per-tick relay budget.  Each tick flushes scheduled
        requests until the budget is spent; the first request of a tick
        always flushes (so every tick makes progress and the run
        terminates), and the remainder is postponed to the next tick.
        ``None`` (default) flushes everything every tick.
    """

    def __init__(
        self,
        marshaller: StreamMarshaller,
        scheduler: "FleetScheduler | str" = RoundRobinScheduler.name,
        tick_budget_frames: Optional[int] = None,
    ):
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler)
        if tick_budget_frames is not None and tick_budget_frames < 1:
            raise ValueError("tick_budget_frames must be >= 1")
        self.marshaller = marshaller
        self.scheduler = scheduler
        self.tick_budget_frames = tick_budget_frames

    # ------------------------------------------------------------------
    # Wiring / validation
    # ------------------------------------------------------------------
    def _make_states(
        self, lanes, account, start_frame, guard=None
    ) -> List[_LaneState]:
        pipeline = self.marshaller.pipeline
        start = start_frame if start_frame is not None else pipeline.min_frame()
        if start < pipeline.min_frame():
            raise ValueError("start_frame leaves no room for the collection window")
        states: List[_LaneState] = []
        names = set()
        fps = None
        for lane in lanes:
            if lane.features.num_frames != lane.stream.length:
                raise ValueError(
                    f"lane {lane.name!r}: feature matrix length != stream length"
                )
            if not account.has_stream(lane.stream):
                raise ValueError(
                    f"lane {lane.name!r} is not registered with the fleet service"
                )
            if lane.name in names:
                raise ValueError(f"duplicate lane name {lane.name!r}")
            names.add(lane.name)
            if fps is None:
                fps = lane.stream.fps
            elif lane.stream.fps != fps:
                raise ValueError(
                    "fleet lanes must share one fps (the tick clock is global)"
                )
            state = _LaneState(lane, start)
            if guard is not None:
                state.guarded = guard.sanitize(lane.features)
                state.features = state.guarded.features
            states.append(state)
        if not states:
            raise ValueError("a fleet run needs at least one lane")
        return states

    # ------------------------------------------------------------------
    # Tick machinery
    # ------------------------------------------------------------------
    def _lane_active(self, state: _LaneState, max_horizons: Optional[int]) -> bool:
        if state.frame + self.marshaller.horizon >= state.stream.length:
            return False
        if (
            max_horizons is not None
            and state.report.horizons_evaluated >= max_horizons
        ):
            return False
        return True

    def _decide_tick(
        self, active: List[_LaneState], tick: int, lifecycle=None
    ) -> List[RelayRequest]:
        """One window cut and one stacked forward pass; returns every lane's
        relay requests."""
        m = self.marshaller
        frames = [state.frame for state in active]
        windows = m.pipeline.windows_at([state.features for state in active], frames)
        output = m.inference.predict(windows)
        observe("fleet.batch_size", len(active))
        # One batch-native decision pass for every lane: row i of the
        # batched output (and its runs) is bitwise the lane's solo
        # prediction, so this reproduces each lane's one-lane decisions.
        exists_rows, relays = m.decide(output)
        if lifecycle is not None:
            # Offer the decided tick for audit before frames advance;
            # observation never mutates marshaller or report state.
            lifecycle.observe_batch(
                [(state.stream, state.frame) for state in active],
                windows,
                output,
                exists_rows,
                tick=tick,
            )
        # Relays come in row-major order, so requests stay grouped by
        # lane, then event type, then run.
        requests: List[RelayRequest] = []
        event_types = m.event_types
        for row, event, start_offset, end_offset in relays:
            state = active[row]
            frame = state.frame
            requests.append(
                RelayRequest(
                    lane=state.name,
                    segment=state.stream.segment(
                        frame + start_offset, frame + end_offset
                    ),
                    event_type=event_types[event],
                    tick=tick,
                )
            )
        horizon = m.horizon
        for state in active:
            state.report.horizons_evaluated += 1
            state.report.frames_covered += horizon
            state.frame += horizon
        return requests

    def _quarantine_tick(
        self, state: _LaneState, tick: int, quarantine_policy: str
    ) -> List[RelayRequest]:
        """One quarantined horizon for one lane: no forward pass.

        Under ``"relay-all"`` the whole horizon enters the shared relay
        pool per event type — scheduled, budgeted, and billed exactly like
        model-chosen segments; under ``"skip"`` nothing is relayed.
        """
        m = self.marshaller
        requests: List[RelayRequest] = []
        if quarantine_policy == "relay-all":
            for event_type in m.event_types:
                segment = state.stream.segment(
                    state.frame + 1, state.frame + m.horizon
                )
                requests.append(
                    RelayRequest(
                        lane=state.name,
                        segment=segment,
                        event_type=event_type,
                        tick=tick,
                    )
                )
        state.report.horizons_evaluated += 1
        state.report.frames_covered += m.horizon
        state.frame += m.horizon
        return requests

    def _lane_mode_transition(
        self,
        state: _LaneState,
        mode: str,
        report: FleetReport,
        shed_events: List,
        telemetry: bool,
    ) -> None:
        """Apply one shed/readmit transition at a tick boundary.

        Transitions are counted on the report (deterministic) and in the
        ``fleet.shed.*`` counters, and queued for a flight-recorder
        auto-dump once this tick's telemetry row has landed.
        """
        state.mode = mode
        if mode == "relay-all":
            report.shed_transitions += 1
            inc("fleet.shed.degraded")
            inc("fleet.shed.degraded." + state.name)
            kind = "shed"
        else:
            report.readmit_transitions += 1
            inc("fleet.shed.readmitted")
            inc("fleet.shed.readmitted." + state.name)
            kind = "readmit"
        if telemetry:
            shed_events.append((kind, state.name))

    def _schedule(
        self, requests: List[RelayRequest], states, tick: int
    ) -> List[RelayRequest]:
        if not requests:
            return []
        context = SchedulerContext(
            tick=tick,
            budget_frames=self.tick_budget_frames,
            lane_cost={s.name: s.shadow.total_cost for s in states},
            lane_frames={s.name: s.shadow.frames_processed for s in states},
        )
        ordered = self.scheduler.order(list(requests), context)
        if sorted(map(id, ordered)) != sorted(map(id, requests)):
            raise RuntimeError(
                f"scheduler {self.scheduler.name!r} must return a "
                "permutation of the request pool"
            )
        return ordered

    def _flush(
        self,
        request: RelayRequest,
        state: _LaneState,
        stack: ServiceStack,
        failure_policy: str,
        max_deferrals: int,
        backlog: List[RelayRequest],
    ) -> None:
        """Relay one scheduled segment to the shared CI, attributing its
        billing to the lane's shadow ledger.

        A relay the CI rejects is re-queued on ``backlog`` under the
        ``"defer"`` policy until it has been deferred ``max_deferrals``
        times; after that, or under ``"skip"``, its frames are charged as
        lost.
        """
        stack.account.activate(state.stream)
        report = state.report
        segment, event_type = request.segment, request.event_type
        schedule = state.stream.schedule
        ledger = stack.top.ledger
        frames_before = ledger.frames_processed
        requests_before = ledger.requests
        retries_before = stack.retries
        try:
            try:
                detections = stack.top.detect(segment, event_type)
            except CIError as error:
                if failure_policy == "raise":
                    raise
                if failure_policy == "skip" or request.deferrals >= max_deferrals:
                    report.segments_failed += 1
                    report.frames_lost += segment.num_frames
                    report.lost_event_frames += schedule.frames_in(
                        event_type, segment.start, segment.end
                    )
                    inc("marshal.segments_failed")
                    inc("marshal.frames_lost", segment.num_frames)
                    log_info(
                        "marshal.segment_lost",
                        start=segment.start,
                        end=segment.end,
                        event_type=event_type.name,
                        error=type(error).__name__,
                    )
                else:
                    request.deferrals += 1
                    report.segments_deferred += 1
                    backlog.append(request)
                    inc("marshal.segments_deferred")
            else:
                report.detections.extend(detections)
                report.frames_relayed += segment.num_frames
                report.detected_event_frames += schedule.covered_frames_in(
                    event_type, detections, segment.start, segment.end
                )
                inc("fleet.sched.flushed")
                inc("stage.frames_relayed", segment.num_frames)
        finally:
            report.retries += stack.retries - retries_before
            # Replay whatever the shared ledger billed (0 under a rejected
            # call, possibly >1 request under retry wrappers) against the
            # lane-local frame count.
            billed_frames = ledger.frames_processed - frames_before
            billed_requests = ledger.requests - requests_before
            if billed_frames > 0 or billed_requests > 0:
                pricing = stack.top.pricing
                cost = pricing.cost(
                    state.shadow.frames_processed + billed_frames
                ) - pricing.cost(state.shadow.frames_processed)
                state.shadow.charge(event_type.name, billed_frames, cost)

    # ------------------------------------------------------------------
    # Per-lane bookkeeping
    # ------------------------------------------------------------------
    def _settle_truth(self, states: Sequence[_LaneState]) -> None:
        """Count each lane's ground-truth event frames up to its cursor.

        Every path that advances a lane (decide, quarantine, relay-all)
        moves it by whole horizons and owes recall accounting for every
        frame it passes.  ``frames_in`` is additive over adjacent ranges,
        so one query per lane and event over ``(truth_from, frame]``
        equals the per-horizon sum.  The run settles where
        ``true_event_frames`` is read: before telemetry samples, before
        the probe, and at run end.
        """
        event_types = self.marshaller.event_types
        for state in states:
            if state.frame > state.truth_from:
                frames_in = state.stream.schedule.frames_in
                first = state.truth_from + 1
                for event_type in event_types:
                    state.report.true_event_frames += frames_in(
                        event_type, first, state.frame
                    )
                state.truth_from = state.frame

    def _guard_bookkeeping(
        self, guarded: GuardedStream, frame: int, report: MarshallingReport
    ) -> int:
        """Per-horizon guard accounting; returns the lane's health at
        ``frame`` (the decision point — the end of the collection
        window), which the caller routes on.  Horizons whose conformal
        guarantee no longer holds are counted as voided frames."""
        m = self.marshaller
        horizon = m.horizon
        health = guarded.state_at(frame)
        lo, hi = frame + 1, frame + horizon + 1
        invalid = guarded.invalid_count(lo, hi)
        imputed = guarded.imputed_count(lo, hi)
        report.frames_invalid += invalid
        report.frames_imputed += imputed
        report.health_transitions += guarded.transitions_in(lo, hi)
        window_dirty = (
            guarded.invalid_count(frame - m.pipeline.window_size + 1, frame + 1)
            > 0
        )
        voided = health != HEALTHY or window_dirty or invalid > 0
        if voided:
            # C-CLASSIFY / C-REGRESS coverage is calibrated on clean,
            # exchangeable windows; none of that holds here.
            report.guarantee_voided_frames += horizon
            inc("ingest.guarantee_voided", horizon)
        if health == QUARANTINED:
            report.quarantined_frames += horizon
            inc("stream.health.quarantined_horizons")
        set_gauge("stream.health.state", health)
        return health

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    #: Field schemas for the per-tick flight rows, shared across ticks so
    #: the recorder can store raw value tuples (see
    #: :meth:`FlightRecorder.record_rows`).
    _FLIGHT_LANE_KEYS = ("frame", "horizons", "requests", "deferred",
                         "failed", "health", "cost")
    _FLIGHT_FLEET_KEYS = ("backlog_segments", "backlog_frames", "flushed",
                          "postponed", "budget_spent", "breaker")

    def _tick_telemetry(
        self,
        states: List[_LaneState],
        report: FleetReport,
        stack: ServiceStack,
        tick: int,
        backlog: List[RelayRequest],
        spent: int,
        tick_requests: Dict[str, int],
        newly_quarantined: List[str],
        shed_events: List,
        books: Dict[str, float],
        tick_seconds: float,
    ) -> None:
        """Per-tick sampling: backpressure gauges, flight records, the
        time-series row, SLO burn rates, and trip-wire auto-dumps.

        Called only while observability is enabled; everything here reads
        run state, so decisions and reports are bit-for-bit those of an
        untelemetered run.  This path is on the enabled-run
        overhead budget (``benchmarks/test_fleet_telemetry_overhead.py``):
        state is accumulated in one pass and flight records land through
        the batched single-lock API.
        """
        quarantined = 0
        shed = 0
        true_frames = 0
        detected = 0
        lost = 0
        covered = 0
        failed = 0
        entries = []
        for state in states:
            rep = state.report
            true_frames += rep.true_event_frames
            detected += rep.detected_event_frames
            lost += rep.frames_lost
            covered += rep.frames_covered
            failed += rep.segments_failed
            if state.last_health == QUARANTINED:
                quarantined += 1
            if state.mode == "relay-all":
                shed += 1
            entries.append((state.name, (
                state.frame,
                rep.horizons_evaluated,
                tick_requests.get(state.name, 0),
                rep.segments_deferred,
                rep.segments_failed,
                (HEALTH_STATES[state.last_health]
                 if state.last_health is not None else ""),
                state.shadow.total_cost,
            )))

        backlog_frames = sum(r.frames for r in backlog)
        set_gauge("fleet.backlog.segments", len(backlog))
        set_gauge("fleet.backlog.frames", backlog_frames)
        budget = self.tick_budget_frames
        if budget is not None:
            set_gauge("fleet.budget.utilization", spent / budget)
        set_gauge("fleet.lanes_quarantined", quarantined)
        set_gauge("fleet.lanes_shed", shed)
        set_gauge(
            "fleet.recall_cum",
            detected / true_frames if true_frames else 1.0,
        )
        set_gauge(
            "fleet.frames_lost_ratio", lost / covered if covered else 0.0
        )
        cost_cum = stack.top.ledger.total_cost - books["cost0"]
        set_gauge("fleet.tick_cost", cost_cum - books["cost"])
        set_gauge("fleet.cost_cum", cost_cum)
        books["cost"] = cost_cum
        observe("fleet.tick_seconds", tick_seconds)

        resilient, breaker = stack.resilient, stack.breaker
        if resilient is not None and resilient.retry_budget_remaining is not None:
            set_gauge(
                "ci.resilient.budget_remaining",
                resilient.retry_budget_remaining,
            )

        fleet_row = ("_fleet", (
            len(backlog),
            backlog_frames,
            report.relays_flushed - books["flushed"],
            report.relays_postponed - books["postponed"],
            spent,
            breaker.state if breaker is not None else "",
        ))
        books["flushed"] = report.relays_flushed
        books["postponed"] = report.relays_postponed

        recorder = get_flight_recorder()
        recorder.record_rows(tick, self._FLIGHT_LANE_KEYS, entries)
        recorder.record_rows(tick, self._FLIGHT_FLEET_KEYS, (fleet_row,))
        for lane in newly_quarantined:
            recorder.auto_dump("quarantine", tick, lane)
        for kind, lane in shed_events:
            recorder.auto_dump(kind, tick, lane)
        if breaker is not None and breaker.open_count > books["opens"]:
            books["opens"] = breaker.open_count
            recorder.auto_dump("circuit-open", tick)
        if failed > books["failed"]:
            books["failed"] = failed
            recorder.auto_dump("failure-policy", tick)

        record_tick(tick)
        update_slos(tick)

    # ------------------------------------------------------------------
    def run(
        self,
        lanes: Sequence[FleetLane],
        service,
        start_frame: Optional[int] = None,
        max_horizons: Optional[int] = None,
        failure_policy: str = "raise",
        max_deferrals: int = 8,
        guard: Optional[StreamGuard] = None,
        on_tick=None,
        lifecycle=None,
        lane_modes: Optional[Dict[str, str]] = None,
        probe=None,
    ) -> FleetReport:
        """Marshal every lane tick by tick through the shared ``service``.

        A tick is one horizon of fleet time: batch-predict all active
        lanes, pool their relay segments with any backlog, schedule, flush
        under the budget, advance the service clock by one horizon.  After
        the last lane finishes its horizons, drain ticks flush the
        remaining backlog (budget still applies).

        ``service`` may be a :class:`~repro.fleet.service.FleetCIService`,
        a plain :class:`~repro.cloud.service.CloudInferenceService` (which
        serves only its own stream, so one lane), or any wrapper stack
        around either (fault injector, resilient client), resolved once
        per run by :meth:`~repro.cloud.service.ServiceStack.resolve`;
        ``failure_policy`` and ``max_deferrals`` apply per lane as
        documented on :meth:`StreamMarshaller.run`.

        ``guard``, when given, sanitizes every lane's features up front
        (the guard is stateless, so one instance serves the fleet) and
        lanes whose health is QUARANTINED at a tick drop out of that
        tick's stacked forward pass, falling back to the guard's
        ``quarantine_policy`` through the shared relay pool.  Clean lanes
        are unaffected: their reports stay byte-identical to an unguarded
        run.

        ``on_tick``, when given, is called as ``on_tick(tick)`` after
        every tick (telemetry for that tick, if enabled, has already been
        sampled) — the hook the ``watch`` dashboard redraws from.  Lane
        reports' ``true_event_frames`` is settled only where it is read:
        before telemetry samples, before ``probe``, and at run end.

        ``lifecycle``, when given, is a
        :class:`~repro.lifecycle.LifecycleController`: staged model swaps
        apply at tick boundaries — before the stacked forward pass, so
        every lane switches versions on the same tick — and each lane
        predicting on that tick takes one horizon of
        ``swap_voided_frames``.  A lifecycle that never swaps leaves every
        report byte-identical to a run without one.

        ``lane_modes``, when given, is a live *mutable* mapping from lane
        name to a :data:`LANE_MODES` entry, consulted at every tick
        boundary (missing lanes serve normally).  Admission control
        mutates it between ticks — typically from an ``on_tick`` hook
        (:class:`~repro.fleet.admission.AdmissionDriver`) — to shed
        pressured lanes to the ``"relay-all"`` degraded tier: a shed lane
        skips the stacked forward pass and relays its whole horizon
        through the shared pool, so frames are never dropped, only served
        at baseline quality.  Transitions bump ``fleet.shed.*`` counters
        and the report's transition counts, and trigger flight-recorder
        dumps.  A mapping that never leaves ``"serve"`` yields reports
        byte-identical to a run without one.

        ``probe``, when given, is called as ``probe(tick, states, report,
        service)`` after ``on_tick`` with the *live* per-lane run states —
        the read-only seam the shard supervisor's checkpointer captures
        lane cursors and shadow-ledger totals through.  A probe must not
        mutate anything it is shown; one that only reads leaves the run
        byte-identical to a run without it.
        """
        if failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {failure_policy!r}"
            )
        if max_deferrals < 1:
            raise ValueError("max_deferrals must be >= 1")
        m = self.marshaller
        # The wrapper stack is fixed for the whole run: resolve it once.
        stack = ServiceStack.resolve(service)
        states = self._make_states(list(lanes), stack.account, start_frame, guard)
        by_name = {state.name: state for state in states}
        fps = states[0].stream.fps

        report = FleetReport(scheduler=self.scheduler.name)
        cost_before = service.ledger.total_cost
        frames_before = service.ledger.frames_processed
        backlog: List[RelayRequest] = []
        tick = 0
        set_gauge("fleet.streams", len(states))
        telemetry = is_enabled()
        breaker = stack.breaker
        books = {
            "cost0": cost_before, "cost": 0.0, "flushed": 0, "postponed": 0,
            "failed": 0,
            "opens": breaker.open_count if breaker is not None else 0,
        }
        with span(
            "fleet.run", streams=len(states), scheduler=self.scheduler.name
        ):
            while True:
                active = [s for s in states if self._lane_active(s, max_horizons)]
                if not active and not backlog:
                    break
                tick_requests: Dict[str, int] = {}
                newly_quarantined: List[str] = []
                shed_events: List = []
                with span(
                    "fleet.tick",
                    tick=tick,
                    active=len(active),
                    backlog=len(backlog),
                ) as tick_span:
                    pool = backlog
                    backlog = []
                    serving = active
                    if lane_modes is not None and active:
                        # Admission triage: shed lanes take the degraded
                        # relay-all tier — whole horizon into the shared
                        # pool, no forward pass, no dropped frames.
                        serving = []
                        for state in active:
                            mode = lane_modes.get(state.name, "serve")
                            if mode not in LANE_MODES:
                                raise ValueError(
                                    f"lane mode for {state.name!r} must be "
                                    f"one of {LANE_MODES}, got {mode!r}"
                                )
                            if mode != state.mode:
                                self._lane_mode_transition(
                                    state, mode, report, shed_events,
                                    telemetry,
                                )
                            if state.mode == "relay-all":
                                fallback = self._quarantine_tick(
                                    state, tick, "relay-all"
                                )
                                if telemetry:
                                    tick_requests[state.name] = (
                                        tick_requests.get(state.name, 0)
                                        + len(fallback)
                                    )
                                pool = pool + fallback
                            else:
                                serving.append(state)
                    predicting = serving
                    if guard is not None and serving:
                        # Health triage: quarantined lanes bypass the
                        # batched forward and fall back conservatively.
                        predicting = []
                        for state in serving:
                            health = self._guard_bookkeeping(
                                state.guarded, state.frame, state.report
                            )
                            if health == QUARANTINED:
                                if (
                                    telemetry
                                    and state.last_health != QUARANTINED
                                ):
                                    newly_quarantined.append(state.name)
                                state.last_health = health
                                fallback = self._quarantine_tick(
                                    state, tick, guard.quarantine_policy
                                )
                                if telemetry:
                                    tick_requests[state.name] = (
                                        tick_requests.get(state.name, 0)
                                        + len(fallback)
                                    )
                                pool = pool + fallback
                            else:
                                state.last_health = health
                                predicting.append(state)
                    if predicting:
                        if lifecycle is not None:
                            lifecycle.maybe_swap(
                                [s.report for s in predicting], tick=tick
                            )
                        report.max_batch_size = max(
                            report.max_batch_size, len(predicting)
                        )
                        fresh = self._decide_tick(
                            predicting, tick, lifecycle=lifecycle
                        )
                        if telemetry:
                            for request in fresh:
                                tick_requests[request.lane] = (
                                    tick_requests.get(request.lane, 0) + 1
                                )
                        pool = pool + fresh
                    ordered = self._schedule(pool, states, tick)
                    budget = self.tick_budget_frames
                    spent = 0
                    for index, request in enumerate(ordered):
                        if budget is not None and spent >= budget and index > 0:
                            postponed = ordered[index:]
                            backlog.extend(postponed)
                            report.relays_postponed += len(postponed)
                            inc("fleet.sched.postponed", len(postponed))
                            break
                        self._flush(
                            request,
                            by_name[request.lane],
                            stack,
                            failure_policy,
                            max_deferrals,
                            backlog,
                        )
                        report.relays_flushed += 1
                        spent += request.frames
                    # One horizon of stream time passes: a breaker waiting
                    # out its recovery window needs it even while every
                    # call is rejected.
                    stack.advance_clock(m.horizon / fps)
                report.ticks += 1
                if telemetry or probe is not None:
                    self._settle_truth(states)
                if telemetry:
                    self._tick_telemetry(
                        states, report, stack, tick, backlog, spent,
                        tick_requests, newly_quarantined, shed_events,
                        books, tick_span.seconds,
                    )
                if on_tick is not None:
                    on_tick(tick)
                if probe is not None:
                    probe(tick, states, report, service)
                tick += 1

        self._settle_truth(states)
        for state in states:
            state.report.total_cost = state.shadow.total_cost
            report.per_stream[state.name] = state.report
        report.shared_cost = service.ledger.total_cost - cost_before
        report.shared_frames = service.ledger.frames_processed - frames_before

        fleet = report.fleet
        inc("marshal.horizons", fleet.horizons_evaluated)
        inc("marshal.frames_covered", fleet.frames_covered)
        inc("marshal.frames_relayed", fleet.frames_relayed)
        inc("marshal.cost", report.shared_cost)
        inc("stage.frames_covered", fleet.frames_covered)
        inc("stage.frames_featurized", fleet.frames_covered)
        inc("stage.predictions", fleet.horizons_evaluated)
        log_info(
            "fleet.run_complete",
            streams=len(states),
            ticks=report.ticks,
            flushed=report.relays_flushed,
            postponed=report.relays_postponed,
            cost=report.shared_cost,
        )
        return report
