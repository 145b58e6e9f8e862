"""The runtime marshalling loop of Fig. 1.

Deployment works horizon by horizon: at the current frame the marshaller
assembles the collection window, asks EventHit (optionally through
C-CLASSIFY / C-REGRESS) *if* and *when* each event will occur in the next
time horizon, relays only the predicted occurrence intervals to the CI, and
then advances to the next horizon.  Everything the paper's case studies
measure — relayed frames, dollar cost, recall of true event frames — is
collected in the :class:`MarshallingReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..conformal.classify import ConformalClassifier
from ..conformal.regress import ConformalRegressor
from ..core.batched import BatchedInference
from ..core.inference import extract_interval_segments, extract_intervals
from ..core.model import EventHit
from ..features.extractors import FeatureMatrix
from ..features.pipeline import CovariatePipeline
from ..ingest.guard import HEALTHY, QUARANTINED, GuardedStream, StreamGuard
from ..obs import inc, is_enabled, log_info, set_gauge, span
from ..video.events import EventType
from ..video.stream import StreamSegment, VideoStream
from .faults import CIError
from .service import CloudInferenceService, Detection

__all__ = ["MarshallingReport", "StreamMarshaller", "FAILURE_POLICIES"]

#: Valid ``failure_policy`` values for :meth:`StreamMarshaller.run`.
FAILURE_POLICIES = ("raise", "skip", "defer")


@dataclass
class _DeferredSegment:
    """A relay that exhausted its retries, queued for a later horizon."""

    segment: StreamSegment
    event_type: EventType
    deferrals: int = 1


def _merge_runs(runs):
    """Merge overlapping/adjacent (start, end) offset runs after widening."""
    if not runs:
        return []
    ordered = sorted(runs)
    merged = [ordered[0]]
    for start, end in ordered[1:]:
        prev_start, prev_end = merged[-1]
        if start <= prev_end + 1:
            merged[-1] = (prev_start, max(prev_end, end))
        else:
            merged.append((start, end))
    return merged


@dataclass
class MarshallingReport:
    """Outcome of marshalling one stream.

    ``total_cost`` is the cost *this run* added to the service ledger (the
    delta over the run, not the ledger's lifetime total), so one service
    can back many marshals without inflating later reports.

    The failure counters (``segments_failed`` / ``segments_deferred`` /
    ``frames_lost`` / ``lost_event_frames`` / ``retries``) are all zero on
    reliable infrastructure; they fill in when the service raises
    :class:`~repro.cloud.faults.CIError` and ``run(...,
    failure_policy="skip"|"defer")`` absorbs the failure.

    The ingest counters (``frames_invalid`` / ``frames_imputed`` /
    ``guarantee_voided_frames`` / ``quarantined_frames`` /
    ``health_transitions``) are all zero on clean input; they fill in
    when ``run(..., guard=StreamGuard(...))`` sanitizes a degraded
    feature stream.  ``guarantee_voided_frames`` counts covered frames
    of horizons whose conformal coverage guarantees no longer hold —
    any horizon decided from an imputed collection window, predicting
    over invalid frames, or taken while the stream was not HEALTHY.

    The lifecycle counters (``model_swaps`` / ``swap_voided_frames``) are
    zero unless a :class:`~repro.lifecycle.LifecycleController` hot-swaps
    the serving model mid-run; the first horizon decided by a freshly
    swapped model is declared guarantee-voided (the online conformal
    state is recalibrated at the swap boundary, and the guarantee is not
    silently carried across versions), so ``swap_voided_frames`` is also
    folded into ``guarantee_voided_frames``.
    """

    horizons_evaluated: int = 0
    frames_covered: int = 0
    frames_relayed: int = 0
    total_cost: float = 0.0
    detections: List[Detection] = field(default_factory=list)
    true_event_frames: int = 0
    detected_event_frames: int = 0
    segments_failed: int = 0
    segments_deferred: int = 0
    frames_lost: int = 0
    lost_event_frames: int = 0
    retries: int = 0
    frames_invalid: int = 0
    frames_imputed: int = 0
    guarantee_voided_frames: int = 0
    quarantined_frames: int = 0
    health_transitions: int = 0
    model_swaps: int = 0
    swap_voided_frames: int = 0

    @property
    def frame_recall(self) -> float:
        """Recall the marshalling *decisions* achieve on reliable
        infrastructure (≈ the paper's REC): true event frames the CI saw,
        plus those in selected-but-lost segments it would have seen.
        Identical to ``effective_recall`` when nothing was lost."""
        if self.true_event_frames == 0:
            return float("nan")
        return (
            self.detected_event_frames + self.lost_event_frames
        ) / self.true_event_frames

    @property
    def effective_recall(self) -> float:
        """End-to-end recall charging infrastructure losses: only true
        event frames the CI *actually* saw count — frames lost to failed
        relays (``lost_event_frames``) are charged against REC."""
        if self.true_event_frames == 0:
            return float("nan")
        return self.detected_event_frames / self.true_event_frames

    @property
    def relay_fraction(self) -> float:
        """Fraction of covered frames relayed (BF would be ≈ 1)."""
        if self.frames_covered == 0:
            return float("nan")
        return self.frames_relayed / self.frames_covered

    def cost_saving_vs_brute_force(self, price_per_frame: float) -> float:
        """Dollars saved against sending every covered frame per event."""
        brute = self.frames_covered * price_per_frame
        return brute - self.total_cost

    def merge(self, *others: "MarshallingReport") -> "MarshallingReport":
        """Fold other reports into this one (multi-stream aggregation).

        Counts and costs add; the derived ratios (``frame_recall``,
        ``relay_fraction``) then reflect the union.  Returns ``self`` so
        ``MarshallingReport().merge(*reports)`` builds a fresh aggregate.
        """
        for other in others:
            self.horizons_evaluated += other.horizons_evaluated
            self.frames_covered += other.frames_covered
            self.frames_relayed += other.frames_relayed
            self.total_cost += other.total_cost
            self.detections.extend(other.detections)
            self.true_event_frames += other.true_event_frames
            self.detected_event_frames += other.detected_event_frames
            self.segments_failed += other.segments_failed
            self.segments_deferred += other.segments_deferred
            self.frames_lost += other.frames_lost
            self.lost_event_frames += other.lost_event_frames
            self.retries += other.retries
            self.frames_invalid += other.frames_invalid
            self.frames_imputed += other.frames_imputed
            self.guarantee_voided_frames += other.guarantee_voided_frames
            self.quarantined_frames += other.quarantined_frames
            self.health_transitions += other.health_transitions
            self.model_swaps += other.model_swaps
            self.swap_voided_frames += other.swap_voided_frames
        return self

    @classmethod
    def merged(cls, reports: Sequence["MarshallingReport"]) -> "MarshallingReport":
        """A new report aggregating ``reports`` (inputs untouched)."""
        return cls().merge(*reports)

    def to_dict(self, include_detections: bool = False) -> Dict[str, object]:
        """One serialization path shared by exporters and harness rollups."""
        out: Dict[str, object] = {
            "horizons_evaluated": self.horizons_evaluated,
            "frames_covered": self.frames_covered,
            "frames_relayed": self.frames_relayed,
            "total_cost": self.total_cost,
            "true_event_frames": self.true_event_frames,
            "detected_event_frames": self.detected_event_frames,
            "num_detections": len(self.detections),
            "segments_failed": self.segments_failed,
            "segments_deferred": self.segments_deferred,
            "frames_lost": self.frames_lost,
            "lost_event_frames": self.lost_event_frames,
            "retries": self.retries,
            "frames_invalid": self.frames_invalid,
            "frames_imputed": self.frames_imputed,
            "guarantee_voided_frames": self.guarantee_voided_frames,
            "quarantined_frames": self.quarantined_frames,
            "health_transitions": self.health_transitions,
            "model_swaps": self.model_swaps,
            "swap_voided_frames": self.swap_voided_frames,
            "frame_recall": self.frame_recall,
            "effective_recall": self.effective_recall,
            "relay_fraction": self.relay_fraction,
        }
        if include_detections:
            out["detections"] = [
                {"event": d.event_name, "start": d.start, "end": d.end}
                for d in self.detections
            ]
        return out


class StreamMarshaller:
    """Drive EventHit (+ optional conformal layers) over a live stream.

    Parameters
    ----------
    model:
        Trained EventHit.
    event_types:
        The event types the deployment watches (order must match the
        model's heads).
    pipeline:
        Covariate pipeline with the training-fitted standardizer.
    classifier / regressor:
        Optional calibrated C-CLASSIFY / C-REGRESS components; when absent
        the EHO thresholds τ1/τ2 are used.
    confidence / alpha:
        Knobs c and α.
    tau1 / tau2:
        Fallback thresholds (Eqs. 4–5).
    segmented:
        Multi-instance mode (paper footnote 1): relay each contiguous run
        of above-τ2 offsets as its own segment instead of one min..max
        span — with two event instances in a horizon, the idle gap between
        them is not billed.  C-REGRESS widening, when configured, is
        applied per segment.
    segment_min_gap:
        Runs closer than this many offsets are merged (filters score dips
        inside one occurrence).
    inference:
        Optional :class:`~repro.core.batched.BatchedInference` engine to
        run the per-horizon forward pass through.  Defaults to a fresh
        engine over ``model``; sharing one engine across a fleet of
        marshallers is what makes batched multi-stream serving bitwise
        equivalent to sequential runs (the engine is batch-size
        invariant).
    """

    def __init__(
        self,
        model: EventHit,
        event_types: Sequence[EventType],
        pipeline: CovariatePipeline,
        classifier: Optional[ConformalClassifier] = None,
        regressor: Optional[ConformalRegressor] = None,
        confidence: float = 0.9,
        alpha: float = 0.9,
        tau1: float = 0.5,
        tau2: float = 0.5,
        segmented: bool = False,
        segment_min_gap: int = 5,
        inference: Optional[BatchedInference] = None,
    ):
        if len(event_types) != model.num_events:
            raise ValueError(
                f"{len(event_types)} event types but model has "
                f"{model.num_events} heads"
            )
        if classifier is not None and not classifier.is_calibrated:
            raise ValueError("classifier must be calibrated")
        if regressor is not None and not regressor.is_calibrated:
            raise ValueError("regressor must be calibrated")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.model = model
        self.event_types = list(event_types)
        self.pipeline = pipeline
        self.classifier = classifier
        self.regressor = regressor
        self.confidence = confidence
        self.alpha = alpha
        if segment_min_gap < 1:
            raise ValueError("segment_min_gap must be >= 1")
        self.tau1 = tau1
        self.tau2 = tau2
        self.segmented = segmented
        self.segment_min_gap = segment_min_gap
        self.inference = inference if inference is not None else BatchedInference(model)
        self.horizon = model.config.horizon

    # ------------------------------------------------------------------
    def _decide(self, output) -> tuple:
        """(exists (B,K) bool, segments[b][k] = [(start, end), ...]).

        Batch-native: every underlying operation (conformal p-values,
        interval extraction, C-REGRESS widening) is row-independent, so
        row ``b``'s segments are exactly what a single-row call would
        return — the fleet marshaller decides all lanes in this one call.
        In span mode each event gets at most one segment per row.
        """
        if self.classifier is not None:
            exists = self.classifier.predict(output, self.confidence)
        else:
            exists = output.scores >= self.tau1
        batch = exists.shape[0]

        if self.segmented:
            raw = extract_interval_segments(
                output.frame_scores, self.tau2, min_gap=self.segment_min_gap
            )
            if self.regressor is not None:
                quantiles = self.regressor.quantiles(self.alpha)
                widened_rows = []
                for row in raw:
                    widened = []
                    for k, runs in enumerate(row):
                        q_start, q_end = int(quantiles[k, 0]), int(quantiles[k, 1])
                        adjusted = [
                            (max(1, s - q_start), min(self.horizon, e + q_end))
                            for s, e in runs
                        ]
                        widened.append(_merge_runs(adjusted))
                    widened_rows.append(widened)
                raw = widened_rows
            segments = [
                [runs if exists[b, k] else [] for k, runs in enumerate(raw[b])]
                for b in range(batch)
            ]
            if self.regressor is not None:
                inc(
                    "marshal.widenings",
                    sum(len(runs) for row in segments for runs in row),
                )
            return exists, segments

        if self.regressor is not None:
            inc("marshal.widenings", int(exists.sum()))
            predictions = self.regressor.predict(output, exists, self.alpha)
            starts, ends = predictions.starts, predictions.ends
        else:
            starts, ends = extract_intervals(output.frame_scores, self.tau2)
        segments = [
            [
                [(int(starts[b, k]), int(ends[b, k]))] if exists[b, k] else []
                for k in range(exists.shape[1])
            ]
            for b in range(batch)
        ]
        return exists, segments

    def _horizon_truth_frames(
        self, stream: VideoStream, frame: int, event_type: EventType
    ) -> int:
        """Number of ground-truth frames of ``event_type`` in the horizon
        starting at ``frame`` (recall accounting; shared with the fleet)."""
        return stream.schedule.frames_in(event_type, frame + 1, frame + self.horizon)

    # ------------------------------------------------------------------
    # Engine dispatch (shared with the fleet marshaller)
    # ------------------------------------------------------------------
    def _engine_forward(
        self,
        windows: np.ndarray,
        keys: Sequence[str],
        end_frames: Sequence[int],
    ) -> "EventHitOutput":
        """Score stacked windows through whichever engine is bound.

        Stateful engines (anything exposing ``update``) get lane keys and
        absolute end frames so they can carry recurrence state across
        ticks; the stateless windowed engine just sees the windows.  Duck
        typing keeps the marshalling loop engine-agnostic — the same loop
        serves ``windowed``, ``continual``, and ``gated``.
        """
        update = getattr(self.inference, "update", None)
        if update is not None:
            return update(windows, keys, end_frames)
        return self.inference.predict(windows)

    def _engine_reset(self, keys: Optional[Sequence[str]] = None) -> None:
        """Drop carried engine state for ``keys`` (no-op when stateless).

        Called at run start, on quarantine entry, and on guard-voided
        horizons: any carried state may have consumed frames the guard no
        longer vouches for, so the engine must warm up from the next full
        (clean) window.
        """
        reset = getattr(self.inference, "reset", None)
        if reset is not None:
            reset(keys)

    # ------------------------------------------------------------------
    # Ingest-guard bookkeeping (shared with the fleet marshaller)
    # ------------------------------------------------------------------
    def _guard_bookkeeping(
        self, guarded: GuardedStream, frame: int, report: "MarshallingReport"
    ) -> Tuple[int, bool]:
        """Per-horizon guard accounting; returns ``(health, voided)`` at
        ``frame`` (the decision point — the end of the collection
        window).  ``health`` is what the caller routes on; ``voided``
        flags horizons whose conformal guarantee no longer holds, which
        stateful engines use as a state-drop trigger (their carried
        recurrence may have consumed imputed or invalid frames)."""
        horizon = self.horizon
        health = guarded.state_at(frame)
        lo, hi = frame + 1, frame + horizon + 1
        invalid = guarded.invalid_count(lo, hi)
        imputed = guarded.imputed_count(lo, hi)
        report.frames_invalid += invalid
        report.frames_imputed += imputed
        report.health_transitions += guarded.transitions_in(lo, hi)
        window_dirty = (
            guarded.invalid_count(frame - self.pipeline.window_size + 1, frame + 1)
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
        return health, voided

    def _quarantine_horizon(
        self,
        stream: VideoStream,
        frame: int,
        service: CloudInferenceService,
        report: "MarshallingReport",
        quarantine_policy: str,
        failure_policy: str,
        pending: List[_DeferredSegment],
    ) -> None:
        """Conservative fallback for a quarantined horizon.

        The model's input is untrustworthy, so no prediction is made:
        ``"relay-all"`` ships the whole horizon to the CI per event type
        (spend money, miss nothing), ``"skip"`` relays nothing and the
        horizon's frames stay accounted under ``quarantined_frames``.
        """
        for event_type in self.event_types:
            report.true_event_frames += self._horizon_truth_frames(
                stream, frame, event_type
            )
            if quarantine_policy != "relay-all":
                continue
            segment = stream.segment(frame + 1, frame + self.horizon)
            try:
                detections = service.detect(segment, event_type)
            except CIError as exc:
                if failure_policy == "raise":
                    raise
                if failure_policy == "skip":
                    self._fail_segment(stream, segment, event_type, report, exc)
                else:
                    self._defer_segment(
                        _DeferredSegment(segment, event_type), pending, report
                    )
            else:
                self._credit_success(
                    stream, segment, event_type, detections, report
                )

    # ------------------------------------------------------------------
    # Degraded-mode bookkeeping
    # ------------------------------------------------------------------
    @staticmethod
    def _advance_service_clock(service, seconds: float) -> None:
        """Tell a resilience-aware service that stream time passed.

        One horizon of the stream takes horizon/fps wall seconds; a
        circuit breaker waiting out its recovery window needs that time to
        flow even while it rejects every call.  Plain services ignore it.
        """
        advance = getattr(service, "advance_clock", None)
        if advance is not None:
            advance(seconds)

    def _fail_segment(
        self,
        stream: VideoStream,
        segment: StreamSegment,
        event_type: EventType,
        report: MarshallingReport,
        error: CIError,
    ) -> None:
        """Give up on ``segment``: charge its frames as lost."""
        report.segments_failed += 1
        report.frames_lost += segment.num_frames
        report.lost_event_frames += stream.schedule.frames_in(
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

    def _defer_segment(
        self,
        item: _DeferredSegment,
        pending: List[_DeferredSegment],
        report: MarshallingReport,
    ) -> None:
        report.segments_deferred += 1
        pending.append(item)
        inc("marshal.segments_deferred")

    def _credit_success(
        self,
        stream: VideoStream,
        segment: StreamSegment,
        event_type: EventType,
        detections: List[Detection],
        report: MarshallingReport,
    ) -> None:
        """Accounting for a relay that succeeded outside its home horizon."""
        report.detections.extend(detections)
        report.frames_relayed += segment.num_frames
        report.detected_event_frames += stream.schedule.covered_frames_in(
            event_type, detections, segment.start, segment.end
        )

    def _attempt_deferred(
        self,
        pending: List[_DeferredSegment],
        stream: VideoStream,
        service: CloudInferenceService,
        report: MarshallingReport,
        max_deferrals: int,
    ) -> List[_DeferredSegment]:
        """One retry round over the deferral queue; returns what remains."""
        still_pending: List[_DeferredSegment] = []
        for item in pending:
            try:
                detections = service.detect(item.segment, item.event_type)
            except CIError as exc:
                if item.deferrals >= max_deferrals:
                    self._fail_segment(
                        stream, item.segment, item.event_type, report, exc
                    )
                else:
                    item.deferrals += 1
                    self._defer_segment(item, still_pending, report)
            else:
                self._credit_success(
                    stream, item.segment, item.event_type, detections, report
                )
        return still_pending

    def run(
        self,
        stream: VideoStream,
        features: FeatureMatrix,
        service: CloudInferenceService,
        start_frame: Optional[int] = None,
        max_horizons: Optional[int] = None,
        failure_policy: str = "raise",
        max_deferrals: int = 8,
        guard: Optional[StreamGuard] = None,
        lifecycle=None,
    ) -> MarshallingReport:
        """Marshal ``stream`` horizon by horizon through ``service``.

        ``failure_policy`` decides what happens when ``service.detect``
        raises a :class:`~repro.cloud.faults.CIError` (retries, if any,
        already exhausted inside the service wrapper):

        * ``"raise"`` (default) — propagate; the perfect-infrastructure
          contract of the original loop.
        * ``"skip"`` — drop the segment, charging its frames to
          ``frames_lost`` / ``lost_event_frames``.
        * ``"defer"`` — re-queue the segment into the next horizon (the
          queue drains at stream end, so deferrals are clamped to it);
          a segment failing more than ``max_deferrals`` times is charged
          as lost, which bounds the run even under sustained faults.

        ``guard``, when given, sanitizes ``features`` before any window is
        cut (imputation replaces invalid values, the health state machine
        tracks stream quality) and quarantined horizons bypass the model
        entirely, falling back to the guard's ``quarantine_policy``.  On a
        clean stream the guard returns the same feature object and every
        guard counter stays zero, so the report is byte-identical to an
        unguarded run.

        ``lifecycle``, when given, is a
        :class:`~repro.lifecycle.LifecycleController` (duck-typed: any
        object with ``maybe_swap`` / ``observe``): staged model swaps are
        applied at horizon boundaries — before the window is cut, so a
        fresh version never decides from a stale forward pass — and every
        decided horizon is offered for audit.  A lifecycle that never
        swaps leaves the report byte-identical to a run without one.
        """
        if features.num_frames != stream.length:
            raise ValueError("feature matrix length != stream length")
        if service.stream is not stream:
            raise ValueError("service must be bound to the same stream")
        if failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {failure_policy!r}"
            )
        if max_deferrals < 1:
            raise ValueError("max_deferrals must be >= 1")
        guarded: Optional[GuardedStream] = None
        if guard is not None:
            guarded = guard.sanitize(features)
            features = guarded.features
        report = MarshallingReport()
        horizon = self.horizon
        frame = start_frame if start_frame is not None else self.pipeline.min_frame()
        if frame < self.pipeline.min_frame():
            raise ValueError("start_frame leaves no room for the collection window")

        cost_before = service.ledger.total_cost
        retries_before = getattr(getattr(service, "stats", None), "retries", 0)
        pending: List[_DeferredSegment] = []
        self._engine_reset()  # a fresh run never inherits carried state
        with span("marshal.run", start_frame=frame, horizon=horizon):
            while frame + horizon < stream.length:
                if (
                    max_horizons is not None
                    and report.horizons_evaluated >= max_horizons
                ):
                    break
                with span("marshal.horizon", frame=frame):
                    if pending:
                        pending = self._attempt_deferred(
                            pending, stream, service, report, max_deferrals
                        )
                    if is_enabled():
                        # Backpressure: how much deferred work is queued
                        # in front of this horizon.
                        set_gauge("marshal.backlog.segments", len(pending))
                        set_gauge(
                            "marshal.backlog.frames",
                            sum(d.segment.num_frames for d in pending),
                        )
                    if guarded is not None:
                        health, voided = self._guard_bookkeeping(
                            guarded, frame, report
                        )
                        if voided:
                            # Carried recurrence state may include imputed
                            # or invalid frames — drop it; the engine
                            # warms up from the next full window.
                            self._engine_reset([stream.name])
                        if health == QUARANTINED:
                            # Model input is untrustworthy: skip the
                            # forward pass, fall back conservatively.
                            self._quarantine_horizon(
                                stream,
                                frame,
                                service,
                                report,
                                guard.quarantine_policy,
                                failure_policy,
                                pending,
                            )
                            report.horizons_evaluated += 1
                            report.frames_covered += horizon
                            frame += horizon
                            self._advance_service_clock(
                                service, horizon / stream.fps
                            )
                            continue
                    if lifecycle is not None:
                        lifecycle.maybe_swap(
                            report, tick=report.horizons_evaluated
                        )
                    window = self.pipeline.covariates_at(features, frame)
                    output = self._engine_forward(
                        window[None], [stream.name], [frame]
                    )
                    exists, segments = self._decide(output)
                    if lifecycle is not None:
                        lifecycle.observe(
                            stream,
                            frame,
                            window,
                            output,
                            exists,
                            tick=report.horizons_evaluated,
                        )

                    for k, event_type in enumerate(self.event_types):
                        # Ground truth within this horizon, for recall
                        # accounting.
                        report.true_event_frames += self._horizon_truth_frames(
                            stream, frame, event_type
                        )

                        covered: List[Detection] = []
                        for start_offset, end_offset in segments[0][k]:
                            segment = stream.segment(
                                frame + start_offset, frame + end_offset
                            )
                            try:
                                detections = service.detect(segment, event_type)
                            except CIError as exc:
                                if failure_policy == "raise":
                                    raise
                                if failure_policy == "skip":
                                    self._fail_segment(
                                        stream, segment, event_type, report, exc
                                    )
                                else:
                                    self._defer_segment(
                                        _DeferredSegment(segment, event_type),
                                        pending,
                                        report,
                                    )
                                continue
                            report.detections.extend(detections)
                            report.frames_relayed += segment.num_frames
                            covered.extend(detections)
                        report.detected_event_frames += (
                            stream.schedule.covered_frames_in(
                                event_type, covered, frame + 1, frame + horizon
                            )
                        )

                    report.horizons_evaluated += 1
                    report.frames_covered += horizon
                    frame += horizon
                self._advance_service_clock(service, horizon / stream.fps)

            if pending:
                # Stream exhausted with relays still queued: drain in
                # bounded rounds (each failure consumes a deferral).
                with span("marshal.drain", pending=len(pending)):
                    while pending:
                        pending = self._attempt_deferred(
                            pending, stream, service, report, max_deferrals
                        )
                        self._advance_service_clock(service, horizon / stream.fps)

        report.total_cost = service.ledger.total_cost - cost_before
        report.retries = (
            getattr(getattr(service, "stats", None), "retries", 0) - retries_before
        )
        inc("marshal.horizons", report.horizons_evaluated)
        inc("marshal.frames_covered", report.frames_covered)
        inc("marshal.frames_relayed", report.frames_relayed)
        inc("marshal.cost", report.total_cost)
        inc("stage.frames_covered", report.frames_covered)
        inc("stage.frames_featurized", report.frames_covered)
        inc("stage.predictions", report.horizons_evaluated)
        inc("stage.frames_relayed", report.frames_relayed)
        return report
