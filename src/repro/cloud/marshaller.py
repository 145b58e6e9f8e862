"""The marshalling decision policy of Fig. 1 and its report.

Deployment works horizon by horizon: at the current frame the marshaller
assembles the collection window, asks EventHit (optionally through
C-CLASSIFY / C-REGRESS) *if* and *when* each event will occur in the next
time horizon, relays only the predicted occurrence intervals to the CI, and
then advances to the next horizon.

:class:`StreamMarshaller` holds the policy: model, conformal layers,
thresholds, and :meth:`~StreamMarshaller.decide`.  The horizon loop itself
is :class:`~repro.fleet.marshaller.FleetMarshaller`; a single-stream
:meth:`~StreamMarshaller.run` is a one-lane fleet run.  Everything the
paper's case studies measure — relayed frames, dollar cost, recall of true
event frames — is collected in the :class:`MarshallingReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..conformal.classify import ConformalClassifier
from ..conformal.regress import ConformalRegressor
from ..core.batched import BatchedInference
from ..core.inference import decide_runs
from ..core.model import EventHit
from ..features.extractors import FeatureMatrix
from ..features.pipeline import CovariatePipeline
from ..ingest.guard import StreamGuard
from ..obs import inc
from ..video.events import EventType
from ..video.stream import VideoStream
from .service import CloudInferenceService, Detection

__all__ = ["MarshallingReport", "StreamMarshaller", "FAILURE_POLICIES"]

#: Valid ``failure_policy`` values for :meth:`StreamMarshaller.run`.
FAILURE_POLICIES = ("raise", "skip", "defer")


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
    """The marshalling policy: EventHit plus optional conformal layers.

    :meth:`decide` turns one batched forward pass into relay segments;
    :meth:`run` marshals a single stream as a one-lane
    :class:`~repro.fleet.marshaller.FleetMarshaller` run.

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
        Fallback thresholds (Eqs. 4–5); τ2 must lie in [0, 1].
    segment_min_gap:
        ``None`` (default) relays one min..max span per kept pair (Eq. 6).
        An integer ≥ 1 selects the multi-instance mode of paper footnote
        1: each run of above-τ2 offsets is its own segment, with runs
        closer than this many offsets merged (filters score dips inside
        one occurrence) — with two event instances in a horizon, the idle
        gap between them is not billed.  C-REGRESS widening, when
        configured, is applied per run.

    The per-horizon forward pass runs through :attr:`inference`, a
    :class:`~repro.core.batched.BatchedInference` engine bound to
    ``model``; :attr:`model` reads it back, and a hot swap replaces the
    engine.  The engine is batch-size invariant, which is what makes an
    N-lane fleet run bitwise equivalent to N single-stream runs.
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
        segment_min_gap: Optional[int] = None,
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
        if not 0.0 <= tau2 <= 1.0:
            raise ValueError("tau2 must be in [0, 1]")
        if segment_min_gap is not None and segment_min_gap < 1:
            raise ValueError("segment_min_gap must be >= 1")
        self.event_types = list(event_types)
        self.pipeline = pipeline
        self.classifier = classifier
        self.regressor = regressor
        self.confidence = confidence
        self.alpha = alpha
        self.tau1 = tau1
        self.tau2 = tau2
        self.segment_min_gap = segment_min_gap
        self.inference = BatchedInference(model)
        self.horizon = model.config.horizon

    @property
    def model(self) -> EventHit:
        """The served model: the one the inference engine is bound to."""
        return self.inference.model

    # ------------------------------------------------------------------
    def decide(self, output) -> tuple:
        """``(exists, relays)``: the ``(B, K)`` bool existence decision and
        one ``(row, event, start, end)`` per relayed run, in row-major
        order, each pair's runs in offset order; ``start``/``end`` are
        inclusive horizon offsets.

        The rule is :func:`~repro.core.inference.decide_runs`, as for the
        §VI.B variants, with :attr:`segment_min_gap` bridging: span mode
        gives each kept pair one run.  A pair ``exists`` drops relays
        nothing, and occurrence scores are read only for the pairs it
        keeps.  Batch-native: every underlying operation (conformal
        thresholds, run extraction, C-REGRESS widening) is
        row-independent, so row ``b``'s runs are exactly what a single-row
        call would return — the fleet marshaller decides all lanes in this
        one call.
        """
        exists, (rows, cols, starts, ends) = decide_runs(
            output, self.classifier, self.regressor, self.confidence,
            self.alpha, self.tau1, self.tau2, self.segment_min_gap,
        )
        if self.regressor is not None:
            inc("marshal.widenings", len(rows))
        return exists, list(
            zip(rows.tolist(), cols.tolist(), starts.tolist(), ends.tolist())
        )

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

        A one-lane :meth:`FleetMarshaller.run
        <repro.fleet.marshaller.FleetMarshaller.run>` over ``service``
        (a plain :class:`~repro.cloud.service.CloudInferenceService`, or a
        fault/resilience wrapper stack around one, bound to ``stream``),
        returning that lane's report.

        ``failure_policy`` decides what happens when ``service.detect``
        raises a :class:`~repro.cloud.faults.CIError` (retries, if any,
        already exhausted inside the service wrapper):

        * ``"raise"`` (default) — propagate; the perfect-infrastructure
          contract of the original loop.
        * ``"skip"`` — drop the segment, charging its frames to
          ``frames_lost`` / ``lost_event_frames``.
        * ``"defer"`` — re-queue the segment into the next horizon, ahead
          of that horizon's fresh relays (the queue drains at stream end,
          so deferrals are clamped to it); a segment failing more than
          ``max_deferrals`` times is charged as lost, which bounds the run
          even under sustained faults.

        ``guard``, when given, sanitizes ``features`` before any window is
        cut (imputation replaces invalid values, the health state machine
        tracks stream quality) and quarantined horizons bypass the model
        entirely, falling back to the guard's ``quarantine_policy``.  On a
        clean stream the guard returns the same feature object and every
        guard counter stays zero, so the report is byte-identical to an
        unguarded run.

        ``lifecycle``, when given, is a
        :class:`~repro.lifecycle.LifecycleController` (duck-typed: any
        object with ``maybe_swap`` / ``observe_batch``): staged model
        swaps are applied at horizon boundaries — before the window is
        cut, so a fresh version never decides from a stale forward pass —
        and every decided horizon is offered for audit.  A lifecycle that never
        swaps leaves the report byte-identical to a run without one.
        """
        if features.num_frames != stream.length:
            raise ValueError("feature matrix length != stream length")
        if service.stream is not stream:
            raise ValueError("service must be bound to the same stream")
        # Imported here: the fleet package imports this module.
        from ..fleet.marshaller import FleetLane, FleetMarshaller

        fleet = FleetMarshaller(self).run(
            [FleetLane(stream, features)],
            service,
            start_frame=start_frame,
            max_horizons=max_horizons,
            failure_policy=failure_policy,
            max_deferrals=max_deferrals,
            guard=guard,
            lifecycle=lifecycle,
        )
        report = fleet.per_stream[stream.name]
        # The lane is the whole account: bill it the ledger's delta over
        # this run, not a replay from zero frames (the two differ under
        # tiered pricing when ``service`` has billed earlier runs).
        report.total_cost = fleet.shared_cost
        return report
