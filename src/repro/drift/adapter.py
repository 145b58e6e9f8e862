"""Online adaptation: audit sampling + recalibration (paper §VIII).

:class:`AdaptiveMarshaller` extends the Fig. 1 runtime loop with the
feedback machinery drift handling needs:

* **audit sampling** — a random fraction of horizons is relayed to the CI
  *in full* regardless of the prediction.  Audited horizons provide
  unbiased ground truth (the CI is accurate), at a bounded extra cost.
* **drift detection** — audited outcomes feed a
  :class:`~repro.drift.detector.MissRateCusum` (did we miss an event the
  CI found?) and a :class:`~repro.drift.detector.PValueDriftDetector`
  (have positives' conformal p-values collapsed?).
* **recalibration** — on a drift signal, the conformal calibration sets
  are rebuilt from a sliding buffer of audited records (the network itself
  is kept; conformal layers are cheap to refresh online) and the detectors
  reset.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from ..cloud.service import CloudInferenceService
from ..conformal.classify import ConformalClassifier
from ..conformal.regress import ConformalRegressor
from ..core.inference import extract_intervals
from ..core.model import EventHit
from ..data.records import RecordSet
from ..features.extractors import FeatureMatrix
from ..features.pipeline import CovariatePipeline
from ..video.events import EventType
from ..video.stream import VideoStream
from .detector import MissRateCusum, PValueDriftDetector

__all__ = ["AdaptiveReport", "AuditBuffer", "AdaptiveMarshaller"]


@dataclass
class AdaptiveReport:
    """Outcome of one adaptive marshalling run."""

    horizons_evaluated: int = 0
    horizons_audited: int = 0
    frames_covered: int = 0
    frames_relayed: int = 0
    total_cost: float = 0.0
    true_event_frames: int = 0
    detected_event_frames: int = 0
    audited_misses: int = 0
    drift_signals: List[int] = field(default_factory=list)  # horizon indices
    recalibrations: int = 0

    @property
    def frame_recall(self) -> float:
        if self.true_event_frames == 0:
            return float("nan")
        return self.detected_event_frames / self.true_event_frames

    @property
    def audit_fraction(self) -> float:
        if self.horizons_evaluated == 0:
            return float("nan")
        return self.horizons_audited / self.horizons_evaluated


class AuditBuffer:
    """Sliding buffer of audited horizons, convertible to a RecordSet."""

    def __init__(self, event_types: Sequence[EventType], horizon: int, maxlen: int = 200):
        if maxlen <= 0:
            raise ValueError("maxlen must be positive")
        self.event_types = list(event_types)
        self.horizon = horizon
        self._rows: Deque[Tuple] = deque(maxlen=maxlen)

    def __len__(self) -> int:
        return len(self._rows)

    def add(
        self,
        frame: int,
        covariates: np.ndarray,
        labels: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        censored: np.ndarray,
    ) -> None:
        self._rows.append(
            (frame, covariates.copy(), labels.copy(), starts.copy(),
             ends.copy(), censored.copy())
        )

    def positives_per_event(self) -> np.ndarray:
        if not self._rows:
            return np.zeros(len(self.event_types), dtype=int)
        return np.sum([row[2] for row in self._rows], axis=0).astype(int)

    def ready_for_calibration(self, min_positives: int = 3) -> bool:
        """Every event has enough audited positives to recalibrate."""
        if not self._rows:
            return False
        return bool((self.positives_per_event() >= min_positives).all())

    def to_records(self) -> RecordSet:
        if not self._rows:
            raise ValueError("audit buffer is empty")
        frames, covs, labels, starts, ends, censored = zip(*self._rows)
        return RecordSet(
            event_types=self.event_types,
            horizon=self.horizon,
            frames=np.asarray(frames),
            covariates=np.stack(covs),
            labels=np.stack(labels),
            starts=np.stack(starts),
            ends=np.stack(ends),
            censored=np.stack(censored),
        )


class AdaptiveMarshaller:
    """Marshalling loop with audit sampling, drift detection, recalibration.

    Parameters
    ----------
    model / event_types / pipeline:
        As in :class:`~repro.cloud.StreamMarshaller`.
    classifier / regressor:
        Calibrated conformal components (both required — adaptation is
        about keeping their guarantees honest under drift).
    confidence / alpha:
        The knobs c and α.
    audit_rate:
        Probability a horizon is fully relayed for ground truth.
    buffer_size:
        Sliding audit-buffer capacity (recent records used to recalibrate).
    min_positives:
        Audited positives per event required before recalibrating.
    seed:
        Seed of the audit coin-flips.
    """

    def __init__(
        self,
        model: EventHit,
        event_types: Sequence[EventType],
        pipeline: CovariatePipeline,
        classifier: ConformalClassifier,
        regressor: ConformalRegressor,
        confidence: float = 0.95,
        alpha: float = 0.9,
        audit_rate: float = 0.1,
        buffer_size: int = 200,
        min_positives: int = 3,
        seed: int = 0,
        cusum: Optional[MissRateCusum] = None,
        pvalue_detector: Optional[PValueDriftDetector] = None,
    ):
        if len(event_types) != model.num_events:
            raise ValueError("event_types count must match model heads")
        if not classifier.is_calibrated or not regressor.is_calibrated:
            raise ValueError("classifier and regressor must be calibrated")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= audit_rate <= 1.0:
            raise ValueError("audit_rate must be in [0, 1]")
        if min_positives < 1:
            raise ValueError("min_positives must be >= 1")
        self.model = model
        self.event_types = list(event_types)
        self.pipeline = pipeline
        self.classifier = classifier
        self.regressor = regressor
        self.confidence = confidence
        self.alpha = alpha
        self.audit_rate = audit_rate
        self.min_positives = min_positives
        self.horizon = model.config.horizon
        self.buffer = AuditBuffer(event_types, self.horizon, maxlen=buffer_size)
        self.cusum = cusum or MissRateCusum(budget=1.0 - confidence)
        self.pvalue_detector = pvalue_detector or PValueDriftDetector()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def _ground_truth(self, stream: VideoStream, frame: int):
        """Per-event (label, start, end, censored) in this horizon."""
        k = len(self.event_types)
        labels = np.zeros(k)
        starts = np.zeros(k, dtype=int)
        ends = np.zeros(k, dtype=int)
        censored = np.zeros(k)
        for j, event_type in enumerate(self.event_types):
            event = stream.schedule.first_event_in_horizon(
                event_type, frame, self.horizon
            )
            if event is None:
                continue
            labels[j] = 1.0
            starts[j] = event.start_offset
            ends[j] = event.end_offset
            censored[j] = float(event.censored)
        return labels, starts, ends, censored

    def _recalibrate(self) -> None:
        records = self.buffer.to_records()
        self.classifier.calibrate(records)
        self.regressor.calibrate(records)
        self.cusum.reset()
        # Hand the KS detector over to the new calibration: its retained
        # p-values were computed against the *old* calibration set, so
        # keeping them verbatim would poison the post-adaptation baseline.
        # Recompute the buffered positives' p-values under the fresh
        # calibration and rebase the reference window on those.
        output = self.model.predict(records.covariates)
        p_values = self.classifier.p_values(output)
        self.pvalue_detector.rebase(p_values[records.labels > 0])

    # ------------------------------------------------------------------
    def run(
        self,
        stream: VideoStream,
        features: FeatureMatrix,
        service: CloudInferenceService,
        max_horizons: Optional[int] = None,
    ) -> AdaptiveReport:
        """Marshal ``stream`` adaptively through ``service``."""
        if features.num_frames != stream.length:
            raise ValueError("feature matrix length != stream length")
        if service.stream is not stream:
            raise ValueError("service must be bound to the same stream")
        report = AdaptiveReport()
        horizon = self.horizon
        schedule = stream.schedule
        frame = self.pipeline.min_frame()

        while frame + horizon < stream.length:
            if max_horizons is not None and report.horizons_evaluated >= max_horizons:
                break
            window = self.pipeline.covariates_at(features, frame)
            output = self.model.predict(window[None])
            exists = self.classifier.predict(output, self.confidence)
            batch = self.regressor.predict(output, exists, self.alpha)
            truth_labels, truth_starts, truth_ends, truth_censored = (
                self._ground_truth(stream, frame)
            )

            audited = bool(self._rng.random() < self.audit_rate)
            if audited:
                report.horizons_audited += 1
                # Full relay per event: unbiased ground truth + billing.
                for j, event_type in enumerate(self.event_types):
                    segment = stream.segment(frame + 1, frame + horizon)
                    detections = service.detect(segment, event_type)
                    report.frames_relayed += segment.num_frames
                    report.true_event_frames += schedule.frames_in(
                        event_type, frame + 1, frame + horizon
                    )
                    report.detected_event_frames += schedule.covered_frames_in(
                        event_type, detections, frame + 1, frame + horizon
                    )

                # Feedback: drift statistics + calibration buffer.
                missed = bool(np.any((truth_labels > 0) & ~exists[0]))
                report.audited_misses += int(missed)
                cusum_verdict = self.cusum.observe(missed)
                p_values = self.classifier.p_values(output)[0]
                for j in range(len(self.event_types)):
                    if truth_labels[j] > 0:
                        self.pvalue_detector.observe(float(p_values[j]))
                ks_verdict = self.pvalue_detector.check()
                self.buffer.add(
                    frame, window, truth_labels, truth_starts, truth_ends,
                    truth_censored,
                )
                if (cusum_verdict.drifted or ks_verdict.drifted) and (
                    self.buffer.ready_for_calibration(self.min_positives)
                ):
                    report.drift_signals.append(report.horizons_evaluated)
                    self._recalibrate()
                    report.recalibrations += 1
            else:
                for j, event_type in enumerate(self.event_types):
                    report.true_event_frames += schedule.frames_in(
                        event_type, frame + 1, frame + horizon
                    )
                    if not exists[0, j]:
                        continue
                    segment = stream.segment(
                        frame + int(batch.starts[0, j]),
                        frame + int(batch.ends[0, j]),
                    )
                    detections = service.detect(segment, event_type)
                    report.frames_relayed += segment.num_frames
                    report.detected_event_frames += schedule.covered_frames_in(
                        event_type, detections, frame + 1, frame + horizon
                    )

            report.horizons_evaluated += 1
            report.frames_covered += horizon
            frame += horizon

        report.total_cost = service.ledger.total_cost
        return report
