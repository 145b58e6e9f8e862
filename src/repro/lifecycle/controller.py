"""Drift-triggered recalibration or retraining, canary gating, and
crash-safe hot-swap.

:class:`LifecycleController` closes the loop the paper leaves open in its
conclusions ("detect and adapt to changes in the occurrence distribution
over time"): it watches a live marshalling run through the
:mod:`repro.drift` detectors and responds when the world shifts.  With a
:class:`~repro.lifecycle.ModelRegistry` it retrains EventHit in the
background, gates every candidate behind a canary evaluation on
held-back recent audits, and — only if the candidate clears the gate —
hot-swaps it into the serving marshaller at a horizon boundary.  Without
one (``registry=None``) the network is kept and the response is to
recalibrate the conformal layers on the audit buffer (§VIII drift
adaptation); :func:`audited_outcome` then bills the audits and credits
their ground truth in the run's cost and recall.

Contracts the tests pin:

* **observation is free** — :meth:`~LifecycleController.observe_batch`
  never touches the marshaller, the CI service, or the report.  Audit
  ground truth is read from the stream's schedule (the simulator stand-in
  for a full-relay audit) and the audit coin-flips come from a
  controller-private RNG, so a run that never swaps is **byte-identical**
  to a run without the lifecycle layer.  The one exception is the
  registry-less response, whose whole point is to recalibrate the
  serving conformal layers from inside this hook.
* **swaps are atomic and honest** — :meth:`~LifecycleController.maybe_swap`
  applies a staged candidate between horizons: the engine the canary
  scored it through is installed, both conformal components are
  recalibrated on one forward of it over the audit buffer, the drift
  detectors are rebased onto the new regime, and the first post-swap
  horizon per lane is declared guarantee-voided (``swap_voided_frames``)
  — frames are delayed by at most the swap pause, never dropped, and the
  conformal guarantee is never silently carried across versions.
* **failures fall back** — a retrain blow-up, torn checkpoint write,
  corrupt manifest, or failed/flaky canary all leave the incumbent
  serving, mark the registry accordingly, and file a
  :class:`~repro.obs.flight.FlightRecorder` postmortem.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..cloud.pricing import REKOGNITION
from ..core.batched import BatchedInference
from ..core.trainer import train_eventhit
from ..data.builder import horizon_targets
from ..data.records import RecordSet
from ..drift.detector import MissRateCusum, PValueDriftDetector
from ..obs import inc, log_info, log_warning, set_gauge, span
from ..obs.flight import get_flight_recorder
from ..video.events import EventType
from ..video.stream import StreamSegment, VideoStream
from .faults import LifecycleFaultInjector, RetrainError
from .registry import ModelRegistry, ModelVersion, RegistryError

__all__ = [
    "AuditBuffer",
    "AuditedOutcome",
    "CanaryVerdict",
    "LifecycleController",
    "audited_outcome",
]


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


@dataclass(frozen=True)
class CanaryVerdict:
    """Outcome of scoring a candidate against the incumbent on the
    held-back newest slice of the audit buffer."""

    passed: bool
    candidate_recall: float
    incumbent_recall: float
    candidate_brier: float
    incumbent_brier: float
    flaked: bool
    records: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "candidate_recall": self.candidate_recall,
            "incumbent_recall": self.incumbent_recall,
            "candidate_brier": self.candidate_brier,
            "incumbent_brier": self.incumbent_brier,
            "flaked": self.flaked,
            "records": self.records,
        }


class LifecycleController:
    """Live model lifecycle around one serving marshaller.

    Parameters
    ----------
    marshaller:
        The serving :class:`~repro.cloud.StreamMarshaller` (also the one
        inside a :class:`~repro.fleet.FleetMarshaller`).  Must carry
        calibrated conformal components — lifecycle control is about
        keeping their guarantees honest across model versions.
    registry:
        The :class:`~repro.lifecycle.ModelRegistry` versions are published
        to and served from, or ``None`` for the recalibrate-only response:
        a trigger then recalibrates both conformal layers of the serving
        model on the audit buffer instead of retraining it.
    audit_rate:
        Probability each observed horizon is audited (ground-truthed and
        buffered).
    buffer_size / min_positives / min_records:
        Audit-buffer capacity and the evidence floor before a retrain or
        recalibration is attempted (every event needs ``min_positives``
        audited positives and the buffer at least ``min_records`` rows).
    canary_fraction:
        Fraction of the audit buffer (its *newest* rows) held back from
        retraining and used to score the candidate against the incumbent.
    recall_margin / brier_margin:
        Canary gate: the candidate must reach the incumbent's recall
        minus ``recall_margin`` and its Brier score plus ``brier_margin``.
    retrain_config:
        Optional :class:`~repro.core.EventHitConfig` override for
        retraining (e.g. fewer epochs); defaults to the incumbent's.
    retrain_every_audits:
        Optional scheduled-retraining knob: attempt a retrain every N
        audits even without a drift signal (chaos runs and tests use this
        for deterministic triggering; without a registry it schedules
        recalibrations).
    seed:
        Seed of the controller-private audit RNG.
    cusum / pvalue_detector:
        Optional pre-built drift detectors (defaults: a
        :class:`~repro.drift.MissRateCusum` against the 1 − c budget and a
        :class:`~repro.drift.PValueDriftDetector`).
    injector:
        Optional :class:`~repro.lifecycle.LifecycleFaultInjector` for the
        retrain/canary hazard hooks (the registry holds its own handle
        for the write hooks).
    """

    def __init__(
        self,
        marshaller,
        registry: Optional[ModelRegistry],
        audit_rate: float = 0.25,
        buffer_size: int = 200,
        min_positives: int = 3,
        min_records: int = 8,
        canary_fraction: float = 0.25,
        recall_margin: float = 0.05,
        brier_margin: float = 0.02,
        retrain_config=None,
        retrain_every_audits: Optional[int] = None,
        seed: int = 0,
        cusum: Optional[MissRateCusum] = None,
        pvalue_detector: Optional[PValueDriftDetector] = None,
        injector: Optional[LifecycleFaultInjector] = None,
    ):
        if marshaller.classifier is None or marshaller.regressor is None:
            raise ValueError(
                "lifecycle control needs calibrated conformal components "
                "on the marshaller"
            )
        if not 0.0 <= audit_rate <= 1.0:
            raise ValueError("audit_rate must be in [0, 1]")
        if not 0.0 < canary_fraction < 1.0:
            raise ValueError("canary_fraction must be in (0, 1)")
        if min_positives < 1:
            raise ValueError("min_positives must be >= 1")
        if min_records < 4:
            raise ValueError("min_records must be >= 4")
        if recall_margin < 0.0 or brier_margin < 0.0:
            raise ValueError("canary margins must be non-negative")
        if retrain_every_audits is not None and retrain_every_audits < 1:
            raise ValueError("retrain_every_audits must be >= 1")
        self.marshaller = marshaller
        self.registry = registry
        self.audit_rate = audit_rate
        self.min_positives = min_positives
        self.min_records = min_records
        self.canary_fraction = canary_fraction
        self.recall_margin = recall_margin
        self.brier_margin = brier_margin
        self.retrain_config = retrain_config
        self.retrain_every_audits = retrain_every_audits
        self.injector = injector
        self.buffer = AuditBuffer(
            marshaller.event_types, marshaller.horizon, maxlen=buffer_size
        )
        self.cusum = cusum or MissRateCusum(budget=1.0 - marshaller.confidence)
        self.pvalue_detector = pvalue_detector or PValueDriftDetector()
        self._rng = np.random.default_rng(seed)
        self._pending: Optional[Tuple[ModelVersion, BatchedInference]] = None
        self._audits_since_retrain = 0
        self._last_swap_tick = 0
        # Per stream, the audited horizons as inclusive frame spans (each
        # stands for one full relay per watched event type).
        self.audited_spans: Dict[VideoStream, List[StreamSegment]] = {}
        # Books the chaos harness and the drift experiment report on.
        self.audits = 0
        self.audit_frames = 0
        self.audit_misses = 0
        self.drift_signals = 0
        self.recalibrations = 0
        self.retrains = 0
        self.retrain_failures = 0
        self.publish_failures = 0
        self.rollbacks = 0
        self.swaps = 0
        self.serving_version: Optional[int] = None
        self.canary_verdicts: List[CanaryVerdict] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def has_pending_swap(self) -> bool:
        return self._pending is not None

    def stats(self) -> Dict[str, object]:
        return {
            "audits": self.audits,
            "audit_frames": self.audit_frames,
            "audit_misses": self.audit_misses,
            "drift_signals": self.drift_signals,
            "recalibrations": self.recalibrations,
            "retrains": self.retrains,
            "retrain_failures": self.retrain_failures,
            "publish_failures": self.publish_failures,
            "rollbacks": self.rollbacks,
            "swaps": self.swaps,
            "serving_version": self.serving_version,
            "pending_swap": self.has_pending_swap,
        }

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def register_incumbent(self, tick: int = 0, note: str = "seed model") -> ModelVersion:
        """Publish the currently serving model as the first ``good``
        version, so fault recovery always has a floor to fall back to.

        The chaos hooks are suspended for this one publish — the seed
        model predates the chaos window by construction.
        """
        if self.registry is None:
            raise ValueError("register_incumbent needs a model registry")
        saved = self.registry.injector
        self.registry.injector = None
        try:
            entry = self.registry.publish(
                self.marshaller.model,
                source="seed",
                tick=tick,
                status="good",
                note=note,
            )
        finally:
            self.registry.injector = saved
        self.serving_version = entry.version
        set_gauge("lifecycle.serving_version", float(entry.version))
        return entry

    # ------------------------------------------------------------------
    # Observation hook (free: never touches marshaller, service, report)
    # ------------------------------------------------------------------
    def observe_batch(self, rows, windows, output, exists, tick: int = 0) -> None:
        """Fleet hook: one decided tick.

        ``rows`` is ``[(stream, frame), ...]`` in lane order, ``windows``
        the stacked ``(B, W, F)`` covariates, ``output`` / ``exists`` the
        batch the marshaller decided from.  One audit coin-flip per row,
        in lane order, from the controller-private RNG.  An audit reads
        the horizon's ground truth from the schedule and books the
        full-horizon relay it stands for (``audit_frames`` and the
        per-stream ``audited_spans``) without billing the service.
        """
        set_gauge(
            "lifecycle.model_staleness", float(max(0, tick - self._last_swap_tick))
        )
        exists = np.asarray(exists, dtype=bool)
        m = self.marshaller
        p_values = None
        for i, (stream, frame) in enumerate(rows):
            if not bool(self._rng.random() < self.audit_rate):
                continue
            self.audits += 1
            inc("lifecycle.audits")
            self.audit_frames += m.horizon * len(m.event_types)
            self.audited_spans.setdefault(stream, []).append(
                StreamSegment(frame + 1, frame + m.horizon)
            )
            labels, starts, ends, censored = horizon_targets(
                stream.schedule, m.event_types, frame, m.horizon
            )
            self.buffer.add(frame, windows[i], labels, starts, ends, censored)
            missed = bool(np.any((labels > 0) & ~exists[i]))
            self.audit_misses += int(missed)
            cusum_verdict = self.cusum.observe(missed)
            if p_values is None:
                p_values = m.classifier.p_values(output)
            for j in range(len(m.event_types)):
                if labels[j] > 0:
                    self.pvalue_detector.observe(float(p_values[i, j]))
            ks_verdict = self.pvalue_detector.check()
            self._audits_since_retrain += 1
            drifted = bool(cusum_verdict.drifted or ks_verdict.drifted)
            if drifted:
                self.drift_signals += 1
                inc("lifecycle.drift_signals")
            scheduled = (
                self.retrain_every_audits is not None
                and self._audits_since_retrain >= self.retrain_every_audits
            )
            if not ((drifted or scheduled) and self._ready_to_retrain()):
                continue
            reason = "drift" if drifted else "schedule"
            if self.registry is None:
                self._recalibrate_in_place(tick, reason)
                # Later rows of this tick score against the fresh
                # calibration the KS reference was just rebased on.
                p_values = None
            else:
                self._retrain(tick, reason=reason)

    def _ready_to_retrain(self) -> bool:
        return len(self.buffer) >= self.min_records and (
            self.buffer.ready_for_calibration(self.min_positives)
        )

    # ------------------------------------------------------------------
    # Recalibration (shared by the registry-less response and the swap)
    # ------------------------------------------------------------------
    def _recalibrate(self) -> None:
        """Calibrate both conformal layers on one forward of the serving
        engine over the audit buffer; hand the drift detectors to the new
        regime."""
        m = self.marshaller
        records = self.buffer.to_records()
        output = m.inference.predict(records.covariates)
        m.classifier.calibrate(output, records)
        m.regressor.calibrate(output, records)
        self.cusum.reset()
        # The KS reference holds p-values scored against the old
        # calibration; rebase it on the buffered positives re-scored
        # under the fresh one.
        p_values = m.classifier.p_values(output)
        self.pvalue_detector.rebase(p_values[records.labels > 0])

    def _recalibrate_in_place(self, tick: int, reason: str) -> None:
        """Recalibrate-only response: keep the serving network, refresh
        its conformal layers on the audited horizons."""
        self._audits_since_retrain = 0
        self.recalibrations += 1
        inc("lifecycle.recalibrations")
        with span("lifecycle.recalibrate", reason=reason, tick=tick):
            self._recalibrate()
        log_info("lifecycle.recalibrated", reason=reason, tick=tick)

    # ------------------------------------------------------------------
    # Retrain → publish → canary
    # ------------------------------------------------------------------
    def _retrain(self, tick: int, reason: str) -> None:
        self._audits_since_retrain = 0
        self.retrains += 1
        inc("lifecycle.retrains")
        records = self.buffer.to_records()
        canary_n = max(1, int(round(self.canary_fraction * len(records))))
        canary_n = min(canary_n, len(records) - 2)
        train_records = records.subset(np.arange(len(records) - canary_n))
        canary_records = records.subset(
            np.arange(len(records) - canary_n, len(records))
        )
        with span("lifecycle.retrain", reason=reason, tick=tick):
            try:
                if self.injector is not None:
                    self.injector.fail_retrain()
                candidate, _ = train_eventhit(
                    train_records,
                    config=self.retrain_config or self.marshaller.model.config,
                    encoder=self.marshaller.model.encoder_kind,
                )
            except RetrainError as exc:
                self.retrain_failures += 1
                inc("lifecycle.retrain_failures")
                self._postmortem("lifecycle-retrain-failure", tick, exc)
                self._rearm_detectors()
                return
            try:
                entry = self.registry.publish(candidate, source=reason, tick=tick)
                # Serve what was persisted, not what is in memory: load()
                # re-hashes the artifact, so a torn write is caught here
                # and the incumbent keeps serving.
                candidate = self.registry.load(entry.version)
            except RegistryError as exc:
                self.publish_failures += 1
                inc("lifecycle.publish_failures")
                self._postmortem("lifecycle-publish-failure", tick, exc)
                self._rearm_detectors()
                return
        # The canary prepares it, a swap installs it.
        engine = self.marshaller.inference.rebind(candidate)
        verdict = self._canary(engine, canary_records)
        self.canary_verdicts.append(verdict)
        if verdict.passed:
            self.registry.mark(entry.version, "good")
            inc("lifecycle.canary_pass")
            self._pending = (entry, engine)
            log_info(
                "lifecycle.canary_passed",
                version=entry.version,
                candidate_recall=verdict.candidate_recall,
                incumbent_recall=verdict.incumbent_recall,
            )
        else:
            self.registry.mark(entry.version, "rolled-back")
            self.rollbacks += 1
            inc("lifecycle.rollbacks")
            self._postmortem(
                "lifecycle-rollback",
                tick,
                f"canary regression on v{entry.version} "
                f"(flaked={verdict.flaked})",
            )
        self._rearm_detectors()

    def _rearm_detectors(self) -> None:
        """One drift episode triggers one retrain attempt, not a hot loop."""
        self.cusum.reset()
        self.pvalue_detector.reset(keep_recent_as_reference=True)

    def _postmortem(self, reason: str, tick: int, detail) -> None:
        log_warning("lifecycle.failure", reason=reason, tick=tick, detail=str(detail))
        get_flight_recorder().auto_dump(reason, tick)

    def _canary(self, candidate: BatchedInference, canary: RecordSet) -> CanaryVerdict:
        """Score candidate vs incumbent engine on the held-back newest
        audits, one forward each."""
        with span("lifecycle.canary", records=len(canary)):
            tau1 = self.marshaller.tau1
            labels = canary.labels > 0
            inc_scores = self.marshaller.inference.predict(canary.covariates).scores
            cand_scores = candidate.predict(canary.covariates).scores

            def recall(scores: np.ndarray) -> float:
                if not labels.any():
                    return 1.0
                return float(np.mean(scores[labels] >= tau1))

            def brier(scores: np.ndarray) -> float:
                return float(np.mean((scores - labels.astype(float)) ** 2))

            verdict = CanaryVerdict(
                passed=False,
                candidate_recall=recall(cand_scores),
                incumbent_recall=recall(inc_scores),
                candidate_brier=brier(cand_scores),
                incumbent_brier=brier(inc_scores),
                flaked=bool(
                    self.injector is not None and self.injector.flake_canary()
                ),
                records=len(canary),
            )
            passed = (
                not verdict.flaked
                and verdict.candidate_recall
                >= verdict.incumbent_recall - self.recall_margin
                and verdict.candidate_brier
                <= verdict.incumbent_brier + self.brier_margin
            )
            return CanaryVerdict(**{**verdict.to_dict(), "passed": passed})

    # ------------------------------------------------------------------
    # The swap itself
    # ------------------------------------------------------------------
    def maybe_swap(self, reports, tick: int = 0) -> bool:
        """Apply a staged candidate at a horizon/tick boundary.

        ``reports`` is the sequence of lane reports predicting on this
        tick: each gets one horizon of ``swap_voided_frames``
        — the declared price of not carrying the conformal guarantee
        across versions.  No-op (and no state touched) when nothing is
        staged, which is what keeps the zero-swap run byte-identical.
        """
        if self._pending is None:
            return False
        entry, engine = self._pending
        self._pending = None
        m = self.marshaller
        with span("lifecycle.swap", version=entry.version, tick=tick):
            m.inference = engine
            self._recalibrate()
            for report in reports:
                report.model_swaps += 1
                report.swap_voided_frames += m.horizon
                report.guarantee_voided_frames += m.horizon
        self.swaps += 1
        inc("lifecycle.swaps")
        self.serving_version = entry.version
        self._last_swap_tick = tick
        set_gauge("lifecycle.serving_version", float(entry.version))
        set_gauge("lifecycle.model_staleness", 0.0)
        log_info(
            "lifecycle.swapped",
            version=entry.version,
            tick=tick,
            lanes=len(reports),
        )
        return True


class AuditedOutcome(NamedTuple):
    """A lane's cost and recall once its audits are accounted for."""

    cost: float
    recall: float


def audited_outcome(
    report, stream: VideoStream, controller: LifecycleController
) -> AuditedOutcome:
    """Bill ``stream``'s audits on top of ``report`` and credit their truth.

    The controller reads audit ground truth for free (that keeps a
    zero-swap run byte-identical to one without it), but a real audit is
    a full-horizon relay per watched event type.  The cost bills those
    frames on top of the run's ``total_cost`` at the paper's flat
    per-frame price.  The recall is the share of true event frames
    covered by the union of the report's detections and the audited
    spans, so no frame counts twice.
    """
    spans = controller.audited_spans.get(stream, [])
    m = controller.marshaller
    audit_frames = sum(s.num_frames for s in spans) * len(m.event_types)
    cost = report.total_cost + REKOGNITION.cost(audit_frames)
    if report.true_event_frames == 0:
        return AuditedOutcome(cost, float("nan"))
    covered = 0
    for event_type in m.event_types:
        detections = [
            d for d in report.detections if d.event_name == event_type.name
        ]
        covered += stream.schedule.covered_frames_in(
            event_type, detections + spans, 0, stream.length - 1
        )
    return AuditedOutcome(cost, covered / report.true_event_frames)
