"""Analytic stage-cost timing model (paper §VI.H, Figs. 9 & 10).

The paper measures end-to-end FPS of each pipeline: feature extraction
(e.g. YOLOv3), the lightweight predictor (EventHit / Cox / VQS filter), and
the CI's heavy event-detection model (e.g. I3D) applied to the relayed
frames.  Without the authors' hardware we model each stage with a
deterministic per-unit cost and derive the same quantities:

* pipeline FPS = frames covered / total seconds;
* per-stage share of the total time (Fig. 10's pie).

Defaults are calibrated so the paper's qualitative facts hold: EHCR reaches
triple-digit FPS at high REC while COX/VQS stall below ~50, and the CI stage
dominates total time (with feature extraction a small share and the
predictor negligible — the paper reports ≈95.9% / 4.0% / 0.1% on TA10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["TimingModel", "StageBreakdown", "PipelineTiming"]


@dataclass(frozen=True)
class StageBreakdown:
    """Seconds spent per pipeline stage over a workload."""

    feature_extraction: float
    predictor: float
    cloud_inference: float

    @property
    def total(self) -> float:
        return self.feature_extraction + self.predictor + self.cloud_inference

    def proportions(self) -> Dict[str, float]:
        """Share of total time per stage (Fig. 10)."""
        total = self.total
        if total <= 0:
            raise ValueError("no time recorded")
        return {
            "feature_extraction": self.feature_extraction / total,
            "predictor": self.predictor / total,
            "cloud_inference": self.cloud_inference / total,
        }


@dataclass(frozen=True)
class PipelineTiming:
    """FPS and stage breakdown of one pipeline over one workload."""

    frames_covered: int
    breakdown: StageBreakdown

    @property
    def fps(self) -> float:
        if self.breakdown.total <= 0:
            return float("inf")
        return self.frames_covered / self.breakdown.total


@dataclass(frozen=True)
class TimingModel:
    """Per-stage unit costs.

    Attributes
    ----------
    feature_fps:
        Frames/second of the feature-extraction stage.  The default models
        a difference-detector-accelerated YOLOv3 (the paper notes frame
        sampling / difference detectors "can be readily applied").
    predictor_latency:
        Seconds per prediction call (per record) of the lightweight model.
    ci_fps:
        Frames/second the CI effectively sustains per relayed frame,
        including the cloud round-trip.
    """

    feature_fps: float = 1000.0
    predictor_latency: float = 1e-4
    ci_fps: float = 20.0

    def __post_init__(self) -> None:
        if self.feature_fps <= 0 or self.ci_fps <= 0:
            raise ValueError("stage rates must be positive")
        if self.predictor_latency < 0:
            raise ValueError("predictor_latency must be non-negative")

    def pipeline(
        self,
        frames_covered: int,
        frames_featurized: int,
        predictions_made: int,
        frames_relayed: int,
    ) -> PipelineTiming:
        """Timing of a pipeline run.

        Parameters
        ----------
        frames_covered:
            Stream frames the run is responsible for (FPS denominator).
        frames_featurized:
            Frames pushed through feature extraction.
        predictions_made:
            Number of predictor invocations (records).
        frames_relayed:
            Frames sent to the CI.
        """
        for name, value in (
            ("frames_covered", frames_covered),
            ("frames_featurized", frames_featurized),
            ("predictions_made", predictions_made),
            ("frames_relayed", frames_relayed),
        ):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        breakdown = StageBreakdown(
            feature_extraction=frames_featurized / self.feature_fps,
            predictor=predictions_made * self.predictor_latency,
            cloud_inference=frames_relayed / self.ci_fps,
        )
        return PipelineTiming(frames_covered=frames_covered, breakdown=breakdown)
