"""Threshold inference over EventHit outputs (paper Eqs. 4–6).

Given Θ_k = [b_k, θ_{k,1..H}]:

* existence (Eq. 4):  b_k ≥ τ1  ⇒  E_k ∈ L̂;
* occurrence interval (Eqs. 5–6): the frames with θ_{k,v} ≥ τ2, converted
  to one continuous range [min v, max v] (the paper notes the raw
  above-threshold set may be discontinuous).

If an event is predicted present but no offset clears τ2, we fall back to a
single-frame interval at the argmax offset, so a positive existence
prediction always yields a non-empty relay range (the paper leaves this
corner unspecified; an empty range would silently drop the event).

The §VI.B variants and the serving marshaller decide through one rule,
:func:`decide_intervals`, which swaps in C-CLASSIFY and C-REGRESS when given.

The Θ scores come from ``EventHit.predict`` (the fused kernels of
:mod:`repro.nn.fused`) or a serving engine (the same kernels with every
affine map through :func:`~repro.core.batched.rowstable_matmul`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from .model import EventHitOutput

if TYPE_CHECKING:  # conformal imports core: type the layers only
    from ..conformal.classify import ConformalClassifier
    from ..conformal.regress import ConformalRegressor

__all__ = [
    "PredictionBatch",
    "predict_existence",
    "extract_intervals",
    "kept_intervals",
    "decide_existence",
    "decide_intervals",
    "threshold_predictions",
    "extract_interval_segments",
    "segments_to_mask",
]


@dataclass
class PredictionBatch:
    """Batched predictions: existence set L̂ and intervals T̂.

    ``starts``/``ends`` are horizon offsets in [1, H]; rows/columns where
    ``exists`` is False carry zeros and represent "no frames relayed".
    """

    exists: np.ndarray  # (B, K) bool
    starts: np.ndarray  # (B, K) int
    ends: np.ndarray  # (B, K) int
    horizon: int

    def __post_init__(self) -> None:
        self.exists = np.asarray(self.exists, dtype=bool)
        self.starts = np.asarray(self.starts, dtype=int)
        self.ends = np.asarray(self.ends, dtype=int)
        if self.exists.shape != self.starts.shape or self.starts.shape != self.ends.shape:
            raise ValueError("exists/starts/ends shapes must match")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        on = self.exists
        if np.any(self.starts[on] < 1) or np.any(self.ends[on] > self.horizon):
            raise ValueError("predicted offsets must lie in [1, H]")
        if np.any(self.starts[on] > self.ends[on]):
            raise ValueError("start offsets must be <= end offsets")
        self.starts = np.where(self.exists, self.starts, 0)
        self.ends = np.where(self.exists, self.ends, 0)

    @property
    def batch_size(self) -> int:
        return self.exists.shape[0]

    @property
    def num_events(self) -> int:
        return self.exists.shape[1]

    def predicted_frames(self) -> np.ndarray:
        """(B, K) count of frames each prediction would relay to the CI."""
        return np.where(self.exists, self.ends - self.starts + 1, 0)

    def with_intervals(self, starts: np.ndarray, ends: np.ndarray) -> "PredictionBatch":
        """Copy with replaced intervals (used by C-REGRESS widening)."""
        return PredictionBatch(self.exists.copy(), starts, ends, self.horizon)


def predict_existence(scores: np.ndarray, tau1: float = 0.5) -> np.ndarray:
    """Eq. 4: b_k ≥ τ1 ⇒ event predicted to occur in the horizon."""
    if not 0.0 <= tau1 <= 1.0:
        raise ValueError("tau1 must be in [0, 1]")
    return np.asarray(scores) >= tau1


def extract_intervals(
    frame_scores: np.ndarray, tau2: float = 0.5
) -> Tuple[np.ndarray, np.ndarray]:
    """Eqs. 5–6: continuous interval spanned by offsets with θ ≥ τ2.

    Returns (starts, ends) as offsets in [1, H]; falls back to the argmax
    offset when no score clears τ2.
    """
    if not 0.0 <= tau2 <= 1.0:
        raise ValueError("tau2 must be in [0, 1]")
    frame_scores = np.asarray(frame_scores)
    if frame_scores.ndim != 3:
        raise ValueError("frame_scores must be (B, K, H)")
    horizon = frame_scores.shape[2]
    # One pass per end: argmax on the mask finds the first True offset,
    # and on the reversed mask the last; the gathered first slot says
    # whether anything cleared τ2 at all.
    above = frame_scores >= tau2
    first = above.argmax(axis=2)
    last = horizon - 1 - above[:, :, ::-1].argmax(axis=2)
    any_above = np.take_along_axis(above, first[:, :, None], axis=2)[:, :, 0]
    starts = first + 1
    ends = last + 1
    if not any_above.all():
        peak = frame_scores.argmax(axis=2) + 1
        starts = np.where(any_above, starts, peak)
        ends = np.where(any_above, ends, peak)
    return starts.astype(int), ends.astype(int)


def kept_intervals(
    output: EventHitOutput, exists: np.ndarray, tau2: float = 0.5
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`extract_intervals` for only the (row, event) pairs ``exists``
    keeps.

    Returns (B, K) starts/ends equal to :func:`extract_intervals`' on the
    kept pairs and zero elsewhere.  Only the kept pairs' occurrence scores
    are read (:meth:`EventHitOutput.kept_frame_scores`), so a lazily
    activated output never activates the rest.
    """
    rows, events, scores = output.kept_frame_scores(exists)
    first, last = extract_intervals(scores[:, None, :], tau2)
    starts = np.zeros(output.scores.shape, dtype=int)
    ends = np.zeros_like(starts)
    starts[rows, events] = first[:, 0]
    ends[rows, events] = last[:, 0]
    return starts, ends


def decide_existence(
    output: EventHitOutput,
    classifier: Optional["ConformalClassifier"] = None,
    confidence: float = 0.9,
    tau1: float = 0.5,
) -> np.ndarray:
    """(B, K) L̂: C-CLASSIFY at c (Eq. 9) if given, else Eq. 4 at τ1.

    τ1 is not range-checked: serving accepts a τ1 above 1 to keep nothing.
    """
    if classifier is not None:
        return classifier.predict(output, confidence)
    return output.scores >= tau1


def decide_intervals(
    output: EventHitOutput,
    classifier: Optional["ConformalClassifier"] = None,
    regressor: Optional["ConformalRegressor"] = None,
    confidence: float = 0.9,
    alpha: float = 0.9,
    tau1: float = 0.5,
    tau2: float = 0.5,
) -> PredictionBatch:
    """:func:`decide_existence`, then the kept pairs' intervals: C-REGRESS
    at α (Eq. 11, from raw intervals at the regressor's own τ2) if given,
    else Eqs. 5–6 at ``tau2``."""
    exists = decide_existence(output, classifier, confidence, tau1)
    if regressor is not None:
        return regressor.predict(output, exists, alpha)
    starts, ends = kept_intervals(output, exists, tau2)
    return PredictionBatch(exists, starts, ends, output.horizon)


def threshold_predictions(
    output: EventHitOutput, tau1: float = 0.5, tau2: float = 0.5
) -> PredictionBatch:
    """The EHO rule: :func:`decide_intervals` with neither conformal layer."""
    if not 0.0 <= tau1 <= 1.0:
        raise ValueError("tau1 must be in [0, 1]")
    return decide_intervals(output, tau1=tau1, tau2=tau2)


def extract_interval_segments(
    frame_scores: np.ndarray, tau2: float = 0.5, min_gap: int = 1
) -> list:
    """Multiple occurrence intervals per horizon (paper footnote 1).

    Eq. 6 spans the min..max above-threshold offsets with *one* interval;
    when two event instances fall in the same horizon, that bridges the
    idle gap between them and wastes CI frames.  This variant returns each
    contiguous run of offsets with θ ≥ τ2 as its own segment, merging runs
    separated by fewer than ``min_gap`` offsets (short score dips within a
    single occurrence).  Falls back to the argmax offset when nothing
    clears the threshold, matching :func:`extract_intervals`.

    Returns
    -------
    A nested list ``segments[b][k] = [(start, end), ...]`` of 1-based
    inclusive offset ranges, sorted by start.
    """
    if not 0.0 <= tau2 <= 1.0:
        raise ValueError("tau2 must be in [0, 1]")
    if min_gap < 1:
        raise ValueError("min_gap must be >= 1")
    frame_scores = np.asarray(frame_scores)
    if frame_scores.ndim != 3:
        raise ValueError("frame_scores must be (B, K, H)")
    batch, events, horizon = frame_scores.shape
    out = []
    for b in range(batch):
        per_event = []
        for k in range(events):
            above = frame_scores[b, k] >= tau2
            if not above.any():
                peak = int(frame_scores[b, k].argmax()) + 1
                per_event.append([(peak, peak)])
                continue
            # Contiguous runs of True.
            padded = np.concatenate([[False], above, [False]])
            changes = np.flatnonzero(padded[1:] != padded[:-1])
            runs = [
                (int(changes[i]) + 1, int(changes[i + 1]))
                for i in range(0, len(changes), 2)
            ]
            # Merge runs separated by less than min_gap offsets.
            merged = [runs[0]]
            for start, end in runs[1:]:
                prev_start, prev_end = merged[-1]
                if start - prev_end - 1 < min_gap:
                    merged[-1] = (prev_start, end)
                else:
                    merged.append((start, end))
            per_event.append(merged)
        out.append(per_event)
    return out


def segments_to_mask(
    segments: list, horizon: int, exists: Optional[np.ndarray] = None
) -> np.ndarray:
    """(B, K, H) boolean relay mask from :func:`extract_interval_segments`.

    ``exists`` (B, K) zeroes the rows of events predicted absent.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    batch = len(segments)
    events = len(segments[0]) if batch else 0
    mask = np.zeros((batch, events, horizon), dtype=bool)
    for b in range(batch):
        if len(segments[b]) != events:
            raise ValueError("ragged segment structure")
        for k in range(events):
            for start, end in segments[b][k]:
                if not 1 <= start <= end <= horizon:
                    raise ValueError(
                        f"segment ({start}, {end}) outside [1, {horizon}]"
                    )
                mask[b, k, start - 1 : end] = True
    if exists is not None:
        exists = np.asarray(exists, dtype=bool)
        if exists.shape != (batch, events):
            raise ValueError("exists must be (B, K)")
        mask &= exists[:, :, None]
    return mask
