"""APP-VAE surrogate — a temporal point-process predictor (§VI.B item 9).

The paper compares against APP-VAE [41], a variational point-process model
that encodes the past sequence of action units and predicts which action
occurs next and when.  The generative VAE machinery is not reproducible
offline, but its *decision surface* for this task is: a renewal point
process per event type over the observed onset history, predicting the next
onset time and typical duration.  We implement exactly that:

* fit a log-normal inter-onset gap distribution and an empirical duration
  mean per event type from the training stream's action-unit history;
* at prediction time, condition on the elapsed time u since the last onset
  (visible in the record's collection window history) and compute
  ``P(next onset within H | gap > u)``; if it clears ``p_threshold`` the
  event is predicted, with the interval centred on the conditional median
  remaining time.

As in the paper, the model needs a *large* collection window (it must reach
back to the previous onset) — modelled by the ``history_window`` parameter,
which also drives its feature-extraction cost in the timing benchmarks
(APP-VAE_200 vs APP-VAE_1500).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import stats

from ..core.inference import PredictionBatch
from ..data.records import RecordSet
from ..video.events import EventType
from ..video.stream import VideoStream

__all__ = ["PointProcessPredictor"]


@dataclass
class _EventProcess:
    """Fitted renewal process of one event type."""

    log_gap_mean: float
    log_gap_std: float
    duration_mean: float

    def gap_cdf(self, t: np.ndarray) -> np.ndarray:
        """P(gap ≤ t) under the fitted log-normal."""
        t = np.maximum(np.asarray(t, dtype=float), 1e-9)
        return stats.norm.cdf(
            (np.log(t) - self.log_gap_mean) / max(self.log_gap_std, 1e-6)
        )

    def prob_onset_within(self, elapsed: np.ndarray, horizon: int) -> np.ndarray:
        """P(next onset ≤ elapsed + H | gap > elapsed)."""
        elapsed = np.asarray(elapsed, dtype=float)
        upper = self.gap_cdf(elapsed + horizon)
        lower = self.gap_cdf(elapsed)
        denom = np.maximum(1.0 - lower, 1e-9)
        return np.clip((upper - lower) / denom, 0.0, 1.0)

    def conditional_median_remaining(
        self, elapsed: np.ndarray, horizon: int
    ) -> np.ndarray:
        """Median of (gap − elapsed) conditioned on the onset landing in H."""
        elapsed = np.asarray(elapsed, dtype=float)
        lower = self.gap_cdf(elapsed)
        upper = self.gap_cdf(elapsed + horizon)
        target = lower + 0.5 * np.maximum(upper - lower, 1e-9)
        target = np.clip(target, 1e-9, 1 - 1e-9)
        quantile = np.exp(
            self.log_gap_mean + self.log_gap_std * stats.norm.ppf(target)
        )
        return np.maximum(1.0, quantile - elapsed)


class PointProcessPredictor:
    """Per-event renewal-process predictor over onset history.

    Parameters
    ----------
    history_window:
        How far back (frames) the model can see past onsets — the
        APP-VAE collection window M (200 or 1500 in the paper).  Records
        whose last onset lies beyond the window fall back to the prior
        (elapsed = mean gap), which is what makes the small-window variant
        weak, as the paper observes.
    """

    name = "APP-VAE"

    def __init__(self, history_window: int = 200):
        if history_window <= 0:
            raise ValueError("history_window must be positive")
        self.history_window = history_window
        self._processes: Optional[List[_EventProcess]] = None
        self._event_types: Optional[List[EventType]] = None

    @property
    def is_fitted(self) -> bool:
        return self._processes is not None

    # ------------------------------------------------------------------
    def fit(
        self, stream: VideoStream, event_types: Sequence[EventType]
    ) -> "PointProcessPredictor":
        """MLE of the log-normal gap and mean duration per event type."""
        if not event_types:
            raise ValueError("event_types must be non-empty")
        processes: List[_EventProcess] = []
        for event_type in event_types:
            instances = stream.schedule.instances_of(event_type)
            if len(instances) < 3:
                raise ValueError(
                    f"need >= 3 instances of {event_type.name} to fit gaps"
                )
            onsets = np.array([inst.start for inst in instances], dtype=float)
            gaps = np.diff(onsets)
            log_gaps = np.log(np.maximum(gaps, 1.0))
            durations = np.array([inst.duration for inst in instances], dtype=float)
            processes.append(
                _EventProcess(
                    log_gap_mean=float(log_gaps.mean()),
                    log_gap_std=float(max(log_gaps.std(), 1e-3)),
                    duration_mean=float(durations.mean()),
                )
            )
        self._processes = processes
        self._event_types = list(event_types)
        return self

    # ------------------------------------------------------------------
    def _elapsed_since_last_onset(
        self, stream: VideoStream, frames: np.ndarray, event_type: EventType
    ) -> np.ndarray:
        """Elapsed frames since the last onset visible in the history window.

        Falls back to the fitted mean gap when no onset is visible.
        """
        onsets = np.array(
            [inst.start for inst in stream.schedule.instances_of(event_type)]
        )
        k = self._event_types.index(event_type)
        prior = float(np.exp(self._processes[k].log_gap_mean))
        elapsed = np.full(frames.shape, prior, dtype=float)
        if onsets.size == 0:
            return elapsed
        idx = np.searchsorted(onsets, frames, side="right") - 1
        visible = idx >= 0
        gap = np.where(visible, frames - onsets[np.maximum(idx, 0)], np.inf)
        in_window = visible & (gap <= self.history_window)
        elapsed[in_window] = gap[in_window]
        return elapsed

    def predict(
        self, records: RecordSet, stream: Optional[VideoStream] = None, **knobs
    ) -> PredictionBatch:
        """Predict onsets from the renewal process.

        Parameters
        ----------
        records:
            Test records (frames + horizon).
        stream:
            The stream the records came from (supplies onset history).
        knobs:
            ``p_threshold`` — existence probability cut (default 0.5,
            the paper treats APP-VAE as a fixed operating point).
        """
        p_threshold = knobs.pop("p_threshold", 0.5)
        if knobs:
            raise TypeError(f"unexpected knobs {sorted(knobs)}")
        if self._processes is None:
            raise RuntimeError("call fit() before predict()")
        if stream is None:
            raise ValueError("PointProcessPredictor.predict requires the stream")
        if records.num_events != len(self._processes):
            raise ValueError("records' event count differs from the fitted one")
        horizon = records.horizon
        b, k = records.labels.shape
        exists = np.zeros((b, k), dtype=bool)
        starts = np.zeros((b, k), dtype=int)
        ends = np.zeros((b, k), dtype=int)
        for j, (process, event_type) in enumerate(
            zip(self._processes, self._event_types)
        ):
            elapsed = self._elapsed_since_last_onset(
                stream, records.frames, event_type
            )
            prob = process.prob_onset_within(elapsed, horizon)
            hit = prob >= p_threshold
            remaining = process.conditional_median_remaining(elapsed, horizon)
            start = np.clip(np.round(remaining).astype(int), 1, horizon)
            end = np.clip(
                start + int(round(process.duration_mean)), 1, horizon
            )
            exists[:, j] = hit
            starts[:, j] = np.where(hit, start, 0)
            ends[:, j] = np.where(hit, end, 0)
        return PredictionBatch(exists=exists, starts=starts, ends=ends, horizon=horizon)
