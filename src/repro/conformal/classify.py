"""C-CLASSIFY — conformal event-existence prediction (paper §IV, Algorithm 1).

C-CLASSIFY replaces the τ1 threshold of Eq. 4 with probability semantics:
for each event E_k independently, compute the nonconformity of the new
covariates (a = 1 − b_k) and compare against the nonconformity of the
*positive* calibration records (those with E_k ∈ L_n).  The event is
predicted present when the resulting p-value is at least 1 − c.

Theorem 4.2: under exchangeability, P(E_k ∉ L̂ | E_k ∈ L) ≤ 1 − c — the
confidence level c lower-bounds the per-event existence recall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..core.model import EventHit, EventHitOutput
from ..data.records import RecordSet
from ..obs import span
from .base import nonconformity_from_score

__all__ = ["ConformalClassifier"]

NonconformityFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class _EventCalibration:
    """Sorted nonconformity scores of one event's calibration positives."""

    nonconformity: np.ndarray
    num_positives: int


class ConformalClassifier:
    """Per-event conformal existence predictor calibrated on D_c-calib.

    Parameters
    ----------
    model:
        A trained EventHit (only its existence scores b_k are used).
    nonconformity:
        Score → nonconformity mapping; defaults to the paper's a = 1 − b.
    """

    def __init__(
        self,
        model: EventHit,
        nonconformity: Optional[NonconformityFn] = None,
    ):
        self.model = model
        self.nonconformity = nonconformity or nonconformity_from_score
        self._calibrations: Optional[List[_EventCalibration]] = None

    # ------------------------------------------------------------------
    @property
    def is_calibrated(self) -> bool:
        return self._calibrations is not None

    def calibrate(self, calibration: RecordSet) -> "ConformalClassifier":
        """Score the calibration set and store per-event positive scores.

        Mirrors Algorithm 1 lines 4–6: nonconformity is computed for every
        calibration record; the p-value denominator uses only records with
        the event present.
        """
        if calibration.num_events != self.model.num_events:
            raise ValueError(
                f"calibration has {calibration.num_events} events, model "
                f"has {self.model.num_events}"
            )
        with span("calibrate.classify", records=len(calibration)):
            output = self.model.predict(calibration.covariates)
            scores = self.nonconformity(output.scores)  # (C, K)
            calibrations: List[_EventCalibration] = []
            for k in range(calibration.num_events):
                positive = calibration.labels[:, k] > 0
                if not positive.any():
                    raise ValueError(
                        f"calibration set has no positive records for event "
                        f"index {k}; cannot calibrate"
                    )
                calibrations.append(
                    _EventCalibration(
                        nonconformity=np.sort(scores[positive, k]),
                        num_positives=int(positive.sum()),
                    )
                )
            self._calibrations = calibrations
        return self

    # ------------------------------------------------------------------
    def p_values(self, output: EventHitOutput) -> np.ndarray:
        """(B, K) conformal p-values for a batch of EventHit outputs."""
        if self._calibrations is None:
            raise RuntimeError("call calibrate() before predicting")
        test_scores = self.nonconformity(output.scores)
        # conformal_p_values per column, on the stored (already sorted)
        # calibration scores: the count of a_i >= a_o is C - (first index
        # with a_i >= a_o).
        p_values = np.empty(test_scores.shape)
        for k, calib in enumerate(self._calibrations):
            sorted_calib = calib.nonconformity
            idx = np.searchsorted(sorted_calib, test_scores[:, k], side="left")
            p_values[:, k] = (sorted_calib.size - idx) / (sorted_calib.size + 1.0)
        return p_values

    def predict(self, output: EventHitOutput, confidence: float) -> np.ndarray:
        """Eq. 9: L̂ = {E_k : p_k ≥ 1 − c}.  Returns a (B, K) bool array."""
        if not 0.0 <= confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        return self.p_values(output) >= (1.0 - confidence)
