"""C-CLASSIFY — conformal event-existence prediction (paper §IV, Algorithm 1).

C-CLASSIFY replaces the τ1 threshold of Eq. 4 with probability semantics:
for each event E_k independently, compute the nonconformity of the new
covariates (a = 1 − b_k) and compare against the nonconformity of the
*positive* calibration records (those with E_k ∈ L_n).  The event is
predicted present when the resulting p-value is at least 1 − c.

At a fixed c that test is monotone in a, so serving compiles it once per
c to one nonconformity threshold per event, t_k(c) (:meth:`thresholds`),
and decides with a single compare, a_k ≤ t_k(c).  Only the lifecycle's
drift detector reads the p-values themselves (:meth:`p_values`).

Theorem 4.2: under exchangeability, P(E_k ∉ L̂ | E_k ∈ L) ≤ 1 − c — the
confidence level c lower-bounds the per-event existence recall.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.model import EventHitOutput
from ..data.records import RecordSet
from ..obs import span
from .base import (
    check_calibration_output,
    conformal_p_values,
    nonconformity_from_score,
)

__all__ = ["ConformalClassifier"]

NonconformityFn = Callable[[np.ndarray], np.ndarray]


def _threshold(positives: np.ndarray, confidence: float) -> float:
    """t(c) over one event's sorted calibration nonconformity.

    A test point that m positives are at least as nonconforming as has
    p = m / (n + 1).  The smallest m that passes the coded inequality is
    m*, and a ≤ sorted[n − m*] is exactly "at least m* positives".  m* = 0
    keeps every pair; no passing m keeps none.
    """
    n = positives.size
    passes = np.arange(n + 1) / (n + 1.0) >= 1.0 - confidence
    if not passes.any():
        return -np.inf
    kept = int(passes.argmax())
    return np.inf if kept == 0 else float(positives[n - kept])


class ConformalClassifier:
    """Per-event conformal existence predictor calibrated on D_c-calib.

    :meth:`calibrate` takes the serving engine's output over its records.

    Parameters
    ----------
    nonconformity:
        Score → nonconformity mapping; defaults to the paper's a = 1 − b.
    """

    def __init__(self, nonconformity: Optional[NonconformityFn] = None):
        self.nonconformity = nonconformity or nonconformity_from_score
        # Per event, the sorted nonconformity of its calibration positives.
        self._positives: Optional[List[np.ndarray]] = None
        # c → (K,) thresholds t_k(c); valid until the next calibrate().
        self._thresholds: Dict[float, np.ndarray] = {}

    # ------------------------------------------------------------------
    @property
    def is_calibrated(self) -> bool:
        return self._positives is not None

    def calibrate(
        self, output: EventHitOutput, calibration: RecordSet
    ) -> "ConformalClassifier":
        """Store per-event positive nonconformity scores.

        ``output`` is EventHit's output over ``calibration``'s covariates.
        Mirrors Algorithm 1 lines 4–6: nonconformity is computed for every
        calibration record; the p-value denominator uses only records with
        the event present.
        """
        check_calibration_output(output, calibration)
        with span("calibrate.classify", records=len(calibration)):
            scores = self.nonconformity(output.scores)  # (C, K)
            positives: List[np.ndarray] = []
            for k in range(calibration.num_events):
                positive = calibration.labels[:, k] > 0
                if not positive.any():
                    raise ValueError(
                        f"calibration set has no positive records for event "
                        f"index {k}; cannot calibrate"
                    )
                positives.append(np.sort(scores[positive, k]))
            self._positives = positives
            self._thresholds = {}
        return self

    # ------------------------------------------------------------------
    def thresholds(self, confidence: float) -> np.ndarray:
        """(K,) nonconformity thresholds t_k(c): Eq. 9 keeps E_k iff a_k ≤ t_k.

        Memoized per c until the next :meth:`calibrate`; the array is
        read-only.
        """
        if self._positives is None:
            raise RuntimeError("call calibrate() before predicting")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        t = self._thresholds.get(confidence)
        if t is None:
            t = np.array([_threshold(a, confidence) for a in self._positives])
            t.setflags(write=False)
            self._thresholds[confidence] = t
        return t

    def p_values(self, output: EventHitOutput) -> np.ndarray:
        """(B, K) conformal p-values for a batch of EventHit outputs.

        Read by the lifecycle's p-value drift detector; serving decides
        through :meth:`thresholds`.
        """
        if self._positives is None:
            raise RuntimeError("call calibrate() before predicting")
        test_scores = self.nonconformity(output.scores)
        return np.column_stack(
            [
                conformal_p_values(test_scores[:, k], positives)
                for k, positives in enumerate(self._positives)
            ]
        )

    def predict(self, output: EventHitOutput, confidence: float) -> np.ndarray:
        """Eq. 9: L̂ = {E_k : p_k ≥ 1 − c}, as a_k ≤ t_k(c).  Returns a
        (B, K) bool array."""
        thresholds = self.thresholds(confidence)
        return self.nonconformity(output.scores) <= thresholds
