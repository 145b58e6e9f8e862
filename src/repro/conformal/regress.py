"""C-REGRESS — conformal occurrence-interval prediction (paper §V, Alg. 2).

For each event E_k, evaluate EventHit on the calibration records where the
event occurs, compute the absolute residuals of the predicted start and end
offsets against ground truth, and take their α-quantiles q̂ˢ_k and q̂ᵉ_k.
At prediction time the estimated interval [T̂ˢ, T̂ᵉ] is widened to
[max(1, T̂ˢ − q̂ˢ), min(H, T̂ᵉ + q̂ᵉ)].

Theorem 5.2: under exchangeability the true start/end offsets fall inside
±q̂ of the estimates with probability ≥ α, so larger α trades extra relayed
frames (SPL) for recall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.inference import PredictionBatch, extract_intervals, kept_pair_intervals
from ..core.model import EventHitOutput
from ..data.records import RecordSet
from ..obs import span
from .base import check_calibration_output, residual_quantile

__all__ = ["ConformalRegressor"]


@dataclass
class _EventResiduals:
    """Sorted start/end residuals of one event's calibration positives."""

    start_residuals: np.ndarray
    end_residuals: np.ndarray


class ConformalRegressor:
    """Per-event conformal interval widener calibrated on D_r-calib.

    :meth:`calibrate` takes the serving engine's output over its records.

    Parameters
    ----------
    tau2:
        Threshold used to extract raw intervals from θ scores (Eq. 5);
        the paper's EHR/EHCR variants keep τ2 = 0.5.
    """

    def __init__(self, tau2: float = 0.5):
        if not 0.0 <= tau2 <= 1.0:
            raise ValueError("tau2 must be in [0, 1]")
        self.tau2 = tau2
        self._residuals: Optional[List[_EventResiduals]] = None
        # α → (K, 2) quantiles; valid until the next calibrate().
        self._quantiles: Dict[float, np.ndarray] = {}

    @property
    def is_calibrated(self) -> bool:
        return self._residuals is not None

    # ------------------------------------------------------------------
    def calibrate(
        self, output: EventHitOutput, calibration: RecordSet
    ) -> "ConformalRegressor":
        """Algorithm 2 lines 5–12: collect per-event start/end residuals.

        ``output`` is EventHit's output over ``calibration``'s covariates.
        """
        check_calibration_output(output, calibration)
        with span("calibrate.regress", records=len(calibration)):
            pred_starts, pred_ends = extract_intervals(
                output.frame_scores, self.tau2
            )
            residuals: List[_EventResiduals] = []
            for k in range(calibration.num_events):
                positive = calibration.labels[:, k] > 0
                if not positive.any():
                    raise ValueError(
                        f"calibration set has no positive records for event "
                        f"index {k}; cannot calibrate"
                    )
                start_res = np.abs(
                    pred_starts[positive, k] - calibration.starts[positive, k]
                )
                end_res = np.abs(
                    pred_ends[positive, k] - calibration.ends[positive, k]
                )
                residuals.append(
                    _EventResiduals(
                        start_residuals=np.sort(start_res.astype(float)),
                        end_residuals=np.sort(end_res.astype(float)),
                    )
                )
            self._residuals = residuals
            self._quantiles = {}
        return self

    # ------------------------------------------------------------------
    def quantiles(self, alpha: float) -> np.ndarray:
        """(K, 2) array of (q̂ˢ_k, q̂ᵉ_k) at coverage level α.

        Memoized per α until the next :meth:`calibrate`; every call
        returns a fresh copy.
        """
        if self._residuals is None:
            raise RuntimeError("call calibrate() before predicting")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        q = self._quantiles.get(alpha)
        if q is None:
            q = np.zeros((len(self._residuals), 2))
            for k, res in enumerate(self._residuals):
                q[k, 0] = residual_quantile(res.start_residuals, alpha)
                q[k, 1] = residual_quantile(res.end_residuals, alpha)
            self._quantiles[alpha] = q
        return q.copy()

    def widen(self, predictions: PredictionBatch, alpha: float) -> PredictionBatch:
        """Eq. 11: widen predicted intervals by the α-quantile residuals.

        Start offsets move earlier (clamped at 1), end offsets later
        (clamped at H); events predicted absent are untouched.
        """
        return self._widened(
            predictions.exists.copy(),
            *predictions.kept(),
            predictions.horizon,
            alpha,
        )

    def _widened(
        self,
        exists: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        horizon: int,
        alpha: float,
    ) -> PredictionBatch:
        """The kept pairs' intervals widened by their events' quantiles."""
        q = self.quantiles(alpha).astype(int)
        return PredictionBatch.from_kept(
            exists,
            rows,
            cols,
            np.maximum(1, starts - q[cols, 0]),
            np.minimum(horizon, ends + q[cols, 1]),
            horizon,
        )

    def predict(
        self,
        output: EventHitOutput,
        exists: np.ndarray,
        alpha: float,
    ) -> PredictionBatch:
        """Full C-REGRESS pass: extract raw intervals, then widen.

        Intervals are extracted and widened only for the (row, event)
        pairs ``exists`` keeps
        (:func:`~repro.core.inference.kept_pair_intervals`), and the batch
        is built in kept-pair form; the rest read zero, as they always
        have.

        Parameters
        ----------
        output:
            EventHit outputs for the batch.
        exists:
            (B, K) bool — the estimated existence set L̂ (from Eq. 4
            thresholding or from C-CLASSIFY).
        alpha:
            Coverage level α.
        """
        exists = np.array(exists, dtype=bool)
        return self._widened(
            exists,
            *kept_pair_intervals(output, exists, self.tau2),
            output.horizon,
            alpha,
        )
