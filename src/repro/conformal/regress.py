"""C-REGRESS — conformal occurrence-interval prediction (paper §V, Alg. 2).

For each event E_k, evaluate EventHit on the calibration records where the
event occurs, compute the absolute residuals of the predicted start and end
offsets against ground truth, and take their α-quantiles q̂ˢ_k and q̂ᵉ_k.
At prediction time the estimated interval [T̂ˢ, T̂ᵉ] is widened to
[max(1, T̂ˢ − q̂ˢ), min(H, T̂ᵉ + q̂ᵉ)] (Eq. 11); in footnote-1 mode each run
is widened so, and a pair's runs that then overlap or touch are merged.

Theorem 5.2: under exchangeability the true start/end offsets fall inside
±q̂ of the estimates with probability ≥ α, so larger α trades extra relayed
frames (SPL) for recall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.inference import Runs, kept_pair_runs, merge_runs
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
            positive = calibration.labels > 0
            rows, cols, pred_starts, pred_ends = kept_pair_runs(
                output, positive, self.tau2
            )
            residuals: List[_EventResiduals] = []
            for k in range(calibration.num_events):
                if not positive[:, k].any():
                    raise ValueError(
                        f"calibration set has no positive records for event "
                        f"index {k}; cannot calibrate"
                    )
                event = cols == k
                start_res = np.abs(
                    pred_starts[event] - calibration.starts[rows[event], k]
                )
                end_res = np.abs(pred_ends[event] - calibration.ends[rows[event], k])
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

    def predict(
        self,
        output: EventHitOutput,
        exists: np.ndarray,
        alpha: float,
        min_gap: Optional[int] = None,
    ) -> Runs:
        """Full C-REGRESS pass: extract runs, then widen them (Eq. 11).

        Runs are extracted at the τ2 this layer was calibrated at, only
        for the (row, event) pairs ``exists`` keeps
        (:func:`~repro.core.inference.kept_pair_runs`); each start moves
        earlier by q̂ˢ (clamped at 1) and each end later by q̂ᵉ (clamped at
        H), and a pair's runs that then overlap or touch are merged.

        Parameters
        ----------
        output:
            EventHit outputs for the batch.
        exists:
            (B, K) bool — the estimated existence set L̂ (from Eq. 4
            thresholding or from C-CLASSIFY).
        alpha:
            Coverage level α.
        min_gap:
            Footnote-1 gap bridging before widening; ``None`` (Eq. 6)
            gives one run per kept pair.

        Returns
        -------
        ``(rows, events, starts, ends)``, one entry per widened run, in
        row-major order.
        """
        rows, cols, starts, ends = kept_pair_runs(output, exists, self.tau2, min_gap)
        q = self.quantiles(alpha).astype(int)
        starts = np.maximum(1, starts - q[cols, 0])
        ends = np.minimum(output.horizon, ends + q[cols, 1])
        if min_gap is None:  # one run per pair: nothing to merge
            return rows, cols, starts, ends
        first, last = merge_runs(rows * len(q) + cols, starts, ends, min_gap=1)
        return rows[first], cols[first], starts[first], ends[last]
