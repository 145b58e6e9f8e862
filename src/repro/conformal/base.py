"""Shared conformal-prediction machinery (paper §IV.A / §V.A).

Conformal prediction turns any model's scores into predictions with
marginal probabilistic guarantees, using only exchangeability of a
calibration set with the test point:

* classification: a *nonconformity measure* ranks how dissimilar a new
  example is from calibrated positives; the p-value is the fraction of
  calibration positives at least as nonconforming (Theorem 4.1);
* regression: the α-quantile of absolute calibration residuals gives a
  prediction band with coverage ≥ α (split conformal, Theorem 5.1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "nonconformity_from_score",
    "margin_nonconformity",
    "conformal_p_values",
    "residual_quantile",
]


def nonconformity_from_score(scores: np.ndarray) -> np.ndarray:
    """The paper's measure: a = 1 − b (low score ⇒ high nonconformity)."""
    scores = np.asarray(scores, dtype=float)
    if np.any((scores < 0) | (scores > 1)):
        raise ValueError("scores must lie in [0, 1]")
    return 1.0 - scores


def check_calibration_output(output, calibration) -> None:
    """Raise unless ``output`` has one row per record, one column per event."""
    want = (len(calibration), calibration.num_events)
    if output.scores.shape != want:
        raise ValueError(f"output is {output.scores.shape}, calibration is {want}")


def margin_nonconformity(scores: np.ndarray) -> np.ndarray:
    """Alternative measure: (1−b) − b, the margin toward the negative class.

    Theorem 4.1 holds for any measure; this one is used by the
    nonconformity ablation benchmark.  It is a monotone transform of
    ``1 − b``, so validity is identical while efficiency may differ once
    measures are no longer comparable monotonically (e.g. per-class
    scaling); we include it to demonstrate measure-independence.
    """
    scores = np.asarray(scores, dtype=float)
    if np.any((scores < 0) | (scores > 1)):
        raise ValueError("scores must lie in [0, 1]")
    return (1.0 - scores) - scores


def conformal_p_values(
    test_nonconformity: np.ndarray, calibration_nonconformity: np.ndarray
) -> np.ndarray:
    """p_o = |{i : a_o ≤ a_i}| / (|Δ_c| + 1)  (paper §IV.A, Algorithm 1).

    Parameters
    ----------
    test_nonconformity:
        (B,) nonconformity scores of the new examples.
    calibration_nonconformity:
        (C,) nonconformity scores of the calibration positives.

    Returns
    -------
    (B,) p-values in [0, 1).  A small p-value means "being positive here is
    very nonconforming with past positive experience".
    """
    test = np.atleast_1d(np.asarray(test_nonconformity, dtype=float))
    calib = np.asarray(calibration_nonconformity, dtype=float)
    if calib.ndim != 1:
        raise ValueError("calibration scores must be 1-D")
    # Count calibration points with a_i >= a_o, vectorised via sorting.
    sorted_calib = np.sort(calib)
    # index of first element >= a_o  →  count = C - index
    idx = np.searchsorted(sorted_calib, test, side="left")
    counts = calib.size - idx
    return counts / (calib.size + 1.0)


def residual_quantile(residuals: Sequence[float], alpha: float) -> float:
    """The ⌈α·n⌉-th smallest residual (paper §V.A / Algorithm 2, lines 13–16).

    Defined for non-empty residual lists; α ∈ (0, 1].  With n residuals the
    returned value is residual_(⌈α·n⌉) in sorted order (1-indexed).
    """
    residuals = np.asarray(list(residuals), dtype=float)
    if residuals.size == 0:
        raise ValueError("residuals must be non-empty")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if np.any(residuals < 0):
        raise ValueError("residuals must be non-negative")
    ordered = np.sort(residuals)
    rank = int(np.ceil(alpha * residuals.size))
    rank = min(max(rank, 1), residuals.size)
    return float(ordered[rank - 1])
